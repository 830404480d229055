"""Ledger tests: append-only behavior, latest-wins supersession,
tamper evidence, export/import, and the frozen seed-42 ledger golden."""

import gc
import hashlib
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from l2ai.channel import parse_scenario
from l2ai.harness import HONEST_SCENARIO, World, run_scenario
from l2ai.ledger import (
    CARD_TAG, IDENT_TAG, IdentityIndex, Ledger, LedgerBlock, SmartCard, TokenRecord,
    _KIND_NAMES, parse_record,
)
from l2ai.permissions import Role
from l2ai.primitives import WIDTH, PrimitiveOps, seal, sha256_160

GOLDEN = Path(__file__).parent / "golden"


def make_ops(seed=0):
    return PrimitiveOps(seed=seed)


def sample_token(ops) -> TokenRecord:
    t_g = ops.rand_digest()
    key = ops.rand_digest()
    return TokenRecord(x=ops.hash(t_g), y=seal(key, t_g, ops.rng.randbytes(16)))


def sample_card(ops) -> SmartCard:
    _, helper = ops.fe_gen(ops.rand_template())
    d = ops.rand_digest
    return SmartCard(e_i=d(), f_i=d(), eid_i=d(), r_hms=d(), hid_hms=d(),
                     ax_ui=d(), tau=helper, card_uid=d())


def test_chain_links_and_verifies():
    ops, ledger = make_ops(), Ledger()
    for _ in range(5):
        ledger.append(sample_token(ops))
    blocks = [LedgerBlock.from_record(record) for record in ledger.blocks]
    assert [b.height for b in blocks] == list(range(5))
    assert blocks[0].prev_digest == bytes(WIDTH)
    for prev, block in zip(blocks, blocks[1:]):
        assert block.prev_digest == prev.block_digest
    assert ledger.verify_chain()


def test_empty_chain_verifies():
    assert Ledger().verify_chain()


def test_single_bit_tamper_detected():
    ops, ledger = make_ops(1), Ledger()
    for _ in range(3):
        ledger.append(sample_token(ops))
    lines = ledger.export_lines()
    # flip one bit inside the middle block's payload hex
    height_s, prev_hex, kind, payload_hex, digest_hex = lines[1].split()
    payload = bytearray(bytes.fromhex(payload_hex))
    payload[5] ^= 0x10
    lines[1] = f"{height_s} {prev_hex} {kind} {bytes(payload).hex()} {digest_hex}"
    assert not Ledger.from_lines(lines).verify_chain()


@pytest.mark.parametrize("index,field,value", [
    (2, "height", 7),                       # the last block: no later link to break
    (0, "prev_digest", bytes([1]) * WIDTH),  # the genesis link
    (1, "prev_digest", bytes([1]) * WIDTH),
], ids=["last-height", "genesis-link", "middle-link"])
def test_resigned_block_with_a_wrong_height_or_link_fails_verification(index, field,
                                                                       value):
    # the digest covers a record's own height and link, so only the height
    # and link checks catch a forger who signs the edited record again
    ops, ledger = make_ops(17), Ledger()
    for _ in range(3):
        ledger.append(sample_token(ops))
    block = LedgerBlock.from_record(ledger.blocks[index])._replace(**{field: value})
    covered = struct.pack(">Q", block.height) + block.prev_digest + block.payload
    ledger.blocks[index] = block._replace(block_digest=sha256_160(covered)).to_record()
    assert not ledger.verify_chain()


@pytest.mark.parametrize("length", [0, 2, 7, 8, 47])
def test_record_too_short_for_height_link_and_digest_fails_verification(length):
    # 48 bytes hold the height, the link and the digest around an empty payload
    world = World(seed=42)
    run_scenario(world, parse_scenario(HONEST_SCENARIO))
    assert world.ledger.verify_chain()
    world.ledger.blocks[3] = world.ledger.blocks[3][:length]
    assert not world.ledger.verify_chain()


# --- verify_chain hashes only the records _link did not build -------------------

def full_rehash_verify(blocks) -> bool:
    """The reference: every record's length, height and link checked and
    every digest recomputed, taking no digest on trust."""
    prev = bytes(WIDTH)
    for height, record in enumerate(blocks):
        if len(record) < 8 + 2 * WIDTH or struct.unpack_from(">Q", record)[0] != height \
                or record[8:8 + WIDTH] != prev:
            return False
        prev = hashlib.sha256(record[:-WIDTH]).digest()[:WIDTH]
        if record[-WIDTH:] != prev:
            return False
    return True


def honest_ledger() -> Ledger:
    world = World(seed=42)
    assert run_scenario(world, parse_scenario(HONEST_SCENARIO)).ok
    return world.ledger


_HONEST_RECORDS = [parse_record(LedgerBlock.from_record(record).payload)
                   for record in honest_ledger().blocks]
CARD_UIDS_42 = sorted({r.card_uid for r in _HONEST_RECORDS if isinstance(r, SmartCard)})
USERS_42 = sorted({r.user_id for r in _HONEST_RECORDS if isinstance(r, IdentityIndex)})


def test_every_linked_record_holds_the_digest_of_what_precedes_it():
    # verify_chain takes the digest _link wrote on trust, so this recomputes it
    records = honest_ledger().blocks
    assert len(records) == 22
    for record in records:
        assert record[-WIDTH:] == hashlib.sha256(record[:-WIDTH]).digest()[:WIDTH]


def test_an_untouched_chain_verifies_without_hashing_and_an_import_hashes_every_block(
        monkeypatch):
    ledger, hashed = honest_ledger(), []

    def counting_sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr("l2ai.ledger.hashlib", SimpleNamespace(sha256=counting_sha256))
    assert ledger.verify_chain()
    assert hashed == []
    assert Ledger.from_lines(ledger.export_lines()).verify_chain()
    assert hashed == [record[:-WIDTH] for record in ledger.blocks]


def test_a_record_linked_above_an_insert_that_is_then_deleted_fails_verification():
    # after the delete every position holds the record _link built at that
    # place in build order, and the last one links to its predecessor, but
    # it holds the height it was written at, one above its position
    ledger = honest_ledger()
    ledger.blocks.insert(0, ledger.blocks[0])
    ledger.put_card(ledger.get_card(CARD_UIDS_42[0])._replace(ax_ui=bytes(WIDTH)))
    del ledger.blocks[0]
    assert all(record is built
               for record, built in zip(ledger.blocks, ledger._linked, strict=True))
    assert not full_rehash_verify(ledger.blocks)
    assert not ledger.verify_chain()


CHAIN_STEPS = ("put-card", "replace-index", "flip", "truncate", "del", "insert-earlier",
               "swap", "pop", "copy", "rebind")


def chain_step(ledger: Ledger, seen: list[bytes], step: tuple, number: int) -> None:
    """One `_link` write through a typed writer, or one edit of the records
    in place; `seen` holds every record the chain has held, to reinsert."""
    name, i, j, byte = step
    blocks = ledger.blocks
    if name == "put-card":
        uid = CARD_UIDS_42[i % len(CARD_UIDS_42)]
        ledger.put_card(ledger.get_card(uid)._replace(ax_ui=bytes([byte]) * WIDTH))
    elif name == "replace-index":
        user = USERS_42[i % len(USERS_42)]
        old = ledger.live_index_for(user)
        new = old if j % 2 else hashlib.sha256(b"%d" % number).digest()[:WIDTH]
        ledger.replace_index(old, new, user)
    elif name == "insert-earlier":
        blocks.insert(i % (len(blocks) + 1), seen[j % len(seen)])
    elif name == "rebind":
        ledger.blocks = list(blocks)
    elif blocks:
        i = i % len(blocks)
        if name == "flip":
            flipped = bytearray(blocks[i])
            if flipped:
                flipped[j % len(flipped)] ^= byte
                blocks[i] = bytes(flipped)
        elif name == "truncate":
            blocks[i] = blocks[i][:j % max(len(blocks[i]), 1)]
        elif name == "del":
            del blocks[i]
        elif name == "swap":
            j = j % len(blocks)
            blocks[i], blocks[j] = blocks[j], blocks[i]
        elif name == "pop":
            blocks.pop()
        elif name == "copy":
            blocks[i] = bytes(bytearray(blocks[i]))       # equal content, a new object
    seen.extend(ledger.blocks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CHAIN_STEPS), st.integers(0, 2**16),
                          st.integers(0, 2**16), st.integers(1, 255)),
                min_size=1, max_size=12))
def test_verify_chain_equals_a_full_rehash_through_writes_and_edits(steps):
    ledger = honest_ledger()
    seen = list(ledger.blocks)
    for number, step in enumerate(steps):
        chain_step(ledger, seen, step, number)
        verdict = ledger.verify_chain()
        assert verdict == full_rehash_verify(ledger.blocks), (number, step)
    event(f"the chain verifies after the last step: {verdict}")


def test_token_revocation_is_append_only():
    ops, ledger = make_ops(2), Ledger()
    token = sample_token(ops)
    ledger.append(token)
    assert ledger.any_digest(token.x)
    before = len(ledger.blocks)
    ledger.revoke_token(token.x)
    assert not ledger.any_digest(token.x)
    assert len(ledger.blocks) == before + 1      # tombstone appended, nothing rewritten
    assert parse_record(LedgerBlock.from_record(ledger.blocks[before - 1]).payload) == token
    assert ledger.verify_chain()
    # revoking again is a no-op, not a second tombstone
    ledger.revoke_token(token.x)
    assert len(ledger.blocks) == before + 1


def test_identity_index_replacement():
    ops, ledger = make_ops(3), Ledger()
    user_id, old_h, new_h = ops.rand_digest(), ops.rand_digest(), ops.rand_digest()
    ledger.append(IdentityIndex(h_dtid=old_h, user_id=user_id))
    assert ledger.get_identity(old_h) == user_id
    assert ledger.any_digest(old_h)

    ledger.replace_index(old_h, new_h, user_id)
    assert not ledger.any_digest(old_h)
    assert ledger.any_digest(new_h)
    assert ledger.get_identity(new_h) == user_id
    assert ledger.get_identity(old_h) is None
    # replacing the dead index again must fail
    with pytest.raises(ValueError):
        ledger.replace_index(old_h, ops.rand_digest(), user_id)
    assert ledger.verify_chain()


def test_card_latest_version_wins():
    ops, ledger = make_ops(4), Ledger()
    card = sample_card(ops)
    assert ledger.put_card(card) == 0
    assert ledger.get_card(card.card_uid) == card

    newer = card._replace(ax_ui=ops.rand_digest())
    assert ledger.put_card(newer) == 1
    assert ledger.get_card(card.card_uid) == newer
    assert ledger.verify_chain()


def test_lookup_misses_answer_none_and_writes_on_a_miss_raise_value_error():
    ops, ledger = make_ops(6), Ledger()
    ledger.append(sample_token(ops))
    ghost = ops.rand_digest()
    assert not ledger.any_digest(ghost)
    assert ledger.get_identity(ghost) is None
    assert ledger.get_token(ghost) is None
    assert ledger.get_card(ghost) is None
    assert ledger.live_index_for(ghost) is None
    with pytest.raises(ValueError):
        ledger.revoke_token(ghost)
    with pytest.raises(ValueError):
        ledger.replace_index(ghost, ghost, ghost)
    assert len(ledger.blocks) == 1


def test_export_import_roundtrip():
    ops, ledger = make_ops(7), Ledger()
    ledger.append(sample_token(ops))
    user_id, h = ops.rand_digest(), ops.rand_digest()
    ledger.append(IdentityIndex(h_dtid=h, user_id=user_id))
    ledger.put_card(sample_card(ops))

    lines = ledger.export_lines()
    rebuilt = Ledger.from_lines(lines)
    assert rebuilt.verify_chain()
    assert rebuilt.export_lines() == lines
    assert rebuilt.get_identity(h) == user_id


def test_payload_serialization_roundtrips():
    ops = make_ops(8)
    token = sample_token(ops)
    assert parse_record(token.serialize()) == token
    ident = IdentityIndex(h_dtid=ops.rand_digest(), user_id=ops.rand_digest(),
                          superseded_by=ops.rand_digest())
    assert parse_record(ident.serialize()) == ident
    card = sample_card(ops)
    assert parse_record(card.serialize()) == card


def test_any_digest_agrees_with_linear_scan():
    # Oracle equivalence: replay every query against a brute-force pass
    # over the raw blocks instead of the maintained indexes.
    ops, ledger = make_ops(9), Ledger()
    tracked = []
    for i in range(30):
        token = sample_token(ops)
        ledger.append(token)
        tracked.append(token.x)
        if i % 3 == 0:
            ledger.revoke_token(token.x)
        if i % 4 == 0:
            h, uid = ops.rand_digest(), ops.rand_digest()
            ledger.append(IdentityIndex(h_dtid=h, user_id=uid))
            tracked.append(h)
            if i % 8 == 0:
                new_h = ops.rand_digest()
                ledger.replace_index(h, new_h, uid)
                tracked.append(new_h)

    def scan(x: bytes) -> bool:
        latest = {}
        for block in ledger.blocks:
            record = parse_record(LedgerBlock.from_record(block).payload)
            if isinstance(record, TokenRecord):
                latest[("t", record.x)] = not record.revoked
            elif isinstance(record, IdentityIndex):
                latest[("i", record.h_dtid)] = record.superseded_by is None
        return latest.get(("t", x), False) or latest.get(("i", x), False)

    for x in tracked + [ops.rand_digest() for _ in range(5)]:
        assert ledger.any_digest(x) == scan(x)

    # the identity index holds live records only, not one per supersede
    live = {}
    for block in ledger.blocks:
        record = parse_record(LedgerBlock.from_record(block).payload)
        if isinstance(record, IdentityIndex):
            live[record.h_dtid] = record.superseded_by is None
    assert len(ledger._idents) == sum(live.values())


# --- short input is a ValueError, like every other malformed record -----------

@pytest.mark.parametrize("payload", [
    b"",                                    # no tag byte
    bytes([0x02]) + bytes(19),              # 20-byte identity payload
    bytes([0x01]) + bytes(20),              # 21-byte token payload: no revoked flag
], ids=["empty", "ident-20", "token-21"])
def test_parse_record_short_payload_is_value_error(payload):
    with pytest.raises(ValueError):
        parse_record(payload)


@pytest.mark.parametrize("payload_hex", ["02" + "00" * 19, "01" + "00" * 20])
def test_import_refuses_short_payload_blocks(payload_hex):
    ops, ledger = make_ops(10), Ledger()
    for _ in range(3):
        ledger.append(sample_token(ops))
    lines = ledger.export_lines()
    height, prev_hex, kind, _payload, digest_hex = lines[1].split()
    lines[1] = f"{height} {prev_hex} {kind} {payload_hex} {digest_hex}"
    with pytest.raises(ValueError, match="line 2"):
        Ledger.from_lines(lines)


def rechained(payloads: list[bytes]) -> list[str]:
    """Export lines for these payloads with every prev and digest recomputed,
    as a forger who rewrites the chain would write them."""
    lines, prev = [], bytes(WIDTH)
    for height, payload in enumerate(payloads):
        digest = sha256_160(struct.pack(">Q", height) + prev + payload)
        kind = _KIND_NAMES.get(payload[0], "unknown")
        lines.append(f"{height} {prev.hex()} {kind} {payload.hex()} {digest.hex()}")
        prev = digest
    return lines


def test_import_refuses_a_digest_live_for_another_user():
    # a forged second index for the same digest and another user: the chain
    # verifies, so only the replayed write can tell
    ops = make_ops(14)
    alice, bob, h = ops.rand_digest(), ops.rand_digest(), ops.rand_digest()
    lines = rechained([IdentityIndex(h_dtid=h, user_id=alice).serialize(),
                       IdentityIndex(h_dtid=h, user_id=bob).serialize()])
    with pytest.raises(ValueError,
                       match="line 2: identity index digest is live for another user"):
        Ledger.from_lines(lines)


def with_byte(payload: bytes, at: int, value: int) -> bytes:
    return payload[:at] + bytes([value]) + payload[at + 1:]


_ops = make_ops(15)
_IDENT = IdentityIndex(h_dtid=_ops.rand_digest(), user_id=_ops.rand_digest())
_MARKER = _IDENT._replace(superseded_by=_ops.rand_digest())
_TOKEN = sample_token(_ops)
_CARD = sample_card(_ops)


@pytest.mark.parametrize("payload", [
    with_byte(_MARKER.serialize(), 1 + 2 * 20, 0x07),       # the marker flag
    with_byte(_TOKEN.serialize(), 1 + 20, 0x05),            # the revoked byte
], ids=["marker-flag-07", "token-revoked-05"])
def test_import_refuses_non_canonical_records(payload):
    # each parses to a record that serializes to other bytes
    assert parse_record(payload).serialize() != payload
    lines = rechained([sample_token(make_ops(16)).serialize(), payload])
    with pytest.raises(ValueError, match="line 2: record is not in canonical form"):
        Ledger.from_lines(lines)


@pytest.mark.parametrize("payload,refusal", [
    (_CARD.serialize()[:-1], "smart card record must be"),
    (_CARD.serialize() + bytes(1), "smart card record must be"),
    (_IDENT.serialize()[:-1], "identity record must be"),
    (_IDENT.serialize() + bytes(1), "identity record must be"),
    (_TOKEN.serialize()[:61], "ciphertext envelope too short"),     # 22-byte head, then
    (_TOKEN.serialize()[:-1], "ciphertext envelope length mismatch"),   # a 60-byte envelope
    (_TOKEN.serialize() + bytes(1), "ciphertext envelope length mismatch"),
], ids=["card-short", "card-long", "ident-short", "ident-long",
        "envelope-under-40", "envelope-short", "envelope-long"])
def test_import_refuses_wrong_width_payloads(payload, refusal):
    lines = rechained([sample_token(make_ops(16)).serialize(), payload])
    with pytest.raises(ValueError, match=f"line 2: {refusal}"):
        Ledger.from_lines(lines)


@given(st.binary(min_size=192, max_size=192))
def test_any_exact_width_card_payload_parses_and_re_serializes_to_itself(body):
    payload = bytes([CARD_TAG]) + body
    record = parse_record(payload)
    assert type(record) is SmartCard
    assert record.serialize() == payload


@given(st.binary(min_size=2 * WIDTH, max_size=2 * WIDTH),
       st.one_of(st.sampled_from([0, 1]), st.integers(0, 255)),
       st.one_of(st.just(bytes(WIDTH)), st.binary(min_size=WIDTH, max_size=WIDTH)))
def test_any_exact_width_identity_payload_parses_canonical_iff_flag_and_marker_are(
        digests, flag, marker):
    # `?` unpacks any non-zero flag as superseded, and a live index drops
    # its marker, so only flag 0 with a zero marker or flag 1 re-serialize
    payload = bytes([IDENT_TAG]) + digests + bytes([flag]) + marker
    assert len(payload) == 62
    record = parse_record(payload)
    assert type(record) is IdentityIndex
    canonical = flag == 1 or (flag == 0 and marker == bytes(WIDTH))
    assert (record.serialize() == payload) == canonical


def seed42_export() -> list[str]:
    world = World(seed=42)
    run_scenario(world, parse_scenario(HONEST_SCENARIO))
    return world.ledger.export_lines()


SEED42_EXPORT = (GOLDEN / "honest-seed42-ledger.txt").read_text(encoding="utf-8").splitlines()


def test_export_matches_golden():
    assert seed42_export() == SEED42_EXPORT
    rebuilt = Ledger.from_lines(SEED42_EXPORT)
    assert rebuilt.export_lines() == SEED42_EXPORT
    assert rebuilt.verify_chain()


def with_field(line: str, index: int, edit) -> str:
    fields = line.split(" ")
    fields[index] = edit(fields[index])
    return " ".join(fields)


@pytest.mark.parametrize("rewrite", [
    lambda line: with_field(line, 0, lambda height: "+0_" + height),
    lambda line: with_field(line, 4, str.upper),           # block digest hex
    lambda line: with_field(line, 3, str.upper),           # payload hex
    lambda line: with_field(line, 2, lambda _: "token"),   # an ident block
    lambda line: line.replace(" ", "\t"),
], ids=["height-plus-underscore", "upper-digest-hex", "upper-payload-hex",
        "wrong-kind", "tab-separators"])
def test_import_refuses_lines_export_does_not_write(rewrite):
    # each rewrite names the same block, so its chain would verify and its
    # re-export would hide the difference
    lines = list(SEED42_EXPORT)
    lines[1] = rewrite(lines[1])
    assert lines[1] != SEED42_EXPORT[1]
    with pytest.raises(ValueError, match="line 2: line is not in canonical form"):
        Ledger.from_lines(lines)


@pytest.mark.parametrize("height", [-1, 2**64, 2**70])
def test_import_refuses_a_height_the_record_cannot_hold(height):
    lines = list(SEED42_EXPORT)
    lines[1] = with_field(lines[1], 0, lambda _: str(height))
    with pytest.raises(ValueError, match="line 2: height"):
        Ledger.from_lines(lines)


def test_blocks_are_untracked_records_that_decode_and_re_encode():
    world = World(seed=42)
    written = []
    put_card = world.ledger.put_card

    def recording_put_card(card):
        height = put_card(card)
        written.append((height, card))
        return height

    world.ledger.put_card = recording_put_card
    assert run_scenario(world, parse_scenario(HONEST_SCENARIO)).ok
    records = world.ledger.blocks
    assert world.ledger.export_lines() == SEED42_EXPORT
    for record in records:
        assert type(record) is bytes and not gc.is_tracked(record)
        assert LedgerBlock.from_record(record).to_record() == record
    # put_card returns the height of the block it wrote
    assert written
    for height, card in written:
        block = LedgerBlock.from_record(records[height])
        assert block.height == height
        assert block.payload == card.serialize()


def test_import_accepts_line_endings():
    for ending in ("\n", "\r\n"):
        rebuilt = Ledger.from_lines([line + ending for line in SEED42_EXPORT])
        assert rebuilt.export_lines() == SEED42_EXPORT
        assert rebuilt.verify_chain()
    # empty lines, with or without their line ending, are skipped
    spaced = [line for exported in SEED42_EXPORT for line in ("", exported, "\n")]
    assert Ledger.from_lines(spaced).export_lines() == SEED42_EXPORT


# --- mutated exports of a finished honest World -----------------------------------

def honest_export() -> list[str]:
    world = World(seed=3)
    for name in ("ana", "ben"):
        world.register_user(name)
    world.drain()
    world.auth_attempt("ana")
    world.drain()
    world.update_user_credentials("ben")
    world.update_authorization("ana", Role.NURSE)
    world.drain()
    world.auth_attempt("ben")
    world.drain()
    return world.ledger.export_lines()


HONEST_EXPORT = honest_export()
MUTATIONS = ("delete", "duplicate", "swap", "truncate", "corrupt-hex", "flip-byte",
             "height")
HEIGHTS = st.one_of(
    st.integers(max_value=-1),
    st.integers(0, 2**64 - 2),                  # in range, and almost always wrong
    st.just(2**64 - 1),                         # the largest the 8-byte field holds
    st.integers(min_value=2**64),
)


@st.composite
def mutated_exports(draw) -> list[str]:
    """The honest export with one line deleted, duplicated, swapped,
    truncated, given a bad hex character, a flipped payload byte or another
    height; the line moves and the flip are drawn with the chain left as
    written or recomputed, as a forger would write it."""
    lines = list(HONEST_EXPORT)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    mutation = draw(st.sampled_from(MUTATIONS))
    fields = lines[i].split()
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "truncate":
        lines[i] = " ".join(fields[:draw(st.integers(0, 4))])
    elif mutation == "corrupt-hex":
        f = draw(st.sampled_from((1, 3, 4)))          # prev, payload, digest
        k = draw(st.integers(0, len(fields[f]) - 1))
        char = draw(st.sampled_from("0123456789abcdefg"))
        fields[f] = fields[f][:k] + char + fields[f][k + 1:]
        lines[i] = " ".join(fields)
    elif mutation == "height":
        fields[0] = str(draw(HEIGHTS))
        lines[i] = " ".join(fields)
    else:
        payload = bytearray.fromhex(fields[3])
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
        fields[3] = payload.hex()
        lines[i] = " ".join(fields)
    if mutation not in ("truncate", "corrupt-hex", "height") and draw(st.booleans()):
        lines = rechained([bytes.fromhex(line.split()[3]) for line in lines])
    return lines


@settings(max_examples=300, deadline=None)
@given(mutated_exports())
def test_mutated_exports_import_faithfully_or_raise_value_error(lines):
    try:
        ledger = Ledger.from_lines(lines)
    except ValueError:
        return
    # height, prev, payload, digest of every line read, as written
    as_read = [(f[0], f[1], f[3], f[4]) for f in (line.split() for line in lines)
               if f]
    exported = [(f[0], f[1], f[3], f[4])
                for f in (line.split() for line in ledger.export_lines())]
    assert exported == as_read
    if ledger.verify_chain():
        # the lookups of a verifying import are those of its writes replayed
        replayed = Ledger()
        for block in ledger.blocks:
            replayed.append(parse_record(LedgerBlock.from_record(block).payload))
        assert replayed.export_lines() == ledger.export_lines()


# --- found by the state machine below ----------------------------------------

def test_identity_digest_live_for_another_user_is_refused():
    # it was indexed for the second user while the first still had it as
    # their live index, so the two lookups disagreed
    ops, ledger = make_ops(12), Ledger()
    alice, bob, h = ops.rand_digest(), ops.rand_digest(), ops.rand_digest()
    ledger.append(IdentityIndex(h_dtid=h, user_id=alice))
    with pytest.raises(ValueError):
        ledger.append(IdentityIndex(h_dtid=h, user_id=bob))
    with pytest.raises(ValueError):
        ledger.append(IdentityIndex(h_dtid=h, user_id=bob, superseded_by=h))
    assert len(ledger.blocks) == 1
    assert ledger.get_identity(h) == alice
    assert ledger.live_index_for(alice) == h
    assert ledger.live_index_for(bob) is None


def test_replace_index_onto_another_users_digest_appends_nothing():
    # it superseded the old index and then refused the new one, leaving
    # the user with no live index at all
    ops, ledger = make_ops(13), Ledger()
    alice, bob = ops.rand_digest(), ops.rand_digest()
    h_alice, h_bob = ops.rand_digest(), ops.rand_digest()
    ledger.append(IdentityIndex(h_dtid=h_alice, user_id=alice))
    ledger.append(IdentityIndex(h_dtid=h_bob, user_id=bob))
    with pytest.raises(ValueError):
        ledger.replace_index(h_bob, h_alice, bob)
    assert len(ledger.blocks) == 2
    assert ledger.live_index_for(bob) == h_bob
    assert ledger.get_identity(h_alice) == alice
    ledger.replace_index(h_bob, h_bob, bob)           # its own digest is fine
    assert ledger.live_index_for(bob) == h_bob


@pytest.mark.parametrize("same", [False, True], ids=["new-digest", "same-digest"])
def test_replace_index_writes_the_two_canonical_identity_records(same):
    ops, ledger = make_ops(14), Ledger()
    user, old = ops.rand_digest(), ops.rand_digest()
    new = old if same else ops.rand_digest()
    ledger.append(IdentityIndex(old, user))
    ledger.replace_index(old, new, user)
    payloads = [LedgerBlock.from_record(record).payload for record in ledger.blocks[1:]]
    records = [parse_record(payload) for payload in payloads]
    assert records == [IdentityIndex(old, user, new), IdentityIndex(new, user, None)]
    assert [record.serialize() for record in records] == payloads
    assert ledger.verify_chain()
    assert ledger.get_identity(new) == user and ledger.live_index_for(user) == new
    assert ledger.get_identity(old) == (user if same else None)


def test_writes_link_to_the_last_record_as_it_stands():
    # a write links to the digest of the record now last on the chain, even
    # one replaced in place since the previous write
    ops, ledger = make_ops(18), Ledger()
    token, user, h = sample_token(ops), ops.rand_digest(), ops.rand_digest()
    ledger.append(token)
    ledger.append(IdentityIndex(h, user))
    writes = [lambda: ledger.put_card(sample_card(ops)),
              lambda: ledger.replace_index(h, h, user),
              lambda: ledger.revoke_token(token.x),
              lambda: ledger.append(sample_token(ops))]
    for write in writes:
        last = LedgerBlock.from_record(ledger.blocks[-1])
        forged = last._replace(block_digest=ops.rand_digest()).to_record()
        ledger.blocks[-1] = forged
        before = len(ledger.blocks)
        write()
        for record in ledger.blocks[before:]:
            block = LedgerBlock.from_record(record)
            assert block.prev_digest == forged[-WIDTH:]
            forged = record
        assert len(ledger.blocks) > before


def test_typed_writes_and_import_give_the_same_lookups():
    # put_card, replace_index and revoke_token update the lookups themselves;
    # import replays every block through the generic index instead
    world = World(seed=5)
    extra = "honest update-creds bob\nhonest update-auth alice P\nhonest auth alice read-own-records\n"
    assert run_scenario(world, parse_scenario(HONEST_SCENARIO + extra)).ok
    live = world.ledger
    rebuilt = Ledger.from_lines(live.export_lines())
    records = [parse_record(LedgerBlock.from_record(record).payload)
               for record in live.blocks]
    cards = [r for r in records if isinstance(r, SmartCard)]
    tokens = [r for r in records if isinstance(r, TokenRecord)]
    idents = [r for r in records if isinstance(r, IdentityIndex)]
    assert sum(t.revoked for t in tokens) == 2                 # two role updates
    assert len(cards) > 2 * len({c.card_uid for c in cards})   # re-keyed cards
    users = {c.card_uid for c in cards} | {i.user_id for i in idents}
    digests = {t.x for t in tokens} | {i.h_dtid for i in idents} \
        | {i.superseded_by for i in idents if i.superseded_by is not None}
    assert len(users) == 2
    for user in users:
        assert rebuilt.get_card(user) == live.get_card(user) is not None
        assert rebuilt.live_index_for(user) == live.live_index_for(user) is not None
    for digest in digests | {bytes(WIDTH)}:
        assert rebuilt.get_identity(digest) == live.get_identity(digest)
        assert rebuilt.get_token(digest) == live.get_token(digest)
        assert rebuilt.any_digest(digest) == live.any_digest(digest)


# --- the ledger against a dict model --------------------------------------------

# Small pools, so that digests repeat: tokens and identity indexes share the
# digest pool (any_digest looks up both namespaces) and users compete for it.
DIGESTS = [bytes([i]) * 20 for i in range(1, 6)]
USERS = [bytes([0x80 + i]) * 20 for i in range(3)]
CARD_UIDS = [bytes([0xC0 + i]) * 20 for i in range(2)]
SEALED = [seal(bytes(20), bytes([i]), bytes(16)) for i in range(3)]
BASE_CARD = sample_card(make_ops(11))


class LedgerModel(RuleBasedStateMachine):
    """Each rule applies one write to the Ledger and to plain dicts; after
    every step the latest-wins lookups of the ledger, and of a ledger
    rebuilt from its export, must agree with the dicts."""

    def __init__(self):
        super().__init__()
        self.ledger = Ledger()
        self.tokens: dict[bytes, TokenRecord] = {}   # latest record per x
        self.idents: dict[bytes, bytes] = {}         # live h -> user
        self.live: dict[bytes, bytes] = {}           # user -> live h
        self.cards: dict[bytes, SmartCard] = {}      # latest card per uid

    def appends(self, count: int, write, raises=None) -> None:
        """Run write() and check that it appended `count` blocks; a write
        expected to raise must append nothing."""
        before = len(self.ledger.blocks)
        if raises is None:
            write()
        else:
            with pytest.raises(raises):
                write()
        assert len(self.ledger.blocks) == before + count

    @rule(x=st.sampled_from(DIGESTS), y=st.sampled_from(SEALED))
    def issue_token(self, x, y):
        record = TokenRecord(x=x, y=y)
        self.appends(1, lambda: self.ledger.append(record))
        self.tokens[x] = record

    @rule(x=st.sampled_from(DIGESTS))
    def revoke_token(self, x):
        current = self.tokens.get(x)
        if current is None:
            self.appends(0, lambda: self.ledger.revoke_token(x), raises=ValueError)
            return
        self.appends(0 if current.revoked else 1,
                     lambda: self.ledger.revoke_token(x))
        self.tokens[x] = current._replace(revoked=True)

    @rule(uid=st.sampled_from(CARD_UIDS), ax=st.sampled_from(DIGESTS))
    def put_card(self, uid, ax):
        card = BASE_CARD._replace(card_uid=uid, ax_ui=ax)
        height = len(self.ledger.blocks)
        assert self.ledger.put_card(card) == height
        self.cards[uid] = card

    @rule(h=st.sampled_from(DIGESTS), user=st.sampled_from(USERS))
    def add_identity(self, h, user):
        record = IdentityIndex(h_dtid=h, user_id=user)
        if self.live.get(user, h) != h or self.idents.get(h, user) != user:
            # the user has another live index, or h is another user's
            self.appends(0, lambda: self.ledger.append(record), raises=ValueError)
            return
        self.appends(1, lambda: self.ledger.append(record))
        self.idents[h], self.live[user] = user, h

    @rule(old=st.sampled_from(DIGESTS), new=st.sampled_from(DIGESTS),
          user=st.sampled_from(USERS))
    def replace_index(self, old, new, user):
        write = lambda: self.ledger.replace_index(old, new, user)   # noqa: E731
        if self.idents.get(old) != user:
            self.appends(0, write, raises=ValueError)
            return
        if self.idents.get(new, user) != user:        # new is another user's
            self.appends(0, write, raises=ValueError)
            return
        self.appends(2, write)
        del self.idents[old]
        self.idents[new], self.live[user] = user, new

    def assert_lookups(self, ledger: Ledger) -> None:
        for x in DIGESTS:
            token = self.tokens.get(x)
            assert ledger.get_token(x) == token
            assert ledger.get_identity(x) == self.idents.get(x)
            live_token = token is not None and not token.revoked
            assert ledger.any_digest(x) == (live_token or x in self.idents)
        for user in USERS:
            assert ledger.live_index_for(user) == self.live.get(user)
        for uid in CARD_UIDS:
            assert ledger.get_card(uid) == self.cards.get(uid)
        assert ledger.verify_chain()

    @invariant()
    def lookups_match_the_model(self):
        self.assert_lookups(self.ledger)

    @invariant()
    def export_rebuilds_the_same_lookups(self):
        lines = self.ledger.export_lines()
        rebuilt = Ledger.from_lines(lines)
        assert rebuilt.export_lines() == lines
        self.assert_lookups(rebuilt)


LedgerModel.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                         deadline=None)
test_ledger_matches_dict_model = LedgerModel.TestCase
