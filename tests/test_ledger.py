"""Ledger tests: append-only behavior, latest-wins supersession,
tamper evidence, and export/import."""

import pytest

from l2ai.ledger import (
    BlockAddress, CardRecord, IdentityIndex, Ledger, NotFound,
    SmartCard, TokenRecord, parse_record,
)
from l2ai.primitives import Digest160, PrimitiveOps, seal


def make_ops(seed=0):
    return PrimitiveOps(seed=seed)


def sample_token(ops) -> TokenRecord:
    t_g = ops.rand_digest()
    key = ops.rand_digest()
    return TokenRecord(x=ops.hash(t_g.value), y=seal(key, t_g.value, ops.rng.randbytes(16)))


def sample_card(ops) -> SmartCard:
    _, helper = ops.fe_gen(ops.rand_template())
    d = ops.rand_digest
    return SmartCard(e_i=d(), f_i=d(), eid_i=d(), r_hms=d(), hid_hms=d(),
                     ax_ui=d(), tau=helper, card_uid=d())


def test_chain_links_and_verifies():
    ops, ledger = make_ops(), Ledger()
    for _ in range(5):
        ledger.append(sample_token(ops))
    assert [b.height for b in ledger.blocks] == list(range(5))
    assert ledger.blocks[0].prev_digest == Digest160.zero()
    for prev, block in zip(ledger.blocks, ledger.blocks[1:]):
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


def test_token_revocation_is_append_only():
    ops, ledger = make_ops(2), Ledger()
    token = sample_token(ops)
    ledger.append(token)
    assert ledger.any_digest(token.x)
    before = len(ledger.blocks)
    ledger.revoke_token(token.x)
    assert not ledger.any_digest(token.x)
    assert len(ledger.blocks) == before + 1      # tombstone appended, nothing rewritten
    assert ledger.blocks[before - 1].record == token
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
    with pytest.raises(NotFound):
        ledger.get_identity(old_h)
    # replacing the dead index again must fail
    with pytest.raises(NotFound):
        ledger.replace_index(old_h, ops.rand_digest(), user_id)
    assert ledger.verify_chain()


def test_card_latest_version_wins():
    ops, ledger = make_ops(4), Ledger()
    card = sample_card(ops)
    addr = ledger.put_card(card)
    assert addr == BlockAddress(height=0, card_uid=card.card_uid)
    assert ledger.get_card(card.card_uid) == card

    from dataclasses import replace
    newer = replace(card, ax_ui=ops.rand_digest())
    ledger.put_card(newer)
    assert ledger.get_card(card.card_uid) == newer
    assert ledger.verify_chain()


def test_block_address_roundtrip():
    ops = make_ops(5)
    addr = BlockAddress(height=7, card_uid=ops.rand_digest())
    assert BlockAddress.from_bytes(addr.to_bytes()) == addr


def test_queries_raise_not_found():
    ops, ledger = make_ops(6), Ledger()
    ghost = ops.rand_digest()
    assert not ledger.any_digest(ghost)
    with pytest.raises(NotFound):
        ledger.get_identity(ghost)
    with pytest.raises(NotFound):
        ledger.get_token(ghost)
    with pytest.raises(NotFound):
        ledger.get_card(ghost)
    with pytest.raises(NotFound):
        ledger.revoke_token(ghost)
    with pytest.raises(NotFound):
        ledger.replace_index(ghost, ghost, ghost)


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
    assert parse_record(CardRecord(card=card).serialize()).card == card


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

    def scan(x: Digest160) -> bool:
        latest = {}
        for block in ledger.blocks:
            record = block.record
            if isinstance(record, TokenRecord):
                latest[("t", record.x.value)] = not record.revoked
            elif isinstance(record, IdentityIndex):
                latest[("i", record.h_dtid.value)] = record.superseded_by is None
        return latest.get(("t", x.value), False) or latest.get(("i", x.value), False)

    for x in tracked + [ops.rand_digest() for _ in range(5)]:
        assert ledger.any_digest(x) == scan(x)

    # the identity index holds live records only, not one per supersede
    live = {}
    for block in ledger.blocks:
        if isinstance(block.record, IdentityIndex):
            live[block.record.h_dtid.value] = block.record.superseded_by is None
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


@pytest.mark.parametrize("size", [0, 1, 7])
def test_block_address_short_input_is_value_error(size):
    with pytest.raises(ValueError):
        BlockAddress.from_bytes(bytes(size))


@pytest.mark.parametrize("payload_hex", ["02" + "00" * 19, "01" + "00" * 20])
def test_import_keeps_short_payload_blocks_for_the_chain_check(payload_hex):
    ops, ledger = make_ops(10), Ledger()
    for _ in range(3):
        ledger.append(sample_token(ops))
    lines = ledger.export_lines()
    height, prev_hex, kind, _payload, digest_hex = lines[1].split()
    lines[1] = f"{height} {prev_hex} {kind} {payload_hex} {digest_hex}"
    imported = Ledger.from_lines(lines)
    assert imported.blocks[1].record is None
    assert not imported.verify_chain()
