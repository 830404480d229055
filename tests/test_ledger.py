"""Ledger tests: append-only behavior, latest-wins supersession,
tamper evidence, and export/import."""

from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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


# --- the ledger against a dict model --------------------------------------------

# Small pools, so that digests repeat: tokens and identity indexes share the
# digest pool (any_digest looks up both namespaces) and users compete for it.
DIGESTS = [Digest160(bytes([i]) * 20) for i in range(1, 6)]
USERS = [Digest160(bytes([0x80 + i]) * 20) for i in range(3)]
CARD_UIDS = [Digest160(bytes([0xC0 + i]) * 20) for i in range(2)]
SEALED = [seal(Digest160(bytes(20)), bytes([i]), bytes(16)) for i in range(3)]
BASE_CARD = sample_card(make_ops(11))


class LedgerModel(RuleBasedStateMachine):
    """Each rule applies one write to the Ledger and to plain dicts; after
    every step the latest-wins lookups of the ledger, and of a ledger
    rebuilt from its export, must agree with the dicts."""

    def __init__(self):
        super().__init__()
        self.ledger = Ledger()
        self.tokens: dict[Digest160, TokenRecord] = {}   # latest record per x
        self.idents: dict[Digest160, Digest160] = {}     # live h -> user
        self.live: dict[Digest160, Digest160] = {}       # user -> live h
        self.cards: dict[Digest160, SmartCard] = {}      # latest card per uid

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
            self.appends(0, lambda: self.ledger.revoke_token(x), raises=NotFound)
            return
        self.appends(0 if current.revoked else 1,
                     lambda: self.ledger.revoke_token(x))
        self.tokens[x] = replace(current, revoked=True)

    @rule(uid=st.sampled_from(CARD_UIDS), ax=st.sampled_from(DIGESTS))
    def put_card(self, uid, ax):
        card = replace(BASE_CARD, card_uid=uid, ax_ui=ax)
        height = len(self.ledger.blocks)
        assert self.ledger.put_card(card) == BlockAddress(height=height, card_uid=uid)
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
            self.appends(0, write, raises=NotFound)
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
            if token is None:
                with pytest.raises(NotFound):
                    ledger.get_token(x)
            else:
                assert ledger.get_token(x) == token
            if x in self.idents:
                assert ledger.get_identity(x) == self.idents[x]
            else:
                with pytest.raises(NotFound):
                    ledger.get_identity(x)
            live_token = token is not None and not token.revoked
            assert ledger.any_digest(x) == (live_token or x in self.idents)
        for user in USERS:
            assert ledger.live_index_for(user) == self.live.get(user)
        for uid in CARD_UIDS:
            if uid in self.cards:
                assert ledger.get_card(uid) == self.cards[uid]
            else:
                with pytest.raises(NotFound):
                    ledger.get_card(uid)
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
