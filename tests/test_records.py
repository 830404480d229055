"""Record contract: the per-message records are immutable, hashable
NamedTuples whose new versions are new records, and every wire or
ledger record decodes back from its own bytes. The chain links and every
protocol value a run keeps are raw 20-byte bytes; a token record's sealed
token is its envelope's raw bytes."""

import pytest

from l2ai.channel import parse_scenario
from l2ai.harness import HONEST_SCENARIO, World, run_scenario
from l2ai.ledger import (
    IdentityIndex, Ledger, LedgerBlock, SmartCard, TokenRecord,
    parse_record,
)
from l2ai.primitives import WIDTH, PrimitiveOps, seal
from l2ai.protocol import Msg1, Msg2, ProvisionalCard, RegRequest, UserSession

_ops = PrimitiveOps(seed=40)
_d = _ops.rand_digest
_SEALED = seal(_d(), b"token bytes", _ops.rng.randbytes(16))
_CARD = SmartCard(_d(), _d(), _d(), _d(), _d(), _d(),
                  _ops.fe_gen(_ops.rand_template())[1], _d())

# one sample of each record: (record, a field, another value for it)
RECORDS = {
    "SmartCard": (_CARD, "ax_ui", _d()),
    "TokenRecord": (TokenRecord(_d(), _SEALED), "revoked", True),
    "IdentityIndex": (IdentityIndex(_d(), _d()), "superseded_by", _d()),
    "HelperData": (_CARD.tau, "check", _d()),
    "UserSession": (UserSession(_d(), _d()), "w1", _d()),
    "RegRequest": (RegRequest(_d(), _d(), _d()), "pwd", _d()),
    "ProvisionalCard": (ProvisionalCard(_d(), _d(), _d(), _d(), _d()), "k_i", _d()),
    "Msg1": (Msg1(100, _d(), _d(), _d()), "m1", _d()),
    "Msg2": (Msg2(_d(), _d(), 150), "t2", 151),
}

# how each wire or ledger record is decoded from its own bytes
DECODERS = {
    "SmartCard": (SmartCard.serialize, parse_record),
    "TokenRecord": (TokenRecord.serialize, parse_record),
    "IdentityIndex": (IdentityIndex.serialize, parse_record),
    "RegRequest": (RegRequest.to_bytes, RegRequest.from_bytes),
    "ProvisionalCard": (ProvisionalCard.to_bytes, ProvisionalCard.from_bytes),
    "Msg1": (Msg1.to_bytes, Msg1.from_bytes),
    "Msg2": (Msg2.to_bytes, Msg2.from_bytes),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_set(name):
    record, field, value = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = value


@pytest.mark.parametrize("name", RECORDS)
def test_replace_returns_a_new_record_and_keeps_the_original(name):
    record, field, value = RECORDS[name]
    before = tuple(record)
    newer = record._replace(**{field: value})
    assert type(newer) is type(record)
    assert getattr(newer, field) == value
    assert newer != record
    assert tuple(record) == before
    assert getattr(record, field) != value
    others = [f for f in record._fields if f != field]
    assert all(getattr(newer, f) is getattr(record, f) for f in others)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_hashable(name):
    record, _, _ = RECORDS[name]
    twin = record._replace()
    assert twin is not record
    assert hash(twin) == hash(record)
    assert {record: name}[twin] == name


@pytest.mark.parametrize("name", DECODERS)
def test_wire_records_round_trip(name):
    record, _, _ = RECORDS[name]
    encode, decode = DECODERS[name]
    decoded = decode(encode(record))
    assert type(decoded) is type(record)
    assert decoded == record


def _ledger(count: int = 4) -> Ledger:
    ops, ledger = PrimitiveOps(seed=41), Ledger()
    for _ in range(count):
        ledger.append(TokenRecord(ops.rand_digest(), ops.enc(ops.rand_digest(), b"t")))
    return ledger


def test_chain_links_are_raw_bytes():
    ledger = _ledger()
    for record in ledger.blocks:
        block = LedgerBlock.from_record(record)
        assert type(block.prev_digest) is bytes and len(block.prev_digest) == 20
        assert type(block.block_digest) is bytes and len(block.block_digest) == 20
    assert ledger.verify_chain()


def test_every_kept_protocol_value_is_raw_20_bytes():
    world = World(seed=42)
    assert run_scenario(world, parse_scenario(HONEST_SCENARIO)).ok
    ledger = world.ledger
    groups = {
        "card fields": [value for card in ledger._cards.values()
                        for value in (*card[:6], card.card_uid, card.tau.check)],
        "card lookup keys": list(ledger._cards),
        "identity lookup": [v for item in ledger._idents.items() for v in item],
        "live-by-user lookup": [v for item in ledger._live_by_user.items() for v in item],
        "token lookup keys": list(ledger._tokens),
        "token x": [token.x for token in ledger._tokens.values()],
        "session keys": [sk for s in world.sessions for sk in (s.sk_user, s.sk_server)],
        "gateway card ids": [gateway.creds.user_id for gateway in world.users.values()],
    }
    for name, values in groups.items():
        assert values, name
        assert all(type(v) is bytes and len(v) == WIDTH for v in values), name
    assert all(uid in ledger._cards for uid in groups["gateway card ids"])
    # each sealed token is one envelope: nonce, length, 20-byte body, tag
    assert all(type(token.y) is bytes and len(token.y) == 16 + 4 + WIDTH + WIDTH
               for token in ledger._tokens.values())
