"""Primitive-layer tests: frozen hash vectors, cipher authentication,
sketch tolerance, clock and counter behavior."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from l2ai.primitives import (
    WIDTH, BIO_WIDTH, FE_BLOCKS, FE_PAD_BIT, OP_KEYS,
    AuthFailure, RecoveryFailure,
    BioTemplate, PrimitiveOps, Rng, SimClock,
    gen_sketch, is_fresh, open_sealed, recover_key,
    repetition_decode, repetition_encode, seal, sha256_160, split_sealed,
)
from l2ai.ledger import (
    CARD_TAG, IDENT_TAG, IdentityIndex, Ledger, SmartCard, TokenRecord, parse_record,
)
from l2ai.protocol import (
    MSG1_WIDTH, MSG2_WIDTH, PROVISIONAL_WIDTH, REG_REQUEST_WIDTH,
    Msg1, Msg2, ProvisionalCard, RegRequest,
)

# SHA-256 of the classic public test strings, truncated to 160 bits.
KNOWN_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a3"),
    (b"The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e4"),
]


@pytest.mark.parametrize("data,expected", KNOWN_VECTORS)
def test_hash_truncation_vectors(data, expected):
    assert sha256_160(data).hex() == expected
    ops = PrimitiveOps(seed=0)
    assert ops.hash(data).hex() == expected


def test_rng_matches_the_stdlib_generator():
    for seed in range(200):
        for s in (seed, seed ^ 0x5EED):     # an entity's seed, and its credential draw's
            ours, ref = Rng(s), random.Random(s)
            for _ in range(2):
                assert ours.randbytes(16) == ref.randbytes(16)
                assert ours.randbytes(20) == ref.randbytes(20)
                assert ours.randbytes(32) == ref.randbytes(32)
                assert ours.getrandbits(FE_BLOCKS) == ref.getrandbits(FE_BLOCKS)


def test_rng_has_no_instance_dict_and_restores_its_state():
    rng = Rng(7)
    assert not hasattr(rng, "__dict__")
    with pytest.raises(AttributeError):
        rng.gauss_next = None
    state = rng.getstate()
    first = (rng.randbytes(20), rng.getrandbits(FE_BLOCKS))
    rng.setstate(state)
    assert (rng.randbytes(20), rng.getrandbits(FE_BLOCKS)) == first


def test_primitive_ops_has_no_instance_dict():
    # every entity holds one, so a run keeps one per party alive
    ops = PrimitiveOps(1)
    assert not hasattr(ops, "__dict__")
    with pytest.raises(AttributeError):
        ops.extra = None


_DRAWS = ("rand_digest", "rand_template", "fe_gen", "enc", "release")


@given(st.integers(0, 2**64 - 1), st.lists(st.sampled_from(_DRAWS), max_size=24))
@example(0, ["release", "rand_digest", "release", "release", "enc", "fe_gen"])
def test_a_released_generator_replays_its_stream(seed, steps):
    kept, released = PrimitiveOps(seed), PrimitiveOps(seed)
    bio, key = BioTemplate(bytes(BIO_WIDTH)), bytes(WIDTH)

    def draw(ops, step):
        if step == "fe_gen":
            return ops.fe_gen(bio)
        if step == "enc":
            return ops.enc(key, b"token bytes")     # the nonce decides it
        return getattr(ops, step)()

    for step in steps:
        if step == "release":
            released.release()
        else:
            assert draw(released, step) == draw(kept, step)
    assert (released.counts, released.drawn) == (kept.counts, kept.drawn)
    fresh = PrimitiveOps(seed)
    assert fresh.rng is None                        # its first draw builds it
    assert fresh.rand_digest() == random.Random(seed).randbytes(WIDTH)


@given(st.binary(max_size=200))
def test_hash_width_and_determinism(data):
    a = sha256_160(data)
    assert len(a) == WIDTH
    assert a == sha256_160(data)


def test_hash_distinctness_smoke():
    # 10k distinct random inputs must produce 10k distinct outputs.
    rng = Rng(17)
    inputs = {rng.randbytes(24) for _ in range(10_000)}
    assert len(inputs) == 10_000
    assert len({sha256_160(x) for x in inputs}) == 10_000


def test_hash_output_bit_balance():
    # Statistical smoke check: over many random inputs the output bits
    # should sit near 50% ones, within 3 sigma of the binomial expectation.
    rng = Rng(23)
    total_bits = 10_000 * WIDTH * 8
    ones = 0
    for _ in range(10_000):
        digest = sha256_160(rng.randbytes(16))
        ones += bin(int.from_bytes(digest, "big")).count("1")
    sigma = 0.5 * total_bits ** 0.5
    assert abs(ones - total_bits / 2) < 3 * sigma


def test_digest_width_enforced():
    # a 19- or 21-byte digest is refused where it enters: as the key check
    # of a card's helper data, and as a chain link of an imported ledger
    ops, ledger = PrimitiveOps(seed=32), Ledger()
    ledger.append(TokenRecord(x=ops.rand_digest(), y=ops.enc(ops.rand_digest(), b"t")))
    height, prev_hex, rest = ledger.export_lines()[0].split(" ", 2)
    for size in (WIDTH - 1, WIDTH + 1):
        with pytest.raises(ValueError):
            parse_card(bytes(6 * WIDTH + BIO_WIDTH + size + WIDTH))
        with pytest.raises(ValueError, match="chain link must be 20 bytes"):
            Ledger.from_lines([f"{height} {bytes(size).hex()} {rest}"])


digests = st.binary(min_size=WIDTH, max_size=WIDTH)
xor = PrimitiveOps(seed=0).xor


@given(digests, digests)
def test_xor_matches_bytewise_reference(a, b):
    assert xor(a, b) == bytes(x ^ y for x, y in zip(a, b))


@given(digests, digests, digests)
def test_xor_algebra(a, b, c):
    zero = bytes(WIDTH)
    assert xor(a, a) == zero
    assert xor(a, zero) == a
    assert xor(xor(a, b), b) == a
    assert xor(a, b) == xor(b, a)
    assert xor(xor(a, b), c) == xor(a, xor(b, c))


# --- widths are checked where values enter -------------------------------------

def parse_card(body: bytes) -> SmartCard:
    """`parse_record` on the card payload whose fields after the tag are `body`."""
    return parse_record(bytes([CARD_TAG]) + body)


def parse_identity(body: bytes) -> IdentityIndex:
    """`parse_record` on the identity payload whose fields after the tag are `body`."""
    return parse_record(bytes([IDENT_TAG]) + body)


WIRE_DECODERS = [
    (RegRequest.from_bytes, REG_REQUEST_WIDTH),
    (ProvisionalCard.from_bytes, PROVISIONAL_WIDTH),
    (Msg1.from_bytes, MSG1_WIDTH),
    (Msg2.from_bytes, MSG2_WIDTH),
    (parse_identity, 3 * WIDTH + 1),                        # two digests, flag, marker
    (parse_card, 6 * WIDTH + (BIO_WIDTH + WIDTH) + WIDTH),   # + helper, card id
]


# a wire decoder is the shared `_from_bytes`; its id is the name each class
# binds it to
@pytest.mark.parametrize("decode,width", WIRE_DECODERS,
                         ids=lambda v: None if isinstance(v, int) else v.__name__.lstrip("_"))
@given(st.data())
@settings(max_examples=25)
def test_wire_decoders_reject_wrong_width(decode, width, data):
    decode(bytes(width))
    size = data.draw(st.integers(min_value=8, max_value=2 * width).filter(lambda n: n != width))
    with pytest.raises(ValueError):
        decode(data.draw(st.binary(min_size=size, max_size=size)))


def test_parse_record_rejects_short_digests():
    ops = PrimitiveOps(seed=30)
    token = TokenRecord(x=ops.rand_digest(), y=ops.enc(ops.rand_digest(), b"t"))
    ident = IdentityIndex(h_dtid=ops.rand_digest(), user_id=ops.rand_digest(),
                          superseded_by=ops.rand_digest())
    for payload in (token.serialize()[:WIDTH], ident.serialize()[:-1]):
        with pytest.raises(ValueError):
            parse_record(payload)


@given(st.binary(max_size=2 * WIDTH).filter(lambda raw: len(raw) != WIDTH),
       st.sampled_from(["prev", "block"]))
def test_from_hex_rejects_wrong_width(raw, link):
    # a chain link enters as hex, in an exported line
    ops, ledger = PrimitiveOps(seed=33), Ledger()
    ledger.append(TokenRecord(x=ops.rand_digest(), y=ops.enc(ops.rand_digest(), b"t")))
    height, prev_hex, kind, payload_hex, digest_hex = ledger.export_lines()[0].split()
    if link == "prev":
        prev_hex = raw.hex()
    else:
        digest_hex = raw.hex()
    with pytest.raises(ValueError, match="line 1"):
        Ledger.from_lines([f"{height} {prev_hex} {kind} {payload_hex} {digest_hex}"])


def test_ledger_import_never_accepts_short_prev_digest():
    ops, ledger = PrimitiveOps(seed=31), Ledger()
    for _ in range(3):
        ledger.append(TokenRecord(x=ops.rand_digest(), y=ops.enc(ops.rand_digest(), b"t")))
    lines = ledger.export_lines()
    height, prev_hex, rest = lines[1].split(" ", 2)
    lines[1] = f"{height} {prev_hex[:-2]} {rest}"          # 19-byte prev digest
    try:
        imported = Ledger.from_lines(lines)
    except ValueError:
        return
    assert not imported.verify_chain()


# --- cipher ---------------------------------------------------------------------

@given(st.binary(min_size=WIDTH, max_size=WIDTH),
       st.binary(max_size=120))
@settings(max_examples=60)
def test_cipher_roundtrip(key, plaintext):
    ops = PrimitiveOps(seed=1)
    ct = ops.enc(key, plaintext)
    assert ops.dec(key, ct) == plaintext


def test_cipher_empty_plaintext():
    ops = PrimitiveOps(seed=2)
    key = ops.rand_digest()
    assert ops.dec(key, ops.enc(key, b"")) == b""


def test_cipher_fresh_nonce_each_call():
    ops = PrimitiveOps(seed=3)
    key = ops.rand_digest()
    c1, c2 = ops.enc(key, b"payload"), ops.enc(key, b"payload")
    assert c1 != c2
    assert split_sealed(c1)[0] != split_sealed(c2)[0]


def test_cipher_rejects_wrong_key():
    ops = PrimitiveOps(seed=4)
    ct = ops.enc(ops.rand_digest(), b"secret")
    with pytest.raises(AuthFailure):
        ops.dec(ops.rand_digest(), ct)


def test_cipher_every_byte_authenticated():
    ops = PrimitiveOps(seed=5)
    key = ops.rand_digest()
    raw = ops.enc(key, b"twenty byte messages")
    for i in range(len(raw)):
        for bit in range(8):
            broken = bytearray(raw)
            broken[i] ^= 1 << bit
            with pytest.raises((AuthFailure, ValueError)):
                open_sealed(key, bytes(broken))


def test_cipher_matches_reference_bytes():
    # Same key/nonce/plaintext must produce byte-identical envelopes in the
    # package and in the straight-line reference.
    ops = PrimitiveOps(seed=6)
    key = ops.rand_digest()
    nonce = ops.rng.randbytes(16)
    plaintext = ops.rng.randbytes(20)
    assert seal(key, plaintext, nonce) == oracle.seal(key, nonce, plaintext)


# Known-answer envelopes (key bytes 0..19, nonce bytes 100..115), recorded
# with a byte-by-byte keystream XOR.
SEAL_VECTORS = [
    (b"", "6465666768696a6b6c6d6e6f707172730000000078d67825da8776b8bc498df4"
          "6cad6bbcb1e871d6"),
    (b"L2AI known-answer plaintext spanning two keystream blocks!",
     "6465666768696a6b6c6d6e6f707172730000003a874629f11554b7f1ee863540c6"
     "5b64f55799eeb7d58b8351258d4f3b4e71b5bf2339cdab53762ac147f02f53c52a"
     "c9efbbbc0bb3d3a04fcd1a0e400719e8c11afca32a1b374233051179ed790eae"),
]


@pytest.mark.parametrize("plaintext,expected", SEAL_VECTORS)
def test_cipher_known_answer(plaintext, expected):
    key, nonce = bytes(range(20)), bytes(range(100, 116))
    assert seal(key, plaintext, nonce).hex() == expected
    assert open_sealed(key, bytes.fromhex(expected)) == plaintext


def test_ciphertext_envelope_roundtrip():
    # the envelope splits into its three fields and joins back to itself
    ops = PrimitiveOps(seed=7)
    sealed = ops.enc(ops.rand_digest(), b"roundtrip me")
    nonce, body, tag = split_sealed(sealed)
    assert (len(nonce), len(body), len(tag)) == (16, 12, WIDTH)
    assert nonce + len(body).to_bytes(4, "big") + body + tag == sealed


# --- biometric sketch -------------------------------------------------------------

def test_sketch_roundtrip_exact():
    ops = PrimitiveOps(seed=8)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    assert ops.fe_rep(bio, helper) == sigma


def test_sketch_distinct_keys_across_seeds():
    bio = PrimitiveOps(seed=9).rand_template()
    keys = set()
    for seed in range(100):
        sigma, _ = PrimitiveOps(seed=1000 + seed).fe_gen(bio)
        keys.add(sigma)
    assert len(keys) == 100


def test_sketch_offset_is_masked_codeword():
    # Offset XOR template reveals exactly the codeword of the key message.
    ops = PrimitiveOps(seed=10)
    bio = ops.rand_template()
    message = ops.rng.getrandbits(FE_BLOCKS)
    sigma, helper = gen_sketch(bio, message)
    word = int.from_bytes(helper[:BIO_WIDTH], "big") ^ int.from_bytes(bio.value, "big")
    assert word == repetition_encode(message)
    assert repetition_decode(word) == message
    assert sigma == oracle.fe_key(message)
    assert helper[:BIO_WIDTH] == oracle.fe_offset(bio.value, message)


@given(st.binary(min_size=BIO_WIDTH, max_size=BIO_WIDTH), st.integers(0, 2 ** FE_BLOCKS - 1))
def test_helper_data_leaks_all_but_the_message_bits(template, message):
    # The public helper data is offset ‖ h(sigma). Each 5-bit block of the
    # offset is the template's block or its complement, and the pad bit is
    # the template's own, so a ledger reader is left 2**51 guesses: one per
    # message, each checked against h(sigma) with no reading of the biometric.
    sigma, helper = gen_sketch(BioTemplate(template), message)
    assert type(helper) is bytes and len(helper) == BIO_WIDTH + WIDTH
    offset, bio = int.from_bytes(helper[:BIO_WIDTH], "big"), int.from_bytes(template, "big")
    for j in range(FE_BLOCKS):
        block = (bio >> 5 * j) & 0b11111
        assert (offset >> 5 * j) & 0b11111 in (block, block ^ 0b11111)
    assert offset >> FE_PAD_BIT == bio >> FE_PAD_BIT
    assert helper[BIO_WIDTH:] == sha256_160(sigma)


def exact_false_reject_rate(p: float) -> float:
    """1 - (1 - P[>= 3 of a block's 5 bits flip]) ** FE_BLOCKS"""
    block = sum(math.comb(5, k) * p ** k * (1 - p) ** (5 - k) for k in range(3, 6))
    return 1 - (1 - block) ** FE_BLOCKS


@pytest.mark.parametrize("p, rate", [(0.02, 0.004), (0.05, 0.057), (0.10, 0.355),
                                     (0.20, 0.952)])
def test_false_reject_rate_agrees_with_a_seeded_monte_carlo(p, rate):
    # each of the 256 template bits flips independently with probability p
    exact = exact_false_reject_rate(p)
    assert exact == pytest.approx(rate, abs=5e-4)
    ops = PrimitiveOps(seed=18)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    noise = random.Random(round(100 * p))
    trials, rejects = 2000, 0
    for _ in range(trials):
        flips = [pos for pos in range(BIO_WIDTH * 8) if noise.random() < p]
        try:
            assert recover_key(bio.with_flips(flips), helper) == sigma
        except RecoveryFailure:
            rejects += 1
    sd = math.sqrt(trials * exact * (1 - exact))       # binomial standard deviation
    assert abs(rejects - trials * exact) <= 4 * sd, rejects


def test_sketch_single_flips_all_recover():
    ops = PrimitiveOps(seed=11)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    for pos in range(BIO_WIDTH * 8):
        assert recover_key(bio.with_flips([pos]), helper) == sigma


def test_sketch_double_flips_within_block_recover():
    ops = PrimitiveOps(seed=12)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    for block in range(FE_BLOCKS):
        base = 5 * block
        for i in range(5):
            for j in range(i + 1, 5):
                noisy = bio.with_flips([base + i, base + j])
                assert recover_key(noisy, helper) == sigma


def test_sketch_pad_bit_flip_tolerated():
    ops = PrimitiveOps(seed=13)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    assert recover_key(bio.with_flips([FE_PAD_BIT]), helper) == sigma


def test_sketch_three_flips_in_one_block_detected():
    ops = PrimitiveOps(seed=14)
    bio = ops.rand_template()
    _, helper = ops.fe_gen(bio)
    noisy = bio.with_flips([10, 11, 12])  # all inside block 2
    with pytest.raises(RecoveryFailure):
        recover_key(noisy, helper)


@given(st.integers(min_value=0, max_value=2 ** 32), st.data())
@settings(max_examples=80)
def test_sketch_recovers_under_any_in_budget_pattern(seed, data):
    # Arbitrary noise with at most 2 flips per 5-bit block (pad bit free).
    ops = PrimitiveOps(seed=seed)
    bio = ops.rand_template()
    sigma, helper = ops.fe_gen(bio)
    flips = []
    for block in data.draw(st.sets(st.integers(0, FE_BLOCKS - 1), max_size=12)):
        offsets = data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=2))
        flips.extend(5 * block + off for off in offsets)
    if data.draw(st.booleans()):
        flips.append(FE_PAD_BIT)
    assert recover_key(bio.with_flips(flips), helper) == sigma


def majority_decode_reference(word: int) -> int:
    return sum(1 << j for j in range(FE_BLOCKS)
               if bin((word >> (5 * j)) & 0b11111).count("1") >= 3)


@given(st.integers(min_value=0, max_value=2 ** (BIO_WIDTH * 8) - 1))
def test_repetition_decode_matches_popcount_majority(word):
    # arbitrary words, not only codewords with a few flips; bit 255 is padding
    assert repetition_decode(word) == majority_decode_reference(word)


def repetition_encode_reference(message: int) -> int:
    codeword = 0
    for j in range(FE_BLOCKS):
        if (message >> j) & 1:
            codeword |= 0b11111 << (5 * j)
    return codeword


@given(st.integers(min_value=0, max_value=2 ** FE_BLOCKS - 1))
@example(0)
@example(2 ** FE_BLOCKS - 1)
def test_repetition_encode_matches_per_block_loop(message):
    codeword = repetition_encode(message)
    assert codeword == repetition_encode_reference(message)
    assert codeword < 1 << FE_PAD_BIT        # the pad bit stays clear
    assert repetition_decode(codeword) == message


def test_helper_data_serialization_roundtrip():
    # the helper data is serialized as one 52-byte field of its card's payload
    ops = PrimitiveOps(seed=15)
    _, helper = ops.fe_gen(ops.rand_template())
    card = SmartCard(*(ops.rand_digest() for _ in range(6)), helper, ops.rand_digest())
    assert parse_record(card.serialize()).tau == helper


# --- clock, freshness, counters ----------------------------------------------------

def test_clock_monotonic():
    clock = SimClock()
    clock.advance_to(50)
    clock.advance(25)
    assert clock.now() == 75
    with pytest.raises(ValueError):
        clock.advance_to(74)


def test_freshness_window():
    assert is_fresh(100, 98, 2)
    assert is_fresh(98, 100, 2)
    assert not is_fresh(100, 97, 2)
    assert not is_fresh(97, 100, 2)
    assert is_fresh(100, 100, 0)


def test_counters_track_calls_exactly():
    ops = PrimitiveOps(seed=16)
    for _ in range(5):
        ops.hash(b"x")
    a, b = ops.rand_digest(), ops.rand_digest()
    ops.xor(a, b)
    assert ops.counts == {"hash": 5, "xor": 1, "enc": 0, "dec": 0, "fe": 0}

    before = ops.counts.copy()
    key = ops.rand_digest()
    ops.dec(key, ops.enc(key, b"p"))
    bio = ops.rand_template()
    _, helper = ops.fe_gen(bio)
    ops.fe_rep(bio, helper)
    # cipher and sketch internals must not leak into the hash count
    delta = {k: ops.counts[k] - before[k] for k in OP_KEYS}
    assert delta == {"hash": 0, "xor": 0, "enc": 1, "dec": 1, "fe": 2}


def test_seeded_ops_are_reproducible():
    a, b = PrimitiveOps(seed=99), PrimitiveOps(seed=99)
    assert [a.rand_digest() for _ in range(5)] == [b.rand_digest() for _ in range(5)]
    key = bytes(WIDTH)
    assert a.enc(key, b"m") == b.enc(key, b"m")
