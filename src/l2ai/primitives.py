"""Core primitives: fixed-width digests, instrumented crypto operations,
the biometric sketch, and the simulated clock.

Width conventions used across the package:

* protocol values are 160-bit (20-byte) digests; XOR is defined only
  between equal widths
* timestamps are integer milliseconds of simulated time, packed as 8-byte
  big-endian when they enter a hash or a wire message
* biometric templates are 256-bit (32-byte) strings
* hash core is SHA-256 truncated to its first 160 bits

Widths are checked where values enter the system: the public constructors
(``Digest160(raw)``, ``Digest160.from_hex``) and every wire or ledger
``from_bytes``/``parse_record`` reject a wrong width with ``ValueError``.
Values derived inside the package (hash outputs, XORs, sketch keys, random
draws, block digests) have their width by construction and are built
unchecked.

Operation counters track protocol-level invocations only. Internal hashing
done by the sketch, the cipher keystream, or the ledger's chain maintenance
goes through the uncounted core on purpose: the per-phase cost figures the
harness reports are defined as the number of primitive calls the protocol
itself makes, and would be meaningless if implementation details leaked in.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
from dataclasses import dataclass

WIDTH = 20          # bytes per protocol digest
BIO_WIDTH = 32      # bytes per biometric template
NONCE_WIDTH = 16


class AuthFailure(Exception):
    """Ciphertext failed authentication (corrupted or wrong key)."""


class RecoveryFailure(Exception):
    """Sketch decoder detected noise beyond the correctable budget."""


def sha256_160(data: bytes) -> bytes:
    """Uncounted hash core, raw bytes in and out."""
    return hashlib.sha256(data).digest()[:WIDTH]


def pack_ts(t: int) -> bytes:
    return struct.pack(">Q", t)


def unpack_ts(raw: bytes) -> int:
    return struct.unpack(">Q", raw)[0]


class Digest160:
    """A 160-bit protocol value. Equality and XOR are bitwise; immutable."""

    __slots__ = ("value",)

    def __init__(self, value: bytes):
        if len(value) != WIDTH:
            raise ValueError(f"digest must be {WIDTH} bytes, got {len(value)}")
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("Digest160 is immutable")

    def __delattr__(self, name):
        raise AttributeError("Digest160 is immutable")

    def __reduce__(self):
        return Digest160, (self.value,)

    def __eq__(self, other):
        if other.__class__ is not Digest160:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __xor__(self, other: "Digest160") -> "Digest160":
        return _unchecked_digest((int.from_bytes(self.value, "big") ^
                                  int.from_bytes(other.value, "big")).to_bytes(WIDTH, "big"))

    def __bytes__(self) -> bytes:
        return self.value

    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Digest160":
        return cls(bytes.fromhex(text))

    @classmethod
    def zero(cls) -> "Digest160":
        return cls(b"\x00" * WIDTH)

    def __repr__(self) -> str:
        return f"Digest160({self.value.hex()})"


_set_value = Digest160.value.__set__


def _unchecked_digest(raw: bytes) -> Digest160:
    """Digest160 without the width check, for values that are 20 bytes by
    construction. Anything read from outside goes through Digest160(raw)."""
    digest = object.__new__(Digest160)
    _set_value(digest, raw)
    return digest


@dataclass(frozen=True)
class BioTemplate:
    """A 256-bit biometric template."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != BIO_WIDTH:
            raise ValueError(f"template must be {BIO_WIDTH} bytes, got {len(self.value)}")

    def with_flips(self, positions) -> "BioTemplate":
        """Copy of the template with the given bit positions flipped.

        Bit positions follow the integer convention used by the sketch:
        position 0 is the least significant bit of the big-endian value.
        """
        as_int = int.from_bytes(self.value, "big")
        for p in positions:
            as_int ^= 1 << p
        return BioTemplate(as_int.to_bytes(BIO_WIDTH, "big"))

    def __repr__(self) -> str:
        return f"BioTemplate({self.value.hex()})"


# --- authenticated cipher -----------------------------------------------------
#
# Stream cipher with a MAC, both keyed by hash-stretching the 160-bit key:
#   k_enc = SHA256("enc" || key), k_mac = SHA256("mac" || key)
#   keystream block i = SHA256(k_enc || nonce || i as 8-byte BE)
#   tag = SHA256(k_mac || nonce || len(body) as 8-byte BE || body)[:20]
# The envelope carries the nonce in the clear; decryption verifies the tag
# before releasing any plaintext.

@dataclass(frozen=True)
class Ciphertext:
    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + struct.pack(">I", len(self.body)) + self.body + self.tag

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ciphertext":
        if len(raw) < NONCE_WIDTH + 4 + WIDTH:
            raise ValueError("ciphertext envelope too short")
        nonce = raw[:NONCE_WIDTH]
        (length,) = struct.unpack(">I", raw[NONCE_WIDTH:NONCE_WIDTH + 4])
        body_end = NONCE_WIDTH + 4 + length
        if len(raw) != body_end + WIDTH:
            raise ValueError("ciphertext envelope length mismatch")
        return cls(nonce=nonce, body=raw[NONCE_WIDTH + 4:body_end], tag=raw[body_end:])


def _keystream(k_enc: bytes, nonce: bytes, length: int) -> bytes:
    out = b""
    block = 0
    while len(out) < length:
        out += hashlib.sha256(k_enc + nonce + struct.pack(">Q", block)).digest()
        block += 1
    return out[:length]


def _tag(k_mac: bytes, nonce: bytes, body: bytes) -> bytes:
    return sha256_160(k_mac + nonce + struct.pack(">Q", len(body)) + body)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def seal(key: Digest160, plaintext: bytes, nonce: bytes) -> Ciphertext:
    if len(nonce) != NONCE_WIDTH:
        raise ValueError(f"nonce must be {NONCE_WIDTH} bytes")
    k_enc = hashlib.sha256(b"enc" + key.value).digest()
    k_mac = hashlib.sha256(b"mac" + key.value).digest()
    body = _xor_bytes(plaintext, _keystream(k_enc, nonce, len(plaintext)))
    return Ciphertext(nonce=nonce, body=body, tag=_tag(k_mac, nonce, body))


def open_sealed(key: Digest160, ct: Ciphertext) -> bytes:
    k_enc = hashlib.sha256(b"enc" + key.value).digest()
    k_mac = hashlib.sha256(b"mac" + key.value).digest()
    if not hmac.compare_digest(_tag(k_mac, ct.nonce, ct.body), ct.tag):
        raise AuthFailure("ciphertext tag mismatch")
    return _xor_bytes(ct.body, _keystream(k_enc, ct.nonce, len(ct.body)))


# --- biometric sketch -----------------------------------------------------------
#
# Code-offset sketch over the 256-bit template. The key material is a 51-bit
# random message; each message bit is spread over one 5-bit repetition block
# (codeword bits 5j .. 5j+4, counting from the least significant bit of the
# template read as a big-endian integer). Bit 255 is zero padding and is
# ignored by the decoder. Majority decoding corrects up to 2 flips per block;
# the stored key digest detects any miscorrected block, so noisier inputs
# fail loudly instead of yielding a wrong key.

FE_BLOCKS = 51
FE_PAD_BIT = 255


@dataclass(frozen=True)
class HelperData:
    """Public sketch: the masked codeword plus the key-check digest."""

    offset: bytes
    check: Digest160

    def __post_init__(self):
        if len(self.offset) != BIO_WIDTH:
            raise ValueError(f"offset must be {BIO_WIDTH} bytes")

    def to_bytes(self) -> bytes:
        return self.offset + self.check.value

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HelperData":
        if len(raw) != BIO_WIDTH + WIDTH:
            raise ValueError("helper data must be 52 bytes")
        return cls(offset=raw[:BIO_WIDTH], check=Digest160(raw[BIO_WIDTH:]))


def repetition_encode(message: int) -> int:
    """Repeat each of the FE_BLOCKS message bits five times: bit j fills
    bits 5j..5j+4 of the codeword. Read as base-32 digits, the message's
    binary digits put bit j at bit 5j (32**j == 2**(5j)). Multiplying by
    0b11111 turns each of those bits into a full five-bit block, with no
    carry between blocks, since a digit times 31 fits in five bits. The
    mirror of repetition_decode; the message is below 2**FE_BLOCKS."""
    return int(format(message, "b"), 32) * 0b11111


_BLOCK_LSBS = sum(1 << (5 * j) for j in range(FE_BLOCKS))


def repetition_decode(word: int) -> int:
    """Majority-decode all 51 blocks at once. Bit 5j of `maj` is set iff at
    least three of bits 5j..5j+4 of the word are: s and carry add the first
    three bits (count = s + 2*carry), so the count reaches 3 iff carry and
    one of s, d, e are set, or s, d and e all are. Bits 5j of `maj`, read as
    every fifth binary digit, are the message; the pad bit is never read."""
    a, b, c, d, e = word, word >> 1, word >> 2, word >> 3, word >> 4
    s = a ^ b ^ c
    carry = (a & b) | (c & (a ^ b))
    maj = ((carry & (s | d | e)) | (s & d & e)) & _BLOCK_LSBS
    return int(format(maj, "0255b")[4::5], 2)


def derive_fe_key(message: int) -> Digest160:
    return _unchecked_digest(sha256_160(b"fe-key" + message.to_bytes(7, "big")))


def gen_sketch(bio: BioTemplate, message: int) -> tuple[Digest160, HelperData]:
    """Deterministic sketch for a given message; key derivation included."""
    sigma = derive_fe_key(message)
    offset = int.from_bytes(bio.value, "big") ^ repetition_encode(message)
    helper = HelperData(offset=offset.to_bytes(BIO_WIDTH, "big"),
                        check=Digest160(sha256_160(sigma.value)))
    return sigma, helper


def recover_key(bio: BioTemplate, helper: HelperData) -> Digest160:
    word = int.from_bytes(bio.value, "big") ^ int.from_bytes(helper.offset, "big")
    sigma = derive_fe_key(repetition_decode(word))
    if sha256_160(sigma.value) != helper.check.value:
        raise RecoveryFailure("template noise exceeds the correctable budget")
    return sigma


# --- instrumentation and entity-scoped operations -------------------------------

@dataclass
class OpCounters:
    """Protocol-level primitive invocation counts for one entity."""

    hash_ops: int = 0
    xor_ops: int = 0
    enc_ops: int = 0
    dec_ops: int = 0
    fe_ops: int = 0

    def snapshot(self) -> "OpCounters":
        return OpCounters(self.hash_ops, self.xor_ops, self.enc_ops,
                          self.dec_ops, self.fe_ops)

    def delta(self, earlier: "OpCounters") -> "OpCounters":
        return OpCounters(self.hash_ops - earlier.hash_ops,
                          self.xor_ops - earlier.xor_ops,
                          self.enc_ops - earlier.enc_ops,
                          self.dec_ops - earlier.dec_ops,
                          self.fe_ops - earlier.fe_ops)

    def reset(self) -> None:
        self.hash_ops = self.xor_ops = self.enc_ops = self.dec_ops = self.fe_ops = 0

    def as_dict(self) -> dict:
        return {"hash": self.hash_ops, "xor": self.xor_ops, "enc": self.enc_ops,
                "dec": self.dec_ops, "fe": self.fe_ops}


class PrimitiveOps:
    """Counted primitive operations plus seeded randomness for one entity.

    Every protocol computation goes through an instance of this class so the
    harness can attribute costs to a side and a phase by snapshotting
    ``counters``.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counters = OpCounters()

    # counted operations

    def hash(self, data: bytes) -> Digest160:
        self.counters.hash_ops += 1
        return _unchecked_digest(sha256_160(data))

    def xor(self, a: Digest160, b: Digest160) -> Digest160:
        self.counters.xor_ops += 1
        return a ^ b

    def concat_mask(self, a: Digest160, b: Digest160) -> Digest160:
        """Digest of the concatenated pair; used where a 160-bit value must be
        XOR-combined with two fields at once."""
        return self.hash(a.value + b.value)

    def enc(self, key: Digest160, plaintext: bytes) -> Ciphertext:
        self.counters.enc_ops += 1
        return seal(key, plaintext, nonce=self.rng.randbytes(NONCE_WIDTH))

    def dec(self, key: Digest160, ct: Ciphertext) -> bytes:
        self.counters.dec_ops += 1
        return open_sealed(key, ct)

    def fe_gen(self, bio: BioTemplate) -> tuple[Digest160, HelperData]:
        self.counters.fe_ops += 1
        return gen_sketch(bio, self.rng.getrandbits(FE_BLOCKS))

    def fe_rep(self, bio: BioTemplate, helper: HelperData) -> Digest160:
        self.counters.fe_ops += 1
        return recover_key(bio, helper)

    # uncounted seeded draws

    def rand_digest(self) -> Digest160:
        return _unchecked_digest(self.rng.randbytes(WIDTH))

    def rand_template(self) -> BioTemplate:
        return BioTemplate(self.rng.randbytes(BIO_WIDTH))


# --- simulated time --------------------------------------------------------------

class SimClock:
    """Simulated wall clock in integer milliseconds. Only the event loop
    advances it; entities read it for timestamps."""

    def __init__(self, start: int = 0):
        self._now = start

    def now(self) -> int:
        return self._now

    def advance_to(self, t: int) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot move backward ({t} < {self._now})")
        self._now = t

    def advance(self, dt: int) -> None:
        self.advance_to(self._now + dt)


def is_fresh(t_receive: int, t_sent: int, delta: int) -> bool:
    """Freshness window check: |receive - sent| <= delta, inclusive."""
    return abs(t_receive - t_sent) <= delta
