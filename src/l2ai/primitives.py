"""Core primitives: instrumented crypto operations, the biometric sketch,
and the simulated clock.

Width conventions used across the package:

* protocol values are 160-bit (20-byte) digests, held as plain ``bytes``:
  hash outputs, XORs, sketch keys and random draws are the 20 bytes that
  ``sha256_160`` or ``Rng.randbytes`` return, and XOR is defined only
  between equal widths
* timestamps are integer milliseconds of simulated time, packed as 8-byte
  big-endian when they enter a hash or a wire message
* biometric templates are 256-bit (32-byte) strings, and a sketch's public
  helper data is 52 bytes: the masked codeword (32), then the key check (20)
* hash core is SHA-256 truncated to its first 160 bits

Widths are checked once, where values enter the system, always with
``ValueError``: every wire or ledger ``from_bytes``/``parse_record`` checks
its exact total width (so the fixed-width fields it unpacks need no check
of their own), and so does ``split_sealed`` for a sealed envelope, by its
body length field; ledger import checks each 20-byte chain link, and the
server checks the width of a token it unseals. Values derived inside the
package have their width by construction and are never checked again; the
ledger's chain links are the same raw ``bytes``.

Operation counts track protocol-level invocations only, and a call the
harness meters charges them directly to its phase. Internal hashing done by
the sketch, the cipher keystream, or the ledger's chain maintenance goes
through the uncounted core on purpose: the per-phase cost figures the
harness reports are defined as the number of primitive calls the protocol
itself makes, and would be meaningless if implementation details leaked in.
"""

from __future__ import annotations

import _random
import hashlib
import hmac
import struct
from dataclasses import dataclass

WIDTH = 20          # bytes per protocol digest
BIO_WIDTH = 32      # bytes per biometric template
NONCE_WIDTH = 16


class AuthFailure(Exception):
    """A sealed envelope failed authentication (corrupted or wrong key)."""


class RecoveryFailure(Exception):
    """Sketch decoder detected noise beyond the correctable budget."""


_int_from = int.from_bytes     # bound once, not on every call
_sha256 = hashlib.sha256


def sha256_160(data: bytes) -> bytes:
    """Uncounted hash core, raw bytes in and out."""
    return _sha256(data).digest()[:WIDTH]


MAX_TIME = 2**64 - 1     # the latest time an 8-byte wire timestamp holds
pack_ts = struct.Struct(">Q").pack       # int -> 8-byte big-endian timestamp


@dataclass(frozen=True, slots=True)
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


# --- authenticated cipher -----------------------------------------------------
#
# Stream cipher with a MAC, both keyed by hash-stretching the 160-bit key:
#   k_enc = SHA256("enc" || key), k_mac = SHA256("mac" || key)
#   keystream block i = SHA256(k_enc || nonce || i as 8-byte BE)
#   tag = SHA256(k_mac || nonce || len(body) as 8-byte BE || body)[:20]
# A sealed envelope is the bytes nonce ‖ len(body) ‖ body ‖ tag, nonce in the
# clear; opening it verifies the tag before releasing any plaintext.

# the envelope's fixed head; `16s` pads a short field, but `seal` refuses any
# nonce that is not 16 bytes
_HEAD = struct.Struct(">16sI")


def split_sealed(sealed: bytes) -> tuple[bytes, bytes, bytes]:
    """Nonce, body and tag of a sealed envelope; ValueError unless well-formed."""
    if len(sealed) < _HEAD.size + WIDTH:
        raise ValueError("ciphertext envelope too short")
    nonce, length = _HEAD.unpack_from(sealed)
    body_end = _HEAD.size + length
    if len(sealed) != body_end + WIDTH:
        raise ValueError("ciphertext envelope length mismatch")
    return nonce, sealed[_HEAD.size:body_end], sealed[body_end:]


def _keystream(k_enc: bytes, nonce: bytes, length: int) -> bytes:
    out = b""
    for block in range((length + 31) // 32):
        out += hashlib.sha256(k_enc + nonce + struct.pack(">Q", block)).digest()
    return out[:length]


def _tag(k_mac: bytes, nonce: bytes, body: bytes) -> bytes:
    return sha256_160(k_mac + nonce + struct.pack(">Q", len(body)) + body)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    return (_int_from(data, "big") ^ _int_from(stream, "big")).to_bytes(len(data), "big")


def seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    if len(nonce) != NONCE_WIDTH:
        raise ValueError(f"nonce must be {NONCE_WIDTH} bytes")
    k_enc = hashlib.sha256(b"enc" + key).digest()
    k_mac = hashlib.sha256(b"mac" + key).digest()
    body = _xor_bytes(plaintext, _keystream(k_enc, nonce, len(plaintext)))
    return b"".join((_HEAD.pack(nonce, len(body)), body, _tag(k_mac, nonce, body)))


def open_sealed(key: bytes, sealed: bytes) -> bytes:
    nonce, body, tag = split_sealed(sealed)
    k_enc = hashlib.sha256(b"enc" + key).digest()
    k_mac = hashlib.sha256(b"mac" + key).digest()
    if not hmac.compare_digest(_tag(k_mac, nonce, body), tag):
        raise AuthFailure("ciphertext tag mismatch")
    return _xor_bytes(body, _keystream(k_enc, nonce, len(body)))


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


def derive_fe_key(message: int) -> bytes:
    return sha256_160(b"fe-key" + message.to_bytes(7, "big"))


def gen_sketch(bio: BioTemplate, message: int) -> tuple[bytes, bytes]:
    """Key and helper data (offset ‖ check) for a given message."""
    sigma = derive_fe_key(message)
    offset = _int_from(bio.value, "big") ^ repetition_encode(message)
    return sigma, offset.to_bytes(BIO_WIDTH, "big") + sha256_160(sigma)


def recover_key(bio: BioTemplate, helper: bytes) -> bytes:
    word = _int_from(bio.value, "big") ^ _int_from(helper[:BIO_WIDTH], "big")
    sigma = derive_fe_key(repetition_decode(word))
    if sha256_160(sigma) != helper[BIO_WIDTH:]:
        raise RecoveryFailure("template noise exceeds the correctable budget")
    return sigma


# --- instrumentation and entity-scoped operations -------------------------------

# the names of the counted operations, as PrimitiveOps.counts keys them
OP_KEYS = ("hash", "xor", "enc", "dec", "fe")


class Rng(_random.Random):
    """Seeded generator for one entity: the Mersenne Twister that
    ``random.Random`` is built on, without its Python-level ``__init__`` and
    ``seed`` or the instance dict that only holds ``gauss_next``. Seeded from
    an int, it draws the same stream as ``random.Random(seed)``."""

    __slots__ = ()

    def randbytes(self, n: int) -> bytes:
        """n random bytes, as ``random.Random.randbytes`` draws them."""
        return self.getrandbits(n * 8).to_bytes(n, "little")


class PrimitiveOps:
    """Counted primitive operations plus seeded randomness for one entity.

    Every protocol computation goes through an instance of this class, and
    each counted call adds one to ``counts`` under its OP_KEYS name. The
    harness charges a call to a side and a phase by pointing ``counts`` at
    that phase's bucket for the length of the call. Both are plain dicts
    pre-filled with every OP_KEYS name, so a count is one dict item store.

    Random values are drawn only through the methods below, which take them
    from the one stream of ``Rng(seed)`` and count the 32-bit words taken in
    ``drawn``. The first draw builds the generator, 2.5 KB of Mersenne
    Twister state, and ``release`` drops it between the flows that draw from
    it; a draw rebuilds it from the seed and skips the ``drawn`` words already
    taken, so a released entity draws the same values as one that never does.
    """

    __slots__ = ("seed", "drawn", "rng", "counts")

    def __init__(self, seed: int):
        self.seed = seed
        self.drawn = 0
        self.rng: Rng | None = None
        self.counts: dict[str, int] = dict.fromkeys(OP_KEYS, 0)

    def release(self) -> None:
        """Drop the generator until the next draw rebuilds it."""
        self.rng = None

    def _draw(self, bits: int) -> int:
        rng = self.rng
        if rng is None:
            rng = self.rng = Rng(self.seed)
            rng.getrandbits(32 * self.drawn)    # takes exactly `drawn` words
        self.drawn += (bits + 31) >> 5
        return rng.getrandbits(bits)

    # counted operations

    def hash(self, data: bytes) -> bytes:
        self.counts["hash"] += 1
        return _sha256(data).digest()[:WIDTH]     # sha256_160, one frame fewer

    def xor(self, a: bytes, b: bytes) -> bytes:
        self.counts["xor"] += 1
        return (_int_from(a, "big") ^ _int_from(b, "big")).to_bytes(WIDTH, "big")

    def enc(self, key: bytes, plaintext: bytes) -> bytes:
        self.counts["enc"] += 1
        nonce = self._draw(8 * NONCE_WIDTH).to_bytes(NONCE_WIDTH, "little")
        return seal(key, plaintext, nonce=nonce)

    def dec(self, key: bytes, sealed: bytes) -> bytes:
        self.counts["dec"] += 1
        return open_sealed(key, sealed)

    def fe_gen(self, bio: BioTemplate) -> tuple[bytes, bytes]:
        self.counts["fe"] += 1
        return gen_sketch(bio, self._draw(FE_BLOCKS))

    def fe_rep(self, bio: BioTemplate, helper: bytes) -> bytes:
        self.counts["fe"] += 1
        return recover_key(bio, helper)

    # uncounted seeded draws, byte strings as Rng.randbytes makes them

    def rand_digest(self) -> bytes:
        return self._draw(8 * WIDTH).to_bytes(WIDTH, "little")

    def rand_template(self) -> BioTemplate:
        return BioTemplate(self._draw(8 * BIO_WIDTH).to_bytes(BIO_WIDTH, "little"))


# --- simulated time --------------------------------------------------------------

class SimClock:
    """Simulated wall clock in integer milliseconds. Only the event loop
    advances it; entities read it for timestamps, so it never passes
    MAX_TIME, the latest time an 8-byte wire timestamp holds."""

    def __init__(self, start: int = 0):
        self._now = start

    def now(self) -> int:
        return self._now

    def advance_to(self, t: int) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot move backward ({t} < {self._now})")
        if t > MAX_TIME:
            raise ValueError(f"simulated time {t} is beyond the 8-byte timestamp "
                             f"(at most {MAX_TIME} ms)")
        self._now = t

    def advance(self, dt: int) -> None:
        self.advance_to(self._now + dt)


def is_fresh(t_receive: int, t_sent: int, delta: int) -> bool:
    """Freshness window check: |receive - sent| <= delta, inclusive."""
    return abs(t_receive - t_sent) <= delta
