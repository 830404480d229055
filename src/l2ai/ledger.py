"""Append-only, hash-chained credential ledger.

The chain is a private, single-writer ledger in the simulation sense: all
writes are serialized through one Ledger instance shared by the server and
the user gateways. Nothing ever rewrites an existing block. Revocation and
replacement are expressed purely by appending newer records; for every
index key the latest record wins, so a token tombstone (revoked=True) or a
superseded identity marker shadows the earlier record without touching it.
Each block is one immutable ``bytes`` record,

    height (8, big-endian) ‖ prev_digest (20) ‖ payload ‖ block_digest (20)

whose last 20 bytes are the hash of everything before them, and whose
``prev_digest`` is the previous record's last 20 bytes (``bytes(WIDTH)``
for block 0). ``LedgerBlock`` decodes a record into those four fields on
demand, for export and inspection. The lookups hold the live answers
(latest token per digest, user id per live identity digest, latest card)
and answer None on a miss: an unknown digest or card is an ordinary answer
of dynamic indexing, not an error.
Every digest, in the payloads, the lookups and the chain links, is the raw
20-byte ``bytes`` of the hash core. The payload records are immutable
``typing.NamedTuple``s (a card block holds the ``SmartCard`` itself); a new
version is built directly from its fields, which is cheaper than ``_replace``.
A digest is live for one user at a time and a user has one live digest; a
write that would break either, that revokes an unknown token, or that
replaces an index not live for its user is refused with ValueError before
anything is appended.
Import replays the writes and refuses, naming the line, a line that is not
exactly what export writes for its block, a height the 8-byte field cannot
hold, a record that does not parse or is not in canonical form, or one
that the ledger refuses. It keeps each height, link and digest as written,
so ``verify_chain`` judges a tampered export.

Each payload kind is one ``struct`` layout, a kind-tag byte and then its
fields in declaration order (a card's helper data is one 52-byte field), which
its writers pack and ``parse_record`` unpacks; a token's sealed envelope
follows its layout, and ``split_sealed`` checks it. ``parse_record`` checks
the exact width of every identity and card payload, so the fields it unpacks
need no check of their own. Block digests go through the uncounted hash core
(chain maintenance is not a protocol operation).
Every block comes from one builder, ``Ledger._link``, which links a payload
to the record last on the chain as it stands, hashes the record once and
keeps it in ``_linked``, in build order. While every write has extended the
chain ``_linked`` holds, ``_linked`` is a valid chain, so a chain equal to it
verifies by one list compare; any other chain, an import included, is
re-hashed in full. ``append`` indexes any record through the generic
``_index`` first, as import does; the typed writers (``put_card``,
``replace_index``, ``revoke_token``) run their own checks and then update
just the lookups their records touch.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

from .primitives import WIDTH, sha256_160, split_sealed


TOKEN_TAG = 0x01
IDENT_TAG = 0x02
CARD_TAG = 0x03

_KIND_NAMES = {TOKEN_TAG: "token", IDENT_TAG: "ident", CARD_TAG: "card"}

# `20s` and `52s` pad a short field and truncate a long one, but every field
# has its width by construction (a live index packs its marker from b"", as
# 20 zero bytes). `?` unpacks any non-zero byte as True; import's canonical
# check refuses a flag byte other than 0 or 1.
_TOKEN = struct.Struct("B20s?")                 # 22 bytes, then the sealed token
_IDENT = struct.Struct("B20s20s?20s")           # 62 bytes: flag, then marker
_CARD = struct.Struct("B20s20s20s20s20s20s52s20s")  # 193 bytes: tau is 52s


class SmartCard(NamedTuple):
    """Ledger-resident smart card contents; a card block holds the card
    itself, tagged by `serialize`.

    Fields: masked long-term key (e_i), card verifier (f_i), masked
    pseudo-identity (eid_i), server re-keying random (r_hms), masked server
    binding (hid_hms), dynamic authorization index (ax_ui), biometric
    helper data (tau, 52 bytes), and the stable card identifier.
    """

    e_i: bytes
    f_i: bytes
    eid_i: bytes
    r_hms: bytes
    hid_hms: bytes
    ax_ui: bytes
    tau: bytes
    card_uid: bytes

    def serialize(self) -> bytes:
        return _CARD.pack(CARD_TAG, *self)


class TokenRecord(NamedTuple):
    """Token index digest plus the server-sealed token's envelope bytes."""

    x: bytes
    y: bytes
    revoked: bool = False

    def serialize(self) -> bytes:
        return _TOKEN.pack(TOKEN_TAG, self.x, self.revoked) + self.y


class IdentityIndex(NamedTuple):
    """Maps the hashed pseudo-identity to the registered identity."""

    h_dtid: bytes
    user_id: bytes
    superseded_by: bytes | None = None

    def serialize(self) -> bytes:
        h_dtid, user_id, marker = self
        return _IDENT.pack(IDENT_TAG, h_dtid, user_id, marker is not None, marker or b"")


def parse_record(payload: bytes):
    if not payload:
        raise ValueError("empty record payload")
    tag = payload[0]
    if tag == TOKEN_TAG:
        if len(payload) < _TOKEN.size:
            raise ValueError("token record too short")
        _, x, revoked = _TOKEN.unpack_from(payload)
        sealed = payload[_TOKEN.size:]
        split_sealed(sealed)            # refuses a malformed envelope
        return TokenRecord(x, sealed, revoked)
    if tag == IDENT_TAG:
        if len(payload) != _IDENT.size:
            raise ValueError(f"identity record must be {_IDENT.size} bytes")
        _, h_dtid, user_id, superseded, marker = _IDENT.unpack(payload)
        return IdentityIndex(h_dtid, user_id, marker if superseded else None)
    if tag == CARD_TAG:
        if len(payload) != _CARD.size:
            raise ValueError(f"smart card record must be {_CARD.size} bytes")
        return SmartCard._make(_CARD.unpack(payload)[1:])
    raise ValueError(f"unknown record tag {tag:#x}")


_HEIGHT = struct.Struct(">Q")      # the height field of a block record
_GENESIS = bytes(WIDTH)             # the previous-digest link of block 0
# A record's fields after its height, and what its digest covers, as
# prebuilt slices: a slice written inline is a new slice object on every
# subscript, and verify_chain takes three per block.
_PREV = slice(_HEIGHT.size, _HEIGHT.size + WIDTH)
_PAYLOAD = slice(_PREV.stop, -WIDTH)
_DIGEST = slice(-WIDTH, None)
_COVERED = slice(None, -WIDTH)      # what the block digest covers
_MIN_RECORD = _PREV.stop + WIDTH    # height, link and digest around an empty payload


class LedgerBlock(NamedTuple):
    """A block record decoded into its four fields; `to_record` encodes
    them back."""

    height: int
    prev_digest: bytes
    payload: bytes
    block_digest: bytes

    def to_record(self) -> bytes:
        if not 0 <= self.height < 1 << 64:
            raise ValueError(f"height {self.height} does not fit the 8-byte field")
        return (_HEIGHT.pack(self.height) + self.prev_digest + self.payload +
                self.block_digest)

    @classmethod
    def from_record(cls, record: bytes) -> "LedgerBlock":
        return cls(_HEIGHT.unpack_from(record)[0], record[_PREV], record[_PAYLOAD],
                   record[_DIGEST])


def _link_from_hex(text: str) -> bytes:
    link = bytes.fromhex(text)
    if len(link) != WIDTH:
        raise ValueError(f"chain link must be {WIDTH} bytes, got {len(link)}")
    return link


def _export_line(block: LedgerBlock) -> str:
    return (f"{block.height} {block.prev_digest.hex()} "
            f"{_KIND_NAMES.get(block.payload[0], 'unknown')} "
            f"{block.payload.hex()} {block.block_digest.hex()}")


class Ledger:
    """The chain plus latest-wins lookup indexes derived from it."""

    def __init__(self):
        self.blocks: list[bytes] = []                    # one record per block
        self._linked: list[bytes] = []                   # each record _link built, in order
        self._intact = True                  # every _link so far extended _linked itself
        self._tokens: dict[bytes, TokenRecord] = {}
        self._idents: dict[bytes, bytes] = {}            # live digest -> user id
        self._cards: dict[bytes, SmartCard] = {}         # latest version per card
        self._live_by_user: dict[bytes, bytes] = {}

    # --- writes ---------------------------------------------------------------

    def _link(self, payload: bytes) -> int:
        """Append the block holding `payload`, linked to the last record on
        the chain; returns its height. Every block is built here."""
        blocks, linked = self.blocks, self._linked
        height = len(blocks)
        if height != len(linked) or height and blocks[-1] is not linked[-1]:
            self._intact = False            # this record extends some other chain
        preimage = b"".join((_HEIGHT.pack(height),
                             blocks[-1][_DIGEST] if blocks else _GENESIS, payload))
        record = preimage + sha256_160(preimage)
        blocks.append(record)
        linked.append(record)
        return height

    def append(self, record) -> int:
        """Index and append one record; returns the height of its block."""
        payload = record.serialize()
        self._index(record)         # may refuse; nothing appended in that case
        return self._link(payload)

    def _index(self, record) -> None:
        if isinstance(record, SmartCard):
            self._cards[record.card_uid] = record
        elif isinstance(record, TokenRecord):
            self._tokens[record.x] = record
        elif isinstance(record, IdentityIndex):
            user, h = record.user_id, record.h_dtid
            holder = self._idents.get(h)
            if holder is not None and holder != record.user_id:
                raise ValueError("identity index digest is live for another user")
            if record.superseded_by is None:
                current = self._live_by_user.get(user)
                if current is not None and current != record.h_dtid:
                    raise ValueError("user already has a live identity index")
                self._live_by_user[user] = record.h_dtid
                self._idents[h] = record.user_id
            elif holder is not None:
                del self._live_by_user[user]
                del self._idents[h]

    def put_card(self, card: SmartCard) -> int:
        """Publish a card version; returns the height of its block."""
        payload = card.serialize()
        self._cards[card.card_uid] = card
        return self._link(payload)

    def replace_index(self, old_h: bytes, new_h: bytes, user_id: bytes) -> None:
        """Supersede the user's live index `old_h` by `new_h` (which may be
        `old_h` itself): two blocks, the superseded marker and the new live
        index. Once these checks pass, the writes `_index` would check
        cannot be refused, so the lookups are updated directly."""
        idents = self._idents
        if idents.get(old_h) != user_id:
            raise ValueError("no live identity index for the given digest")
        if new_h != old_h and new_h in idents:
            raise ValueError("identity index digest is live for another user")
        superseded = _IDENT.pack(IDENT_TAG, old_h, user_id, True, new_h)
        live = _IDENT.pack(IDENT_TAG, new_h, user_id, False, b"")
        del idents[old_h]
        idents[new_h] = user_id
        self._live_by_user[user_id] = new_h     # was old_h, the user's one live index
        self._link(superseded)
        self._link(live)

    def revoke_token(self, x: bytes) -> None:
        current = self._tokens.get(x)
        if current is None:
            raise ValueError("no token record for the given digest")
        if not current.revoked:
            tombstone = TokenRecord(x, current.y, True)
            payload = tombstone.serialize()
            self._tokens[x] = tombstone
            self._link(payload)

    # --- queries ---------------------------------------------------------------

    def any_digest(self, x: bytes) -> bool:
        """True iff some live (non-revoked, non-superseded) record indexes x."""
        token = self._tokens.get(x)
        if token is not None and not token.revoked:
            return True
        return x in self._idents

    def get_identity(self, h_dtid: bytes) -> bytes | None:
        """The user whose identity index `h_dtid` is live, if any."""
        return self._idents.get(h_dtid)

    def live_index_for(self, user_id: bytes) -> bytes | None:
        """The h(pseudo-identity) currently live for a user, if any."""
        return self._live_by_user.get(user_id)

    def get_token(self, x: bytes) -> TokenRecord | None:
        """The latest token record for `x`, revoked or not, if any."""
        return self._tokens.get(x)

    def get_card(self, card_uid: bytes) -> SmartCard | None:
        """The latest version of the card, if one was published."""
        return self._cards.get(card_uid)

    # --- integrity and transport -------------------------------------------------

    def verify_chain(self) -> bool:
        """True iff every record is long enough to hold its height, a link
        and a digest, and holds its own height, the previous record's digest,
        and the digest of everything before its last 20 bytes.

        While `_intact` holds, every record `_link` built extended `_linked`
        itself: it holds its position there as its height, the digest of the
        record before it there as its link, and the digest `_link` computed.
        So `_linked` is a valid chain, and a chain equal to it verifies by one
        list compare. Any other chain, a `from_lines` import included, is
        re-hashed in full."""
        blocks = self.blocks
        if self._intact and blocks == self._linked:
            return True
        prev, sha256 = _GENESIS, hashlib.sha256
        for height, record in enumerate(blocks):
            if len(record) < _MIN_RECORD or _HEIGHT.unpack_from(record)[0] != height \
                    or record[_PREV] != prev:
                return False
            prev = record[_DIGEST]
            # sha256_160 inline, one frame fewer
            if sha256(record[_COVERED]).digest()[:WIDTH] != prev:
                return False
        return True

    def export_lines(self) -> list[str]:
        return [_export_line(LedgerBlock.from_record(record)) for record in self.blocks]

    @classmethod
    def from_lines(cls, lines) -> "Ledger":
        """Rebuild a ledger by replaying the writes of exported lines. Each
        payload is parsed and indexed as `append` would. A line that is not
        exactly what `export_lines` writes for its block (apart from the
        line ending), a height outside 0..2**64-1, a link that is not 20
        bytes, a payload that does not parse or does not re-serialize to
        itself, or a write the ledger refuses raises ValueError naming its
        (1-based) line; empty lines are skipped. Heights, links and digests
        are stored as written, not recomputed, so verify_chain can pass
        judgment on a tampered export instead of the parser masking it."""
        ledger = cls()
        for number, line in enumerate(lines, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                height_s, prev_hex, _kind, payload_hex, digest_hex = line.split()
                block = LedgerBlock(int(height_s), _link_from_hex(prev_hex),
                                    bytes.fromhex(payload_hex), _link_from_hex(digest_hex))
                record = parse_record(block.payload)
                if record.serialize() != block.payload:
                    raise ValueError("record is not in canonical form")
                if _export_line(block) != line:
                    raise ValueError("line is not in canonical form")
                stored = block.to_record()
                ledger._index(record)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            ledger.blocks.append(stored)
        return ledger
