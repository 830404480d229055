"""Append-only, hash-chained credential ledger.

The chain is a private, single-writer ledger in the simulation sense: all
writes are serialized through one Ledger instance shared by the server and
the user gateways. Nothing ever rewrites an existing block. Revocation and
replacement are expressed purely by appending newer records; for every
index key the latest record wins, so a token tombstone (revoked=True) or a
superseded identity marker shadows the earlier record without touching it.
The identity index holds live records only: a superseded one leaves the
index, while its block stays on the chain. A digest is live for one user at
a time and a user has one live digest; a write that would break either is
refused before anything is appended.

Block payloads are serialized as a kind-tag byte followed by fixed-width
fields in declaration order; the one variable-width field (a token's sealed
payload) is self-delimiting and placed last. The block digest covers
height, previous digest, and payload bytes, through the uncounted hash core
(chain maintenance is not a protocol operation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from .primitives import (
    WIDTH, Ciphertext, Digest160, HelperData, _unchecked_digest, sha256_160,
)


class NotFound(Exception):
    """Ledger query missed: unknown index digest, card, or token."""


TOKEN_TAG = 0x01
IDENT_TAG = 0x02
CARD_TAG = 0x03

_KIND_NAMES = {TOKEN_TAG: "token", IDENT_TAG: "ident", CARD_TAG: "card"}


@dataclass(frozen=True)
class SmartCard:
    """Ledger-resident smart card contents.

    Fields: masked long-term key (e_i), card verifier (f_i), masked
    pseudo-identity (eid_i), server re-keying random (r_hms), masked server
    binding (hid_hms), dynamic authorization index (ax_ui), biometric
    helper data (tau), and the stable card identifier.
    """

    e_i: Digest160
    f_i: Digest160
    eid_i: Digest160
    r_hms: Digest160
    hid_hms: Digest160
    ax_ui: Digest160
    tau: HelperData
    card_uid: Digest160

    def to_bytes(self) -> bytes:
        return (self.e_i.value + self.f_i.value + self.eid_i.value +
                self.r_hms.value + self.hid_hms.value + self.ax_ui.value +
                self.tau.to_bytes() + self.card_uid.value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SmartCard":
        if len(raw) != 6 * WIDTH + 52 + WIDTH:
            raise ValueError("smart card record must be 192 bytes")
        fields = [Digest160(raw[i * WIDTH:(i + 1) * WIDTH]) for i in range(6)]
        tau = HelperData.from_bytes(raw[6 * WIDTH:6 * WIDTH + 52])
        return cls(*fields, tau=tau, card_uid=Digest160(raw[6 * WIDTH + 52:]))


@dataclass(frozen=True)
class TokenRecord:
    """Token index digest plus the server-sealed token bytes."""

    x: Digest160
    y: Ciphertext
    revoked: bool = False

    def serialize(self) -> bytes:
        return bytes([TOKEN_TAG]) + self.x.value + bytes([self.revoked]) + self.y.to_bytes()


@dataclass(frozen=True)
class IdentityIndex:
    """Maps the hashed pseudo-identity to the registered identity."""

    h_dtid: Digest160
    user_id: Digest160
    superseded_by: Digest160 | None = None

    def serialize(self) -> bytes:
        marker = self.superseded_by.value if self.superseded_by else b"\x00" * WIDTH
        return (bytes([IDENT_TAG]) + self.h_dtid.value + self.user_id.value +
                bytes([self.superseded_by is not None]) + marker)


@dataclass(frozen=True)
class CardRecord:
    """A published smart card version."""

    card: SmartCard

    def serialize(self) -> bytes:
        return bytes([CARD_TAG]) + self.card.to_bytes()


def parse_record(payload: bytes):
    if not payload:
        raise ValueError("empty record payload")
    tag = payload[0]
    body = payload[1:]
    if tag == TOKEN_TAG:
        if len(body) <= WIDTH:
            raise ValueError("token record too short")
        return TokenRecord(x=Digest160(body[:WIDTH]), revoked=bool(body[WIDTH]),
                           y=Ciphertext.from_bytes(body[WIDTH + 1:]))
    if tag == IDENT_TAG:
        if len(body) <= 2 * WIDTH:
            raise ValueError("identity record too short")
        has_marker = bool(body[2 * WIDTH])
        marker = Digest160(body[2 * WIDTH + 1:3 * WIDTH + 1])
        return IdentityIndex(h_dtid=Digest160(body[:WIDTH]),
                             user_id=Digest160(body[WIDTH:2 * WIDTH]),
                             superseded_by=marker if has_marker else None)
    if tag == CARD_TAG:
        return CardRecord(card=SmartCard.from_bytes(body))
    raise ValueError(f"unknown record tag {tag:#x}")


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    prev_digest: Digest160
    payload: bytes
    block_digest: Digest160
    record: object = field(compare=False)


@dataclass(frozen=True)
class BlockAddress:
    """Where a card landed: block height plus the card identifier."""

    height: int
    card_uid: Digest160

    def to_bytes(self) -> bytes:
        return struct.pack(">Q", self.height) + self.card_uid.value

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BlockAddress":
        if len(raw) < 8:
            raise ValueError("block address too short")
        return cls(height=struct.unpack(">Q", raw[:8])[0],
                   card_uid=Digest160(raw[8:]))


def _block_digest(height: int, prev: Digest160, payload: bytes) -> Digest160:
    return _unchecked_digest(sha256_160(struct.pack(">Q", height) + prev.value + payload))


class Ledger:
    """The chain plus latest-wins lookup indexes derived from it."""

    def __init__(self):
        self.blocks: list[LedgerBlock] = []
        self._tokens: dict[bytes, TokenRecord] = {}
        self._idents: dict[bytes, IdentityIndex] = {}    # live records only
        self._cards: dict[bytes, SmartCard] = {}         # latest version per card
        self._live_by_user: dict[bytes, Digest160] = {}

    # --- writes ---------------------------------------------------------------

    def append(self, record) -> LedgerBlock:
        payload = record.serialize()
        prev = self.blocks[-1].block_digest if self.blocks else Digest160.zero()
        height = len(self.blocks)
        block = LedgerBlock(height=height, prev_digest=prev, payload=payload,
                            block_digest=_block_digest(height, prev, payload),
                            record=record)
        self._index(block)          # may refuse; nothing appended in that case
        self.blocks.append(block)
        return block

    def _index(self, block: LedgerBlock) -> None:
        record = block.record
        if isinstance(record, TokenRecord):
            self._tokens[record.x.value] = record
        elif isinstance(record, IdentityIndex):
            user, h = record.user_id.value, record.h_dtid.value
            holder = self._idents.get(h)
            if holder is not None and holder.user_id != record.user_id:
                raise ValueError("identity index digest is live for another user")
            if record.superseded_by is None:
                current = self._live_by_user.get(user)
                if current is not None and current != record.h_dtid:
                    raise ValueError("user already has a live identity index")
                self._live_by_user[user] = record.h_dtid
                self._idents[h] = record
            elif holder is not None:
                del self._live_by_user[user]
                del self._idents[h]
        elif isinstance(record, CardRecord):
            self._cards[record.card.card_uid.value] = record.card

    def put_card(self, card: SmartCard) -> BlockAddress:
        block = self.append(CardRecord(card=card))
        return BlockAddress(height=block.height, card_uid=card.card_uid)

    def replace_index(self, old_h: Digest160, new_h: Digest160,
                      user_id: Digest160) -> None:
        current = self._idents.get(old_h.value)
        if current is None or current.user_id != user_id:
            raise NotFound("no live identity index for the given digest")
        if new_h != old_h and new_h.value in self._idents:
            raise ValueError("identity index digest is live for another user")
        self.append(IdentityIndex(h_dtid=old_h, user_id=user_id, superseded_by=new_h))
        self.append(IdentityIndex(h_dtid=new_h, user_id=user_id))

    def revoke_token(self, x: Digest160) -> None:
        current = self._tokens.get(x.value)
        if current is None:
            raise NotFound("no token record for the given digest")
        if not current.revoked:
            self.append(replace(current, revoked=True))

    # --- queries ---------------------------------------------------------------

    def any_digest(self, x: Digest160) -> bool:
        """True iff some live (non-revoked, non-superseded) record indexes x."""
        token = self._tokens.get(x.value)
        if token is not None and not token.revoked:
            return True
        return x.value in self._idents

    def get_identity(self, h_dtid: Digest160) -> Digest160:
        ident = self._idents.get(h_dtid.value)
        if ident is None:
            raise NotFound("no live identity index for the given digest")
        return ident.user_id

    def live_index_for(self, user_id: Digest160) -> Digest160 | None:
        """The h(pseudo-identity) currently live for a user, if any."""
        return self._live_by_user.get(user_id.value)

    def get_token(self, x: Digest160) -> TokenRecord:
        token = self._tokens.get(x.value)
        if token is None:
            raise NotFound("no token record for the given digest")
        return token

    def get_card(self, card_uid: Digest160) -> SmartCard:
        card = self._cards.get(card_uid.value)
        if card is None:
            raise NotFound("no card record for the given identifier")
        return card

    # --- integrity and transport -------------------------------------------------

    def verify_chain(self) -> bool:
        prev = Digest160.zero()
        for height, block in enumerate(self.blocks):
            if block.height != height or block.prev_digest != prev:
                return False
            if _block_digest(height, prev, block.payload) != block.block_digest:
                return False
            prev = block.block_digest
        return True

    def export_lines(self) -> list[str]:
        return [
            f"{b.height} {b.prev_digest.hex()} "
            f"{_KIND_NAMES.get(b.payload[0], 'unknown')} "
            f"{b.payload.hex()} {b.block_digest.hex()}"
            for b in self.blocks
        ]

    @classmethod
    def from_lines(cls, lines) -> "Ledger":
        """Rebuild a ledger from exported lines. Digests are taken as
        written, not recomputed, so verify_chain can pass judgment on a
        tampered export instead of the parser masking it."""
        ledger = cls()
        for line in lines:
            if not line.strip():
                continue
            height_s, prev_hex, _kind, payload_hex, digest_hex = line.split()
            payload = bytes.fromhex(payload_hex)
            try:
                record = parse_record(payload)
            except ValueError:
                record = None
            block = LedgerBlock(height=int(height_s),
                                prev_digest=Digest160.from_hex(prev_hex),
                                payload=payload,
                                block_digest=Digest160.from_hex(digest_hex),
                                record=record)
            ledger.blocks.append(block)
            if record is not None:
                try:
                    ledger._index(block)
                except ValueError:
                    pass        # tampered content; verify_chain renders the verdict
        return ledger
