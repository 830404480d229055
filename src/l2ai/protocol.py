"""Three-factor authentication and key-exchange flows.

Two sides: the hospital authentication server, which owns the ledger and
the master secret, and the user gateway, which holds the human factors
(identity, password, biometric) and a ledger-resident smart card.

Flow summary. Token issuance seals a fresh token under the server secret
and anchors its digest on the ledger. Registration binds the user's factors
to the token and ends with the card on the ledger. The chain holds the user
id in clear, as each card's `card_uid` and each identity index's `user_id`,
so a ledger reader learns who registered and whose card each session
re-keys; password, biometric key and token appear on it only hashed, masked
or sealed under the server secret. Login checks the factors locally against
the card verifier, then builds a one-time authentication request; the
server resolves the request through the ledger (a lookup that misses is a
rejection), answers with a key-confirmation message, and re-keys the card's
pseudonymous fields so none of them repeats across sessions. Credential
update swaps password/biometric on the card; an authorization update swaps
the token (and so the card's authorization index) without touching the
user's factors.

All multi-field hash inputs are raw concatenations of fixed-width fields
(digests 20 bytes, timestamps 8-byte big-endian). Where a 160-bit value
must be XOR-combined with a pair of fields, the XOR takes the hash of the
concatenated pair. The per-side operation counts of each flow are pinned by
the metrics tests; change them only on purpose.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from .ledger import IdentityIndex, Ledger, SmartCard, TokenRecord
from .permissions import PermissionTable, Role
from .primitives import (
    WIDTH, BioTemplate, HelperData, PrimitiveOps, RecoveryFailure, SimClock,
    is_fresh, pack_ts,
)

DEFAULT_DELTA_T = 2000  # freshness window, simulated milliseconds


class Reject(Exception):
    """Base class for protocol-level rejections."""


class Stale(Reject):
    """Timestamp outside the freshness window."""


class UnknownPrincipal(Reject):
    """Recovered pseudo-identity or token digest has no live ledger record."""


class Unauthorized(Reject):
    """Token role does not grant the requested scope at this time."""


class BadMac(Reject):
    """Authentication digest mismatch."""


class LocalVerifyFailed(Reject):
    """Card check failed: wrong password or biometric beyond tolerance."""


class UnknownToken(Reject):
    """Registration presented a token digest that is not live on the ledger."""


class AlreadyRegistered(Reject):
    """Registration recovered an identity that already has a live index."""


class InvalidRole(Reject):
    """Token requested for a role the permission table does not know."""


class UnexpectedMessage(Reject):
    """Message arrived with no protocol state expecting it."""


# --- domain records -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Credentials:
    """The user's three factors."""

    user_id: bytes
    password: bytes
    bio: BioTemplate


class UserScratch(NamedTuple):
    """Gateway-held values alive only between the registration request and
    card finalization; dropped once the card is built. The gateway never
    keeps the token itself."""

    user_id: bytes
    b_i: bytes
    pwd_i: bytes
    tau: HelperData


class UserSession(NamedTuple):
    """User-side login context awaiting the server's confirmation."""

    c_i: bytes
    w1: bytes


# --- wire messages ---------------------------------------------------------------
# One `struct` layout per message, which the codec packs and unpacks and whose
# size is the width; `20s` pads a short field, but every field is 20 bytes.

_REG_REQUEST = struct.Struct("20s20s20s")          # 60 bytes
_PROVISIONAL = struct.Struct("20s20s20s20s20s")    # 100 bytes
_MSG1 = struct.Struct(">Q20s20s20s")               # 68 bytes
_MSG2 = struct.Struct(">20s20sQ")                  # 48 bytes
REG_REQUEST_WIDTH, PROVISIONAL_WIDTH, MSG1_WIDTH, MSG2_WIDTH = (
    _REG_REQUEST.size, _PROVISIONAL.size, _MSG1.size, _MSG2.size)


class RegRequest(NamedTuple):
    """Registration request: token digest, masked identity, password digest."""

    x: bytes
    did: bytes
    pwd: bytes

    def to_bytes(self) -> bytes:
        return _REG_REQUEST.pack(*self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RegRequest":
        if len(raw) != REG_REQUEST_WIDTH:
            raise ValueError(f"registration request must be {REG_REQUEST_WIDTH} bytes")
        return cls._make(_REG_REQUEST.unpack(raw))


class ProvisionalCard(NamedTuple):
    """Server's registration reply; the gateway folds it into the card."""

    k_i: bytes
    eid_i: bytes
    hid_hms: bytes
    r_hms: bytes
    ax_ui: bytes

    def to_bytes(self) -> bytes:
        return _PROVISIONAL.pack(*self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ProvisionalCard":
        if len(raw) != PROVISIONAL_WIDTH:
            raise ValueError(f"provisional card must be {PROVISIONAL_WIDTH} bytes")
        return cls._make(_PROVISIONAL.unpack(raw))


class Msg1(NamedTuple):
    """Authentication request: timestamp, proof digest, masked pseudonym,
    authorization index."""

    t1: int
    m1: bytes
    eid: bytes
    ax: bytes

    def to_bytes(self) -> bytes:
        return _MSG1.pack(*self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Msg1":
        if len(raw) != MSG1_WIDTH:
            raise ValueError(f"authentication request must be {MSG1_WIDTH} bytes")
        return cls._make(_MSG1.unpack(raw))


class Msg2(NamedTuple):
    """Server reply: key confirmation digest, masked session key, timestamp."""

    m3: bytes
    m2: bytes
    t2: int

    def to_bytes(self) -> bytes:
        return _MSG2.pack(*self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Msg2":
        if len(raw) != MSG2_WIDTH:
            raise ValueError(f"server reply must be {MSG2_WIDTH} bytes")
        return cls._make(_MSG2.unpack(raw))


# --- user-side flows --------------------------------------------------------------

def register_request(ops: PrimitiveOps, creds: Credentials,
                     t_g: bytes) -> tuple[RegRequest, UserScratch]:
    """Bind the three factors to the token and build the registration request."""
    sigma, tau = ops.fe_gen(creds.bio)
    b_i = ops.hash(sigma)                          # biometric key digest
    x = ops.hash(t_g)                              # token index digest
    pwd = ops.hash(creds.password + b_i)           # salted password digest
    did = ops.xor(creds.user_id, ops.hash(x + t_g))
    scratch = UserScratch(user_id=creds.user_id, b_i=b_i, pwd_i=pwd, tau=tau)
    return RegRequest(x=x, did=did, pwd=pwd), scratch


def finalize_card(ops: PrimitiveOps, provisional: ProvisionalCard,
                  scratch: UserScratch) -> SmartCard:
    """Fold the server's reply into the final card; the provisional card key
    is masked under the factors and then dropped."""
    # recover the pseudo-identity for the session; the card itself keeps
    # only the masked form
    _d_tid = ops.xor(scratch.user_id, provisional.r_hms)
    e_i = ops.xor(provisional.k_i, ops.hash(scratch.pwd_i + scratch.b_i))
    f_i = ops.hash(ops.xor(ops.xor(scratch.pwd_i, provisional.k_i), scratch.b_i))
    return SmartCard(e_i, f_i, provisional.eid_i, provisional.r_hms, provisional.hid_hms,
                     provisional.ax_ui, scratch.tau, scratch.user_id)


def login(ops: PrimitiveOps, clock: SimClock, creds: Credentials,
          card: SmartCard) -> tuple[Msg1, UserSession]:
    """Check the factors against the card, then build the authentication
    request. Raises LocalVerifyFailed without touching the wire."""
    try:
        sigma = ops.fe_rep(creds.bio, card.tau)
    except RecoveryFailure:
        raise LocalVerifyFailed("biometric beyond tolerance") from None
    b_i = ops.hash(sigma)
    pwd = ops.hash(creds.password + b_i)
    d_tid = ops.xor(creds.user_id, card.r_hms)
    k_i = ops.xor(card.e_i, ops.hash(pwd + b_i))
    f_check = ops.hash(ops.xor(ops.xor(pwd, k_i), b_i))
    if f_check != card.f_i:
        raise LocalVerifyFailed("card verifier mismatch")

    c_i = ops.xor(k_i, pwd)
    server_pair = ops.xor(card.hid_hms, d_tid)       # unmasks the server binding
    w1 = ops.hash(d_tid + server_pair)
    t1 = clock.now()
    m1 = ops.hash(c_i + pack_ts(t1) + w1)
    return Msg1(t1, m1, card.eid_i, card.ax_ui), UserSession(c_i, w1)


def verify_server(ops: PrimitiveOps, clock: SimClock, delta_t: int,
                  session: UserSession, msg2: Msg2) -> bytes:
    """Check the server's reply and release the session key."""
    if not is_fresh(clock.now(), msg2.t2, delta_t):
        raise Stale("server reply timestamp outside the freshness window")
    sk = ops.xor(msg2.m2, session.w1)
    m3_check = ops.hash(session.c_i + pack_ts(msg2.t2) +
                        session.w1 + sk)
    if m3_check != msg2.m3:
        raise BadMac("server key confirmation mismatch")
    return sk


def update_credentials(ops: PrimitiveOps, creds: Credentials, new_password: bytes,
                       new_bio: BioTemplate, card: SmartCard) -> SmartCard:
    """Re-key the card under a new password/biometric without a server
    round trip. The stored card key carries the password digest as a mask,
    so it is re-masked here; the invariant is the underlying server binding
    (card key XOR password digest). The caller publishes the returned card."""
    try:
        sigma_old = ops.fe_rep(creds.bio, card.tau)
    except RecoveryFailure:
        raise LocalVerifyFailed("biometric beyond tolerance") from None
    b_old = ops.hash(sigma_old)
    pwd_old = ops.hash(creds.password + b_old)
    k_old = ops.xor(card.e_i, ops.hash(pwd_old + b_old))
    f_check = ops.hash(ops.xor(ops.xor(pwd_old, k_old), b_old))
    if f_check != card.f_i:
        raise LocalVerifyFailed("card verifier mismatch")

    sigma_new, tau_new = ops.fe_gen(new_bio)
    b_new = ops.hash(sigma_new)
    pwd_new = ops.hash(new_password + b_new)
    k_new = ops.xor(ops.xor(k_old, pwd_old), pwd_new)
    e_new = ops.xor(k_new, ops.hash(pwd_new + b_new))
    f_new = ops.hash(ops.xor(ops.xor(pwd_new, k_new), b_new))
    return SmartCard(e_new, f_new, card.eid_i, card.r_hms, card.hid_hms, card.ax_ui,
                     tau_new, card.card_uid)


# --- hospital server ---------------------------------------------------------------

class HospitalServer:
    """Authentication server state: master secret, ledger handle, permission
    table, token-role registry, and cached digests of the static secrets.

    h(S_HMS) and h(ID_HMS || S_HMS) depend only on setup-time secrets, so
    they are computed once here; per-request hash counts rely on that.
    """

    def __init__(self, seed: int, clock: SimClock, ledger: Ledger,
                 perm_table: PermissionTable | None = None,
                 delta_t: int = DEFAULT_DELTA_T):
        if delta_t < 0:
            raise ValueError(f"freshness window must be >= 0 ms, got {delta_t}")
        self.ops = ops = PrimitiveOps(seed)
        self.clock = clock
        self.ledger = ledger
        self.perm_table = perm_table or PermissionTable.default()
        self.delta_t = delta_t
        self.id_hms = ops.rand_digest()
        self.s_hms = ops.rand_digest()
        self._h_s = ops.hash(self.s_hms)
        self._h_pair = ops.hash(self.id_hms + self.s_hms)
        self.token_roles: dict[bytes, Role] = {}

    # --- token issuance ------------------------------------------------------------

    def issue_token(self, national_code: bytes, role: Role) -> bytes:
        """Draw a fresh token for a vetted applicant, seal it under the
        master secret, and anchor its digest on the ledger. The token's 20
        bytes are returned for out-of-band delivery; the national code is the
        vetting input and is deliberately not recorded."""
        if role not in self.perm_table:
            raise InvalidRole(f"no permission row for role {role!r}")
        ops = self.ops
        t_g = ops.rand_digest()
        x = ops.hash(t_g)
        y = ops.enc(self.s_hms, t_g)
        self.ledger.append(TokenRecord(x, y))
        self.token_roles[x] = role
        return t_g

    # --- registration ----------------------------------------------------------------

    def register(self, req: RegRequest) -> ProvisionalCard:
        """Admit a token holder: recover their identity, derive the card
        values, and anchor the identity index."""
        ops = self.ops
        record = self.ledger.get_token(req.x)
        if record is None or record.revoked:
            raise UnknownToken("token digest not live on the ledger")
        t_g = ops.dec(self.s_hms, record.y)
        if len(t_g) != WIDTH:
            raise ValueError(f"sealed token must be {WIDTH} bytes, got {len(t_g)}")

        user_id = ops.xor(req.did, ops.hash(req.x + t_g))
        if self.ledger.live_index_for(user_id) is not None:
            raise AlreadyRegistered("identity already registered")
        r1 = ops.rand_digest()
        d_tid = ops.xor(user_id, r1)
        ax = ops.xor(t_g, ops.hash(d_tid + self.id_hms))
        k_i = ops.xor(ops.hash(self.s_hms + user_id), req.pwd)
        eid = ops.xor(d_tid, self._h_s)
        hid = ops.xor(self._h_pair, d_tid)

        self.ledger.append(IdentityIndex(ops.hash(d_tid), user_id))
        return ProvisionalCard(k_i=k_i, eid_i=eid, hid_hms=hid, r_hms=r1, ax_ui=ax)

    # --- authentication and key exchange ----------------------------------------------

    def authenticate(self, msg1: Msg1, scope: str) -> tuple[Msg2, bytes]:
        """Answer an authentication request with the reply and the session key.
        Checks run in a fixed order — freshness, principal (identity, token,
        card), authorization, proof — and nothing is drawn or written until all
        have passed: a rejection leaves no trace."""
        ops = self.ops
        now = self.clock.now()
        if not is_fresh(now, msg1.t1, self.delta_t):
            raise Stale("request timestamp outside the freshness window")

        # unmask the pseudo-identity and the token
        d_tid = ops.xor(msg1.eid, self._h_s)
        t_g = ops.xor(msg1.ax, ops.hash(d_tid + self.id_hms))
        h_dtid = ops.hash(d_tid)
        h_tg = ops.hash(t_g)
        user_id = self.ledger.get_identity(h_dtid)
        token = None if user_id is None else self.ledger.get_token(h_tg)
        if token is None or token.revoked:
            raise UnknownPrincipal("pseudo-identity or token not live on the ledger")
        card = self.ledger.get_card(user_id)
        if card is None:
            raise UnknownPrincipal("no card published for the identity")

        role = self.token_roles.get(h_tg)
        if role is None:
            raise UnknownPrincipal("token has no registered role")
        if not self.perm_table.allows(role, scope, now):
            raise Unauthorized(f"role {role.value} may not {scope} now")

        c_i = ops.hash(self.s_hms + user_id)
        w1 = ops.hash(d_tid + self._h_pair)
        m1_check = ops.hash(c_i + pack_ts(msg1.t1) + w1)
        if m1_check != msg1.m1:
            raise BadMac("authentication proof mismatch")

        # accepted: derive the session key and the confirmation message
        n_s = ops.rand_digest()
        t2 = self.clock.now()
        sk = ops.hash(w1 + n_s)
        m2 = ops.xor(sk, w1)
        m3 = ops.hash(c_i + pack_ts(t2) + w1 + sk)

        # re-key the pseudonymous card fields so nothing repeats next session
        r2 = ops.rand_digest()
        d_new = ops.xor(user_id, r2)
        ax_new = ops.xor(t_g, ops.hash(d_new + self.id_hms))
        eid_new = ops.xor(d_new, self._h_s)
        hid_new = ops.xor(self._h_pair, d_new)
        self.ledger.put_card(SmartCard(card.e_i, card.f_i, eid_new, r2, hid_new, ax_new,
                                       card.tau, card.card_uid))
        self.ledger.replace_index(h_dtid, ops.hash(d_new), user_id)

        return Msg2(m3, m2, t2), sk

    # --- authorization ----------------------------------------------------------------

    def update_authorization(self, user_id: bytes, role: Role) -> bytes:
        """Swap the user's token for a new one carrying the given role and
        return it: revoke the old token, anchor the new one, and re-point the
        card's authorization index. The user's factors and card key stay put."""
        if role not in self.perm_table:
            raise InvalidRole(f"no permission row for role {role!r}")
        ops = self.ops
        card = self.ledger.get_card(user_id)
        if card is None:
            raise UnknownPrincipal("no card for the given identity")

        # recover the current pseudo-identity and the old token from the card
        d_tid = ops.xor(card.eid_i, self._h_s)
        mask = ops.hash(d_tid + self.id_hms)
        t_g_old = ops.xor(card.ax_ui, mask)
        x_old = ops.hash(t_g_old)
        if self.ledger.get_token(x_old) is None:
            raise UnknownPrincipal("card does not point at a known token")
        self.ledger.revoke_token(x_old)
        self.token_roles.pop(x_old, None)

        t_g_new = ops.rand_digest()
        x_new = ops.hash(t_g_new)
        self.ledger.append(TokenRecord(x_new, ops.enc(self.s_hms, t_g_new)))
        self.token_roles[x_new] = role

        self.ledger.put_card(SmartCard(card.e_i, card.f_i, card.eid_i, card.r_hms,
                                       card.hid_hms, ops.xor(t_g_new, mask), card.tau,
                                       card.card_uid))
        return t_g_new


# --- user gateway -----------------------------------------------------------------

class UserGateway:
    """The user's terminal: holds the factors, drives the user-side flows,
    and reads its card's latest version from the ledger by the user id,
    which is the card's id."""

    def __init__(self, seed: int, clock: SimClock, ledger: Ledger,
                 creds: Credentials, delta_t: int = DEFAULT_DELTA_T):
        self.ops = PrimitiveOps(seed)
        self.clock = clock
        self.ledger = ledger
        self.creds = creds
        self.delta_t = delta_t
        self._scratch: UserScratch | None = None
        self._session: UserSession | None = None

    # registration

    def build_registration(self, t_g: bytes) -> RegRequest:
        req, self._scratch = register_request(self.ops, self.creds, t_g)
        return req

    def accept_provisional(self, provisional: ProvisionalCard) -> None:
        if self._scratch is None:
            raise UnexpectedMessage("no registration in progress")
        card = finalize_card(self.ops, provisional, self._scratch)
        self._scratch = None
        self.ledger.put_card(card)

    # card access

    def current_card(self) -> SmartCard:
        card = self.ledger.get_card(self.creds.user_id)
        if card is None:
            raise UnexpectedMessage("gateway holds no card")
        return card

    # login and verification

    def start_login(self, creds: Credentials | None = None) -> Msg1:
        """Log in with the held factors, or with `creds`, unkept, when given."""
        msg1, self._session = login(self.ops, self.clock,
                                    self.creds if creds is None else creds,
                                    self.current_card())
        return msg1

    def accept_server_reply(self, msg2: Msg2) -> bytes:
        if self._session is None:
            raise UnexpectedMessage("no login in progress")
        sk = verify_server(self.ops, self.clock, self.delta_t, self._session, msg2)
        self._session = None
        return sk

    # credential update

    def change_credentials(self, new_password: bytes, new_bio: BioTemplate) -> None:
        card = update_credentials(self.ops, self.creds, new_password, new_bio,
                                  self.current_card())
        self.ledger.put_card(card)
        self.creds = Credentials(user_id=self.creds.user_id,
                                 password=new_password, bio=new_bio)
