"""Protocol-flow tests: every derived field is cross-checked against the
straight-line reference in oracle.py, and every rejection class is reached
by a minimal mutation of honest traffic."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from l2ai.ledger import Ledger
from l2ai.permissions import (
    DEFAULT_TABLE_TEXT, PermissionTable, Role, SCOPE_CATALOG,
)
from l2ai.primitives import OP_KEYS, WIDTH, PrimitiveOps, SimClock
from l2ai.protocol import (
    AlreadyRegistered, BadMac, Credentials, HospitalServer, InvalidRole,
    LocalVerifyFailed, Msg1, Msg2, ProvisionalCard, RegRequest, Stale,
    UnknownPrincipal, UnknownToken, Unauthorized, UserGateway,
    finalize_card, login, register_request, update_credentials, verify_server,
)

SCOPE = "read-patient-vitals"


def make_world(seed=42, delta_t=2000):
    clock, ledger = SimClock(), Ledger()
    server = HospitalServer(seed, clock, ledger, delta_t=delta_t)
    return clock, ledger, server


def make_creds(seed=7):
    ops = PrimitiveOps(seed)
    return Credentials(user_id=ops.rand_digest(), password=b"correct-horse",
                       bio=ops.rand_template())


def registered_user(clock, ledger, server, seed=101, creds=None,
                    role=Role.DOCTOR):
    creds = creds or make_creds(seed * 13 + 5)
    gateway = UserGateway(seed, clock, ledger, creds,
                          delta_t=server.delta_t)
    token = server.issue_token(b"national-code-9001", role)
    provisional = server.register(gateway.build_registration(token))
    gateway.accept_provisional(provisional)
    return gateway, token


# --- setup and token issuance ----------------------------------------------------

def test_setup_is_seed_deterministic():
    _, _, a = make_world(seed=5)
    _, _, b = make_world(seed=5)
    _, _, c = make_world(seed=6)
    assert (a.id_hms, a.s_hms) == (b.id_hms, b.s_hms)
    assert (c.id_hms, c.s_hms) != (a.id_hms, a.s_hms)


def test_issue_token_anchors_ledger_record():
    _, ledger, server = make_world()
    token = server.issue_token(b"code", Role.NURSE)
    x = oracle.h(token.t_g)
    assert ledger.any_digest(x)
    record = ledger.get_token(x)
    # sealed token bytes must match the reference cipher byte-for-byte
    assert record.y.to_bytes() == oracle.seal(server.s_hms,
                                              record.y.nonce, token.t_g)
    assert server.token_roles[x] == Role.NURSE


def test_issue_token_unknown_role_rejected():
    _, _, server = make_world()
    table = {r: server.perm_table.grants[r] for r in Role if r != Role.LABORATORY}
    with pytest.raises(ValueError):
        PermissionTable(table)      # a table cannot even be built without all roles
    with pytest.raises(InvalidRole):
        server.issue_token(b"code", "X")


# --- registration ------------------------------------------------------------------

def test_registration_fields_match_reference():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway = UserGateway(101, clock, ledger, creds)
    token = server.issue_token(b"code", Role.DOCTOR)

    req = gateway.build_registration(token)
    scratch = gateway._scratch
    ref_user = oracle.user_registration_fields(token.t_g, creds.user_id,
                                               creds.password, scratch.b_i)
    assert req.x == ref_user["x"]
    assert req.pwd == ref_user["pwd"]
    assert req.did == ref_user["did"]

    provisional = server.register(req)
    ref_server = oracle.server_registration_fields(
        server.s_hms, server.id_hms, token.t_g,
        req.did, req.pwd, provisional.r_hms)
    assert ref_server["user_id"] == creds.user_id
    assert provisional.ax_ui == ref_server["ax"]
    assert provisional.k_i == ref_server["k"]
    assert provisional.eid_i == ref_server["eid"]
    assert provisional.hid_hms == ref_server["hid"]
    # identity index anchored under the hashed pseudo-identity
    assert ledger.get_identity(ref_server["h_d_tid"]) == creds.user_id

    gateway.accept_provisional(provisional)
    card = gateway.current_card()
    ref_card = oracle.finalize_fields(provisional.k_i, scratch.pwd_i,
                                      scratch.b_i)
    assert card.e_i == ref_card["e"]
    assert card.f_i == ref_card["f"]
    assert card.card_uid == creds.user_id
    assert gateway._scratch is None             # token material dropped post-card


def test_register_unknown_or_revoked_token():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway = UserGateway(101, clock, ledger, creds)
    ghost = PrimitiveOps(1).rand_digest()
    with pytest.raises(UnknownToken):
        server.register(RegRequest(x=ghost, did=ghost, pwd=ghost))

    token = server.issue_token(b"code", Role.DOCTOR)
    req = gateway.build_registration(token)
    ledger.revoke_token(req.x)
    with pytest.raises(UnknownToken):
        server.register(req)


def test_duplicate_registration_rejected():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, _ = registered_user(clock, ledger, server, creds=creds)
    other = UserGateway(202, clock, ledger, creds)
    token = server.issue_token(b"code", Role.DOCTOR)
    with pytest.raises(AlreadyRegistered):
        server.register(other.build_registration(token))


# --- login -----------------------------------------------------------------------

def test_login_fields_match_reference():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, _ = registered_user(clock, ledger, server, creds=creds)
    card = gateway.current_card()
    msg1 = gateway.start_login()
    session = gateway._session

    sigma = gateway.ops.fe_rep(creds.bio, card.tau)
    b_i = oracle.h(sigma)
    ref = oracle.login_fields(creds.user_id, creds.password, b_i,
                              card.e_i, card.f_i, card.r_hms,
                              card.hid_hms, msg1.t1)
    assert ref["ok"]
    assert session.c_i == ref["c"]
    assert session.w1 == ref["w1"]
    assert msg1.m1 == ref["m1"]
    assert msg1.eid == card.eid_i and msg1.ax == card.ax_ui
    assert msg1.t1 == clock.now()


def test_login_wrong_password_fails_locally():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    bad = Credentials(user_id=gateway.creds.user_id, password=b"wrong",
                      bio=gateway.creds.bio)
    with pytest.raises(LocalVerifyFailed):
        login(gateway.ops, clock, bad, gateway.current_card())


def test_login_tolerates_in_budget_biometric_noise():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    noisy = replace(gateway.creds, bio=gateway.creds.bio.with_flips([3, 77, 200]))
    msg1, _ = login(gateway.ops, clock, noisy, gateway.current_card())
    msg2, transcript = server.authenticate(msg1, SCOPE)
    assert transcript.sk is not None


def test_login_biometric_beyond_tolerance_fails_locally():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    hopeless = replace(gateway.creds, bio=gateway.creds.bio.with_flips([10, 11, 12]))
    with pytest.raises(LocalVerifyFailed):
        login(gateway.ops, clock, hopeless, gateway.current_card())


def test_login_wrong_identity_passes_locally_dies_at_server():
    # The card verifier binds password and biometric only; a wrong identity
    # digest slips past the local check and is caught by the proof check.
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    wrong = replace(gateway.creds, user_id=PrimitiveOps(3).rand_digest())
    msg1, _ = login(gateway.ops, clock, wrong, gateway.current_card())
    with pytest.raises(BadMac):
        server.authenticate(msg1, SCOPE)


# --- authentication and key exchange ----------------------------------------------

def test_key_exchange_fields_match_reference():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, token = registered_user(clock, ledger, server, creds=creds)
    old_card = gateway.current_card()

    msg1 = gateway.start_login()
    msg2, transcript = server.authenticate(msg1, SCOPE)
    new_card = gateway.current_card()

    ref = oracle.server_auth_fields(
        server.s_hms, server.id_hms, creds.user_id,
        msg1.eid, msg1.ax, msg1.t1,
        transcript.n_s, msg2.t2, new_card.r_hms)
    assert ref["t_g"] == token.t_g        # token recovered from the index
    assert transcript.c_i == ref["c"]
    assert transcript.w1 == ref["w1"]
    assert ref["m1"] == msg1.m1
    assert transcript.sk == ref["sk"]
    assert msg2.m2 == ref["m2"]
    assert msg2.m3 == ref["m3"]

    # card re-keyed exactly as the reference predicts; verifier fields kept
    assert new_card.eid_i == ref["eid_new"]
    assert new_card.ax_ui == ref["ax_new"]
    assert new_card.hid_hms == ref["hid_new"]
    assert (new_card.e_i, new_card.f_i, new_card.tau) == \
        (old_card.e_i, old_card.f_i, old_card.tau)

    # index replaced append-only
    assert not ledger.any_digest(ref["h_d_tid"])
    assert ledger.get_identity(ref["h_d_new"]) == creds.user_id

    sk = gateway.accept_server_reply(msg2)
    ref_user = oracle.user_verify_fields(transcript.c_i, transcript.w1,
                                         msg2.m2, msg2.m3, msg2.t2)
    assert ref_user["ok"]
    assert sk == ref_user["sk"] == transcript.sk


def test_freshness_boundary_inclusive():
    clock, ledger, server = make_world(delta_t=2000)
    gateway, _ = registered_user(clock, ledger, server)
    msg1 = gateway.start_login()
    clock.advance(2000)
    msg2, _ = server.authenticate(msg1, SCOPE)      # exactly at the window edge
    gateway.accept_server_reply(msg2)

    msg1 = gateway.start_login()
    clock.advance(2001)
    with pytest.raises(Stale):
        server.authenticate(msg1, SCOPE)


def test_each_rejection_class_reachable_by_minimal_mutation():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)

    msg1 = gateway.start_login()
    flip = b"\x80" + b"\x00" * 19
    with pytest.raises(UnknownPrincipal):
        server.authenticate(msg1._replace(eid=oracle.x20(msg1.eid, flip)), SCOPE)
    with pytest.raises(UnknownPrincipal):
        server.authenticate(msg1._replace(ax=oracle.x20(msg1.ax, flip)), SCOPE)
    with pytest.raises(BadMac):
        server.authenticate(msg1._replace(m1=oracle.x20(msg1.m1, flip)), SCOPE)
    with pytest.raises(Unauthorized):
        server.authenticate(msg1, "manage-users")   # doctor token, admin scope
    with pytest.raises(Stale):
        server.authenticate(msg1._replace(t1=msg1.t1 + 99_999), SCOPE)
    # the honest original still goes through: none of the above wrote state
    msg2, _ = server.authenticate(msg1, SCOPE)
    assert gateway.accept_server_reply(msg2)


@pytest.mark.parametrize("scope", ["write-prescription", "read-own-records"])
def test_token_digest_is_not_a_principal(scope):
    # the pseudo-identity unmasks to one live token and the index to a
    # second: both digests are live, but neither names an identity
    clock, ledger, server = make_world()
    t_g1 = server.issue_token(b"code-1", Role.PATIENT).t_g
    t_g2 = server.issue_token(b"code-2", Role.PATIENT).t_g
    msg1 = Msg1(t1=clock.now(), m1=bytes(WIDTH), eid=oracle.x20(t_g1, server._h_s),
                ax=oracle.x20(t_g2, server.ops.hash(t_g1 + server.id_hms)))
    with pytest.raises(UnknownPrincipal, match="not live on the ledger"):
        server.authenticate(msg1, scope)


def test_replayed_msg1_rejected_after_rekey():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    msg1 = gateway.start_login()
    msg2, _ = server.authenticate(msg1, SCOPE)
    gateway.accept_server_reply(msg2)
    clock.advance(10)                      # still well inside the window
    with pytest.raises(UnknownPrincipal):  # pseudonym already superseded
        server.authenticate(msg1, SCOPE)


def test_authenticate_rejects_a_card_never_published():
    # the card is finalized but never put on the ledger: its identity index
    # and token are live, so only the card lookup misses
    clock, ledger, server = make_world()
    creds, ops = make_creds(), PrimitiveOps(101)
    req, scratch = register_request(ops, creds, server.issue_token(b"code", Role.DOCTOR))
    card = finalize_card(ops, server.register(req), scratch)
    msg1, _ = login(ops, clock, creds, card)
    before = len(ledger.blocks)
    rng_state, counts = server.ops.rng.getstate(), server.ops.counts.copy()
    with pytest.raises(UnknownPrincipal, match="no card published"):
        server.authenticate(msg1, SCOPE)
    assert len(ledger.blocks) == before
    # the miss is found before any draw, at the cost of the principal lookup
    assert server.ops.rng.getstate() == rng_state
    delta = {k: server.ops.counts[k] - counts[k] for k in OP_KEYS}
    assert delta == {"hash": 3, "xor": 2, "enc": 0, "dec": 0, "fe": 0}


def test_authenticate_rejects_a_live_token_with_no_role():
    clock, ledger, server = make_world()
    gateway, token = registered_user(clock, ledger, server)
    del server.token_roles[oracle.h(token.t_g)]
    msg1 = gateway.start_login()
    before = len(ledger.blocks)
    with pytest.raises(UnknownPrincipal, match="no registered role"):
        server.authenticate(msg1, SCOPE)
    assert len(ledger.blocks) == before


def test_verify_server_rejections():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    msg1 = gateway.start_login()
    msg2, _ = server.authenticate(msg1, SCOPE)
    session = gateway._session
    flip = b"\x01" + b"\x00" * 19

    with pytest.raises(BadMac):
        verify_server(gateway.ops, clock, server.delta_t, session,
                      msg2._replace(m2=oracle.x20(msg2.m2, flip)))
    with pytest.raises(BadMac):
        verify_server(gateway.ops, clock, server.delta_t, session,
                      msg2._replace(m3=oracle.x20(msg2.m3, flip)))
    clock.advance(5000)
    with pytest.raises(Stale):
        verify_server(gateway.ops, clock, server.delta_t, session, msg2)


def test_session_keys_fresh_across_sessions():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    keys, wires = set(), set()
    for _ in range(5):
        clock.advance(100)
        msg1 = gateway.start_login()
        msg2, transcript = server.authenticate(msg1, SCOPE)
        assert gateway.accept_server_reply(msg2) == transcript.sk
        keys.add(transcript.sk)
        wires.update({msg1.eid, msg1.ax, msg1.m1,
                      msg2.m2, msg2.m3})
    assert len(keys) == 5
    assert len(wires) == 25         # nothing repeats on the wire


# --- credential update --------------------------------------------------------------

def test_update_credentials_preserves_server_binding():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, _ = registered_user(clock, ledger, server, creds=creds)
    old_card = gateway.current_card()
    sigma_old = gateway.ops.fe_rep(creds.bio, old_card.tau)

    new_password = b"battery-staple"
    new_bio = PrimitiveOps(404).rand_template()
    gateway.change_credentials(new_password, new_bio)
    new_card = gateway.current_card()
    assert (new_card.e_i, new_card.f_i, new_card.tau) != \
        (old_card.e_i, old_card.f_i, old_card.tau)
    assert (new_card.eid_i, new_card.ax_ui, new_card.hid_hms, new_card.r_hms) == \
        (old_card.eid_i, old_card.ax_ui, old_card.hid_hms, old_card.r_hms)

    # the card key is re-masked under the new password digest; the server
    # binding (card key XOR password digest) is the invariant
    b_old = oracle.h(sigma_old)
    pwd_old = oracle.h(creds.password + b_old)
    k_old = oracle.x20(old_card.e_i, oracle.h(pwd_old + b_old))
    sigma_new = gateway.ops.fe_rep(new_bio, new_card.tau)
    b_new = oracle.h(sigma_new)
    pwd_new = oracle.h(new_password + b_new)
    k_new = oracle.x20(new_card.e_i, oracle.h(pwd_new + b_new))
    assert k_old != k_new
    assert oracle.x20(k_old, pwd_old) == oracle.x20(k_new, pwd_new)

    # old factors now fail locally; new ones complete a full session
    with pytest.raises(LocalVerifyFailed):
        login(gateway.ops, clock, creds, new_card)
    msg1 = gateway.start_login()
    msg2, transcript = server.authenticate(msg1, SCOPE)
    assert gateway.accept_server_reply(msg2) == transcript.sk


def test_update_credentials_requires_old_factors():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    wrong = replace(gateway.creds, password=b"not-it")
    with pytest.raises(LocalVerifyFailed):
        update_credentials(gateway.ops, wrong, b"x", gateway.creds.bio,
                           gateway.current_card())


# --- authorization update ------------------------------------------------------------

def test_update_authorization_swaps_token_and_index():
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, old_token = registered_user(clock, ledger, server, creds=creds)
    old_card = gateway.current_card()

    new_token = server.update_authorization(creds.user_id, Role.PATIENT)
    assert new_token.role == Role.PATIENT
    new_card = gateway.current_card()
    assert new_card.ax_ui != old_card.ax_ui
    assert (new_card.eid_i, new_card.e_i, new_card.f_i) == \
        (old_card.eid_i, old_card.e_i, old_card.f_i)

    old_x = oracle.h(old_token.t_g)
    new_x = oracle.h(new_token.t_g)
    assert not ledger.any_digest(old_x)
    assert ledger.any_digest(new_x)

    # a stale card copy (old authorization index) is turned away
    clock.advance(10)
    msg1, _ = login(gateway.ops, clock, gateway.creds, old_card)
    with pytest.raises(UnknownPrincipal):
        server.authenticate(msg1, "read-own-records")

    # the live card authenticates under the new role's scopes only
    msg1 = gateway.start_login()
    with pytest.raises(Unauthorized):
        server.authenticate(msg1, SCOPE)            # doctor scope, patient token
    msg2, transcript = server.authenticate(msg1, "read-own-records")
    assert gateway.accept_server_reply(msg2) == transcript.sk

    with pytest.raises(UnknownPrincipal):
        server.update_authorization(PrimitiveOps(8).rand_digest(), Role.NURSE)


# --- new record versions -------------------------------------------------------------

def test_new_card_and_token_versions_equal_their_replace_form():
    """Each flow builds the new card or token version from its fields. It
    must equal `_replace` of the fields the flow changes, with the values
    the reference derives, field by field and as serialized bytes."""
    clock, ledger, server = make_world()
    creds = make_creds()
    gateway, token = registered_user(clock, ledger, server, creds=creds)

    def check(old, new, **changed):
        replaced = old._replace(**changed)
        assert type(new) is type(old)
        assert new._asdict() == replaced._asdict()
        assert new.serialize() == replaced.serialize()

    old = gateway.current_card()
    msg1 = gateway.start_login()
    msg2, transcript = server.authenticate(msg1, SCOPE)
    gateway.accept_server_reply(msg2)
    new = gateway.current_card()
    ref = oracle.server_auth_fields(
        server.s_hms, server.id_hms, creds.user_id, msg1.eid, msg1.ax, msg1.t1,
        transcript.n_s, msg2.t2, new.r_hms)
    check(old, new, eid_i=ref["eid_new"], r_hms=new.r_hms, hid_hms=ref["hid_new"],
          ax_ui=ref["ax_new"])

    old = gateway.current_card()
    new_password, new_bio = b"battery-staple", PrimitiveOps(404).rand_template()
    b_old = oracle.h(gateway.ops.fe_rep(creds.bio, old.tau))
    pwd_old = oracle.h(creds.password + b_old)
    k_old = oracle.x20(old.e_i, oracle.h(pwd_old + b_old))
    gateway.change_credentials(new_password, new_bio)
    new = gateway.current_card()
    b_new = oracle.h(gateway.ops.fe_rep(new_bio, new.tau))
    pwd_new = oracle.h(new_password + b_new)
    ref = oracle.finalize_fields(oracle.x20(oracle.x20(k_old, pwd_old), pwd_new),
                                 pwd_new, b_new)
    check(old, new, e_i=ref["e"], f_i=ref["f"], tau=new.tau)

    old, x = gateway.current_card(), oracle.h(token.t_g)
    old_token = ledger.get_token(x)
    new_token = server.update_authorization(creds.user_id, Role.PATIENT)
    d_tid = oracle.x20(old.eid_i, oracle.h(server.s_hms))
    check(old, gateway.current_card(),
          ax_ui=oracle.x20(new_token.t_g, oracle.hpair(d_tid, server.id_hms)))
    check(old_token, ledger.get_token(x), revoked=True)


# --- permission matrix ----------------------------------------------------------------

def test_authorize_matches_table_exactly():
    _, _, server = make_world()
    expected = {
        Role.DOCTOR: {"read-patient-vitals", "read-other-patient-vitals",
                      "read-lab-results", "write-prescription", "admit-patient"},
        Role.NURSE: {"read-patient-vitals", "read-other-patient-vitals",
                     "read-lab-results", "record-vitals"},
        Role.PATIENT: {"read-own-records", "read-own-vitals"},
        Role.MEDICATION: {"read-prescriptions", "dispense-medication",
                          "manage-inventory"},
        Role.HOSPITAL: {"read-admissions", "manage-beds", "manage-inventory"},
        Role.ADMIN: set(SCOPE_CATALOG),
        Role.EMERGENCY: {"read-patient-vitals", "read-other-patient-vitals",
                         "emergency-override", "admit-patient"},
        Role.LABORATORY: {"read-lab-orders", "write-lab-results"},
    }
    for role in Role:
        for scope in SCOPE_CATALOG:
            assert server.perm_table.allows(role, scope, at_ms=0) == \
                (scope in expected[role]), (role, scope)


def test_time_window_enforcement():
    text = DEFAULT_TABLE_TEXT.replace(
        "L   read-lab-orders,write-lab-results",
        "L   read-lab-orders,write-lab-results  360 1200")
    table = PermissionTable.parse(text)
    ms = 60_000
    assert table.allows(Role.LABORATORY, "read-lab-orders", 360 * ms)
    assert table.allows(Role.LABORATORY, "read-lab-orders", 1199 * ms)
    assert not table.allows(Role.LABORATORY, "read-lab-orders", 1200 * ms)
    assert not table.allows(Role.LABORATORY, "read-lab-orders", 200 * ms)
    # next simulated day, same minutes
    assert table.allows(Role.LABORATORY, "read-lab-orders", (1440 + 500) * ms)

    wrapped = PermissionTable.parse(text.replace("360 1200", "1320 120"))
    assert wrapped.allows(Role.LABORATORY, "read-lab-orders", 1380 * ms)
    assert wrapped.allows(Role.LABORATORY, "read-lab-orders", 60 * ms)
    assert not wrapped.allows(Role.LABORATORY, "read-lab-orders", 600 * ms)


def test_permission_table_parse_errors():
    with pytest.raises(ValueError):
        PermissionTable.parse("D *\n")                      # seven roles missing
    with pytest.raises(ValueError):
        PermissionTable.parse(DEFAULT_TABLE_TEXT + "D *\n")
    with pytest.raises(ValueError):
        PermissionTable.parse(DEFAULT_TABLE_TEXT + "Q *\n")
    with pytest.raises(ValueError):
        PermissionTable.parse(DEFAULT_TABLE_TEXT.replace("SA  *", "SA  * 10"))
    # a window minute that is not ASCII digits is named with its line; int()
    # alone would read "+1_0" as 10 and "٣" as 3
    for window, bad in (("x 10", "x"), ("10 1e3", "1e3"), ("+1_0 ٣", "+1_0"),
                        ("10 ٣", "٣"), ("1_0 20", "1_0"), ("- 5", "-")):
        with pytest.raises(ValueError) as err:
            PermissionTable.parse(DEFAULT_TABLE_TEXT.replace("SA  *", f"SA  * {window}"))
        assert str(err.value) == f"line 7: window minutes must be integers, got {bad!r}"
    # a leading minus still parses, so a negative minute is out of range
    with pytest.raises(ValueError, match="^line 7: window minutes out of range$"):
        PermissionTable.parse(DEFAULT_TABLE_TEXT.replace("SA  *", "SA  * -5 10"))


def test_permission_table_refusal_texts():
    grants = PermissionTable.default().grants

    def refusal(table) -> str:
        with pytest.raises(ValueError) as err:
            PermissionTable(table)
        return str(err.value)

    # missing roles are named in Role order, whatever the dict's order
    partial = [(r, g) for r, g in grants.items() if r not in (Role.DOCTOR, Role.LABORATORY)]
    assert refusal(dict(reversed(partial))) == "permission table missing roles: ['D', 'L']"
    # a missing role is named before an unknown key
    assert refusal({**dict(partial), "X": grants[Role.DOCTOR]}) == \
        "permission table missing roles: ['D', 'L']"
    assert refusal({**grants, "X": grants[Role.DOCTOR], 7: grants[Role.NURSE]}) == \
        "permission table has unknown roles: ['X', 7]"
    # a role's plain value equals its member and hashes alike, but is no Role
    plain = {("D" if r is Role.DOCTOR else r): g for r, g in grants.items()}
    assert refusal(plain) == "permission table has unknown roles: ['D']"


def test_default_table_is_the_parsed_builtin_text():
    # parsed once at import; each call still returns its own grants dict
    assert PermissionTable.default().grants == \
        PermissionTable.parse(DEFAULT_TABLE_TEXT).grants
    assert PermissionTable.default().grants is not PermissionTable.default().grants


# --- wire codecs -------------------------------------------------------------------

WIRE_WIDTHS = ((Msg1, 68), (Msg2, 48), (RegRequest, 60), (ProvisionalCard, 100))


def test_wire_layouts_match_reference():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    msg1 = gateway.start_login()
    msg2, _ = server.authenticate(msg1, SCOPE)

    assert msg1.to_bytes() == oracle.msg1_bytes(msg1.t1, msg1.m1,
                                                msg1.eid, msg1.ax)
    assert msg2.to_bytes() == oracle.msg2_bytes(msg2.m3, msg2.m2, msg2.t2)
    assert len(msg1.to_bytes()) == 68 and len(msg2.to_bytes()) == 48
    assert Msg1.from_bytes(msg1.to_bytes()) == msg1
    assert Msg2.from_bytes(msg2.to_bytes()) == msg2

    req = RegRequest(x=msg1.m1, did=msg1.eid, pwd=msg1.ax)
    assert req.to_bytes() == oracle.reg_request_bytes(msg1.m1, msg1.eid,
                                                      msg1.ax)
    assert len(req.to_bytes()) == 60
    assert RegRequest.from_bytes(req.to_bytes()) == req

    token = server.issue_token(b"national-code", Role.NURSE)
    card = server.register(register_request(PrimitiveOps(5), make_creds(9), token)[0])
    assert card.to_bytes() == oracle.provisional_bytes(card.k_i, card.eid_i, card.hid_hms,
                                                       card.r_hms, card.ax_ui)
    assert len(card.to_bytes()) == 100
    assert ProvisionalCard.from_bytes(card.to_bytes()) == card

    for cls, width in WIRE_WIDTHS:
        with pytest.raises(ValueError):
            cls.from_bytes(b"\x00" * (width - 1))
        with pytest.raises(ValueError):
            cls.from_bytes(b"\x00" * (width + 1))


@pytest.mark.parametrize("cls, width", WIRE_WIDTHS, ids=[c.__name__ for c, _ in WIRE_WIDTHS])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_width_bytes_decode_and_encode_to_themselves(cls, width, data):
    raw = data.draw(st.binary(min_size=width, max_size=width))
    msg = cls.from_bytes(raw)
    assert msg.to_bytes() == raw
    # the encoder is the plain concatenation of the fields, timestamps as
    # 8-byte big-endian
    assert raw == b"".join(oracle.ts(f) if isinstance(f, int) else f for f in msg)


# --- operation counts ----------------------------------------------------------------

def test_user_login_and_verify_cost_seven_hashes():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    before = gateway.ops.counts.copy()
    msg1 = gateway.start_login()
    msg2, _ = server.authenticate(msg1, SCOPE)
    gateway.accept_server_reply(msg2)
    delta = {k: gateway.ops.counts[k] - before[k] for k in OP_KEYS}
    assert delta["hash"] == 7
    assert delta["fe"] == 1
    assert delta["enc"] == 0 and delta["dec"] == 0


def test_server_authenticate_costs_ten_hashes():
    clock, ledger, server = make_world()
    gateway, _ = registered_user(clock, ledger, server)
    msg1 = gateway.start_login()
    before = server.ops.counts.copy()
    server.authenticate(msg1, SCOPE)
    delta = {k: server.ops.counts[k] - before[k] for k in OP_KEYS}
    assert delta["hash"] == 10       # static-secret digests are cached at setup
    assert delta["enc"] == 0 and delta["dec"] == 0 and delta["fe"] == 0
