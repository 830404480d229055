"""Acceptance gate: ten end-to-end properties, each pinned to an explicit
count or time budget. One test per property; the -v line is the pass/fail
verdict and the printed ACCEPTANCE line carries the measured numbers."""

import time
from collections import Counter

import pytest

import oracle
from l2ai.channel import parse_scenario
from l2ai.harness import HONEST_SCENARIO, SUITES, World, run_scenario
from l2ai.ledger import Ledger, LedgerBlock
from l2ai.permissions import Role, SCOPE_CATALOG
from l2ai.primitives import OP_KEYS, PrimitiveOps, RecoveryFailure, SimClock
from l2ai.protocol import (
    Credentials, HospitalServer, Msg1, Msg2, Reject, Stale, Unauthorized,
    UnknownPrincipal, UserGateway, login,
)

SCOPE = "read-patient-vitals"

# hand-transcribed copy of the default grant matrix; criterion 10 checks the
# running server cell-by-cell against this, not against the table object
EXPECTED_GRANTS = {
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


def fresh_pair(seed=42, delta_t=2000, role=Role.DOCTOR):
    """One server and one enrolled user, wired to the same clock and ledger."""
    clock, ledger = SimClock(), Ledger()
    server = HospitalServer(seed, clock, ledger, delta_t=delta_t)
    ops = PrimitiveOps(seed * 3 + 1)
    creds = Credentials(user_id=ops.rand_digest(), password=b"pw-acceptance",
                        bio=ops.rand_template())
    gateway = UserGateway(seed + 9, clock, ledger, creds, delta_t=delta_t)
    token = server.issue_token(b"code-1", role)
    gateway.accept_provisional(server.register(gateway.build_registration(token)))
    return clock, server, gateway, token


def enroll(server, ledger, clock, seed, role=Role.DOCTOR):
    ops = PrimitiveOps(seed)
    creds = Credentials(user_id=ops.rand_digest(),
                        password=b"pw-%d" % seed, bio=ops.rand_template())
    gateway = UserGateway(seed + 7, clock, ledger, creds,
                          delta_t=server.delta_t)
    token = server.issue_token(b"code-%d" % seed, role)
    gateway.accept_provisional(server.register(gateway.build_registration(token)))
    return gateway, token


def test_criterion_01_honest_runs_agree_on_session_keys():
    # 100 seeded full-protocol runs, every session verified with equal keys
    # on both ends, inside a 5 second budget
    scenario = parse_scenario(HONEST_SCENARIO)
    started = time.perf_counter()
    sessions = 0
    for seed in range(100):
        world = World(seed=seed)
        result = run_scenario(world, scenario)
        assert result.ok, (seed, result.violations)
        for s in world.sessions:
            assert s.outcome == "verified", (seed, s.outcome)
            assert s.sk_user == s.sk_server and s.sk_user is not None
            sessions += 1
    elapsed = time.perf_counter() - started
    assert sessions == 400
    assert elapsed < 5.0, f"honest sweep took {elapsed:.2f}s"
    print(f"ACCEPTANCE 01 PASS seeds=100 sessions={sessions} "
          f"elapsed={elapsed:.2f}s budget=5s")


def test_criterion_02_every_single_bit_flip_rejected():
    # all 544 one-bit corruptions of a valid first message and all 384 of a
    # valid reply are turned away, and the untouched originals still work,
    # inside a 30 second budget
    started = time.perf_counter()
    clock, server, gateway, _ = fresh_pair()
    rejections = Counter()

    msg1 = gateway.start_login()
    raw1 = msg1.to_bytes()
    for bit in range(len(raw1) * 8):
        flipped = bytearray(raw1)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            server.authenticate(Msg1.from_bytes(bytes(flipped)), SCOPE)
        except Reject as exc:
            rejections[type(exc).__name__] += 1
        else:
            pytest.fail(f"msg1 bit flip {bit} was accepted")
    assert sum(rejections.values()) == 544
    msg2, transcript = server.authenticate(Msg1.from_bytes(raw1), SCOPE)
    assert gateway.accept_server_reply(msg2) == transcript.sk

    msg1b = gateway.start_login()
    msg2b, transcript_b = server.authenticate(msg1b, SCOPE)
    raw2 = msg2b.to_bytes()
    reply_rejections = Counter()
    for bit in range(len(raw2) * 8):
        flipped = bytearray(raw2)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            gateway.accept_server_reply(Msg2.from_bytes(bytes(flipped)))
        except Reject as exc:
            reply_rejections[type(exc).__name__] += 1
        else:
            pytest.fail(f"msg2 bit flip {bit} was accepted")
    assert sum(reply_rejections.values()) == 384
    assert gateway.accept_server_reply(Msg2.from_bytes(raw2)) == transcript_b.sk

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"bit-flip sweep took {elapsed:.2f}s"
    print(f"ACCEPTANCE 02 PASS msg1-flips=544 {dict(rejections)} "
          f"msg2-flips=384 {dict(reply_rejections)} elapsed={elapsed:.2f}s")


def test_criterion_03_stale_replays_rejected_as_stale():
    # a verbatim copy presented just past the freshness window is rejected
    # as stale on every one of 100 attempts
    clock, server, gateway, _ = fresh_pair()
    stale = 0
    for _ in range(100):
        msg1 = gateway.start_login()
        raw = msg1.to_bytes()
        msg2, _ = server.authenticate(msg1, SCOPE)
        gateway.accept_server_reply(msg2)
        clock.advance(server.delta_t + 1)
        with pytest.raises(Stale):
            server.authenticate(Msg1.from_bytes(raw), SCOPE)
        stale += 1
    print(f"ACCEPTANCE 03 PASS replays={stale}/100 all Stale "
          f"delta-t={server.delta_t}ms offset=+{server.delta_t + 1}ms")


def test_criterion_04_pseudonyms_and_wire_fields_never_repeat():
    # 50 back-to-back sessions on one card: every dynamic wire field is
    # pairwise distinct, so two captures never look alike
    clock, server, gateway, _ = fresh_pair()
    firsts, replies, keys = [], [], []
    for _ in range(50):
        clock.advance(100)
        msg1 = gateway.start_login()
        msg2, transcript = server.authenticate(msg1, SCOPE)
        keys.append(gateway.accept_server_reply(msg2))
        firsts.append(msg1)
        replies.append(msg2)

    for label, values in [
        ("eid", {m.eid for m in firsts}),
        ("ax", {m.ax for m in firsts}),
        ("m1", {m.m1 for m in firsts}),
        ("t1", {m.t1 for m in firsts}),
        ("m2", {m.m2 for m in replies}),
        ("m3", {m.m3 for m in replies}),
        ("t2", {m.t2 for m in replies}),
        ("sk", set(keys)),
    ]:
        assert len(values) == 50, f"field {label} repeated across sessions"
    print("ACCEPTANCE 04 PASS sessions=50 distinct eid/ax/m1/t1/m2/m3/t2/sk "
          "pairwise")


def test_criterion_05_sketch_exhaustive_error_budget():
    # the biometric sketch recovers the key under every 1-bit and every
    # 2-bit corruption of the 256-bit template, and flags a 3-bit burst
    # inside a single code block instead of recovering silently
    ops = PrimitiveOps(99)
    bio = ops.rand_template()
    sigma, tau = ops.fe_gen(bio)

    singles = 0
    for bit in range(256):
        assert ops.fe_rep(bio.with_flips([bit]), tau) == sigma, f"bit {bit}"
        singles += 1

    doubles = 0
    for a in range(256):
        flipped_a = bio.with_flips([a])
        for b in range(a + 1, 256):
            assert ops.fe_rep(flipped_a.with_flips([b]), tau) == sigma, (a, b)
            doubles += 1
    assert singles == 256 and doubles == 32640

    detected = 0
    for burst in ([0, 1, 2], [85, 86, 87], [250, 251, 252]):
        with pytest.raises(RecoveryFailure):
            ops.fe_rep(bio.with_flips(burst), tau)
        detected += 1
    print(f"ACCEPTANCE 05 PASS singles={singles}/256 doubles={doubles}/32640 "
          f"bursts-detected={detected}/3")


def test_criterion_06_chain_tamper_exhaustive_detection():
    # every single-bit corruption of any byte of a 10-block chain (height,
    # back link, payload or block digest: each block is one record) makes
    # verification fail
    clock, server, gateway, _ = fresh_pair()
    for _ in range(3):
        clock.advance(100)
        msg2, _ = server.authenticate(gateway.start_login(), SCOPE)
        gateway.accept_server_reply(msg2)
    base = server.ledger.blocks[:10]
    assert len(base) == 10

    def chain_of(blocks):
        tampered = Ledger()
        tampered.blocks = list(blocks)
        return tampered

    assert chain_of(base).verify_chain()
    flips = 0
    for i, record in enumerate(base):
        for bit in range(len(record) * 8):
            mutated = bytearray(record)
            mutated[bit // 8] ^= 1 << (bit % 8)
            blocks = list(base)
            blocks[i] = bytes(mutated)
            assert not chain_of(blocks).verify_chain(), \
                f"block {i} bit {bit} undetected"
            flips += 1
        block = LedgerBlock.from_record(record)
        blocks = list(base)
        blocks[i] = block._replace(height=block.height + 1).to_record()
        assert not chain_of(blocks).verify_chain()
    expected = sum((len(LedgerBlock.from_record(r).payload) + 48) * 8 for r in base)
    assert flips == expected
    print(f"ACCEPTANCE 06 PASS blocks=10 bit-flips={flips} "
          f"height-bumps=10 all detected")


def test_criterion_07_operation_budget_headline_counts():
    # pinned primitive budgets: the user spends exactly 7 hash calls across
    # login plus reply verification, the server exactly 10 across one
    # authentication; neither side touches the cipher or the sketch there
    clock, server, gateway, _ = fresh_pair()
    clock.advance(100)

    u0 = gateway.ops.counts.copy()
    msg1 = gateway.start_login()
    login_delta = {k: gateway.ops.counts[k] - u0[k] for k in OP_KEYS}

    s0 = server.ops.counts.copy()
    msg2, _ = server.authenticate(msg1, SCOPE)
    auth_delta = {k: server.ops.counts[k] - s0[k] for k in OP_KEYS}

    u1 = gateway.ops.counts.copy()
    gateway.accept_server_reply(msg2)
    verify_delta = {k: gateway.ops.counts[k] - u1[k] for k in OP_KEYS}

    assert login_delta == {"hash": 6, "xor": 6, "enc": 0, "dec": 0, "fe": 1}
    assert verify_delta == {"hash": 1, "xor": 1, "enc": 0, "dec": 0, "fe": 0}
    assert auth_delta == {"hash": 10, "xor": 7, "enc": 0, "dec": 0, "fe": 0}
    user_hashes = login_delta["hash"] + verify_delta["hash"]
    assert user_hashes == 7 and auth_delta["hash"] == 10
    print(f"ACCEPTANCE 07 PASS user-session-hashes={user_hashes} "
          f"server-auth-hashes={auth_delta['hash']} fe-per-login=1")


def test_criterion_08_reference_agreement_100_seeds():
    # every derived value in a full run, wire bytes included, equals what
    # the straight-line reference recomputes from the drawn randoms alone,
    # across 100 seeds
    fields_checked = 0
    for seed in range(100):
        clock, ledger = SimClock(), Ledger()
        server = HospitalServer(seed, clock, ledger)
        ops = PrimitiveOps(seed ^ 0xACCE)
        creds = Credentials(user_id=ops.rand_digest(),
                            password=b"pw-%d" % seed, bio=ops.rand_template())
        gateway = UserGateway(seed + 1, clock, ledger, creds,
                              delta_t=server.delta_t)
        token = server.issue_token(b"code", Role.DOCTOR)

        req = gateway.build_registration(token)
        scratch = gateway._scratch
        ref_u = oracle.user_registration_fields(
            token.t_g, creds.user_id, creds.password,
            scratch.b_i)
        assert req.x == ref_u["x"]
        assert req.did == ref_u["did"]
        assert req.pwd == ref_u["pwd"]
        assert req.to_bytes() == oracle.reg_request_bytes(
            req.x, req.did, req.pwd)

        provisional = server.register(req)
        ref_s = oracle.server_registration_fields(
            server.s_hms, server.id_hms, token.t_g,
            req.did, req.pwd, provisional.r_hms)
        assert ref_s["user_id"] == creds.user_id
        assert provisional.k_i == ref_s["k"]
        assert provisional.eid_i == ref_s["eid"]
        assert provisional.hid_hms == ref_s["hid"]
        assert provisional.ax_ui == ref_s["ax"]

        gateway.accept_provisional(provisional)
        card = gateway.current_card()
        ref_c = oracle.finalize_fields(provisional.k_i,
                                       scratch.pwd_i, scratch.b_i)
        assert card.e_i == ref_c["e"] and card.f_i == ref_c["f"]

        clock.advance(100 + seed)
        msg1 = gateway.start_login()
        session = gateway._session
        sigma = gateway.ops.fe_rep(creds.bio, card.tau)
        ref_l = oracle.login_fields(
            creds.user_id, creds.password, oracle.h(sigma),
            card.e_i, card.f_i, card.r_hms,
            card.hid_hms, msg1.t1)
        assert ref_l["ok"]
        assert session.c_i == ref_l["c"]
        assert session.w1 == ref_l["w1"]
        assert msg1.m1 == ref_l["m1"]
        assert msg1.to_bytes() == oracle.msg1_bytes(
            msg1.t1, msg1.m1, msg1.eid, msg1.ax)

        msg2, transcript = server.authenticate(msg1, SCOPE)
        new_card = gateway.current_card()
        ref_a = oracle.server_auth_fields(
            server.s_hms, server.id_hms, creds.user_id,
            msg1.eid, msg1.ax, msg1.t1,
            transcript.n_s, msg2.t2, new_card.r_hms)
        assert ref_a["t_g"] == token.t_g
        assert transcript.sk == ref_a["sk"]
        assert msg2.m2 == ref_a["m2"]
        assert msg2.m3 == ref_a["m3"]
        assert new_card.eid_i == ref_a["eid_new"]
        assert new_card.ax_ui == ref_a["ax_new"]
        assert new_card.hid_hms == ref_a["hid_new"]
        assert msg2.to_bytes() == oracle.msg2_bytes(
            msg2.m3, msg2.m2, msg2.t2)

        sk = gateway.accept_server_reply(msg2)
        ref_v = oracle.user_verify_fields(
            session.c_i, session.w1, msg2.m2,
            msg2.m3, msg2.t2)
        assert ref_v["ok"] and sk == ref_v["sk"] == transcript.sk
        fields_checked += 24
    print(f"ACCEPTANCE 08 PASS seeds=100 fields-per-seed=24 "
          f"total-checks={fields_checked}")


def test_criterion_09_master_secret_never_leaves_server():
    # 1000 sessions across 50 users and 8 roles: the server's master secret
    # never appears as a byte substring of any wire payload or any chain
    # block payload; the packaged fuzz sweep agrees
    world = World(seed=1337)
    roles = list(Role)
    for i in range(50):
        world.register_user(f"user-{i:02d}", roles[i % len(roles)])
        world.drain()
    verified = 0
    for i in range(1000):
        name = f"user-{i % 50:02d}"
        role = roles[(i % 50) % len(roles)]
        choices = sorted(EXPECTED_GRANTS[role])
        session = world.auth_attempt(name, scope=choices[i % len(choices)])
        world.drain()
        if session.sk_user is not None:
            verified += 1
    assert verified == 1000
    assert world.ledger.verify_chain()

    # nothing dropped or tampered: the delivered payloads are every payload
    # that was put on the wire
    assert not world.channel.dropped
    assert not any(env.tampered for env, _ in world.channel.delivered)
    secret = world.server.s_hms
    wire = b"".join(env.payload for env, _ in world.channel.delivered)
    assert secret not in wire
    assert secret not in b"".join(world.ledger.blocks)       # links included
    assert SUITES["fuzz"](seed=1337, emit=lambda line: None) is True
    print(f"ACCEPTANCE 09 PASS sessions=1000 users=50 wire-bytes={len(wire)} "
          f"blocks={len(world.ledger.blocks)} secret-findings=0")


def test_criterion_10_authorization_matrix_and_revocation():
    # full role-by-scope matrix through real authentications, then 20
    # authorization swaps: the old card index is unknown afterwards and the
    # new role's scopes take effect immediately
    # the catalog is derived from the default table; pin it to the transcription
    assert set(SCOPE_CATALOG) == set().union(
        *(EXPECTED_GRANTS[r] for r in Role if r is not Role.ADMIN), {"manage-users"})
    clock, ledger = SimClock(), Ledger()
    server = HospitalServer(7, clock, ledger)
    granted = denied = 0
    for i, role in enumerate(Role):
        gateway, _ = enroll(server, ledger, clock, seed=300 + i, role=role)
        for scope in SCOPE_CATALOG:
            clock.advance(10)
            msg1 = gateway.start_login()
            if scope in EXPECTED_GRANTS[role]:
                msg2, transcript = server.authenticate(msg1, scope)
                assert gateway.accept_server_reply(msg2) == transcript.sk
                granted += 1
            else:
                with pytest.raises(Unauthorized):
                    server.authenticate(msg1, scope)
                denied += 1
    assert granted + denied == len(Role) * len(SCOPE_CATALOG) == 136
    assert granted == sum(len(EXPECTED_GRANTS[r]) for r in Role) == 40

    revoked = 0
    for i in range(20):
        gateway, _ = enroll(server, ledger, clock, seed=900 + i,
                            role=Role.DOCTOR)
        old_card = gateway.current_card()
        new_token = server.update_authorization(gateway.creds.user_id,
                                                Role.PATIENT)
        assert new_token.role == Role.PATIENT

        clock.advance(10)
        stale_msg1, _ = login(gateway.ops, clock, gateway.creds, old_card)
        with pytest.raises(UnknownPrincipal):
            server.authenticate(stale_msg1, "read-own-records")

        msg1 = gateway.start_login()
        with pytest.raises(Unauthorized):
            server.authenticate(msg1, "write-prescription")
        msg2, transcript = server.authenticate(msg1, "read-own-records")
        assert gateway.accept_server_reply(msg2) == transcript.sk
        revoked += 1
    assert revoked == 20
    print(f"ACCEPTANCE 10 PASS matrix-cells=136 granted={granted} "
          f"denied={denied} revocations={revoked}/20")
