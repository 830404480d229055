"""Harness tests: scenario execution, invariant checking, suites, CLI exit
codes, and the frozen seed-42 report/trace goldens."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from l2ai import cli, harness
from l2ai.channel import (
    HONEST_PHASES, Channel, ChannelError, ParseError, UnknownSeq, parse_scenario,
)
from l2ai.cli import main as cli_main
from l2ai.harness import (
    _ATTACK_CASES, AUTH_WIDTHS, CHAIN_VIOLATION, EXPECTED_OPS, HONEST_SCENARIO,
    SERVER, SUITES, Session, World, check_invariants, run_scenario,
)
from l2ai.permissions import (
    DEFAULT_TABLE_TEXT, SCOPE_CATALOG, PermissionTable, Role, RoleGrant,
)
from l2ai.ledger import Ledger, LedgerBlock, TokenRecord
from l2ai.primitives import WIDTH, seal, sha256_160
from l2ai.protocol import HospitalServer, RegRequest, UserGateway

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
RACES = Path(__file__).parent / "races"


def run_text(text: str, seed: int = 42):
    world = World(seed=seed)
    return world, run_scenario(world, parse_scenario(text))


def run_recorded(text: str, seed: int = 42):
    """run_text, also returning the (envelope, owner) pair each delivery
    handed the shared handler, and the owner each send named, by seq."""
    world = World(seed=seed)
    received, owners = [], {}
    shared, send = world.handlers[SERVER], world.channel.send

    def recording(env, owner):
        received.append((env, owner))
        return shared(env, owner)

    def recording_send(src, dst, payload, owner=None):
        env = send(src, dst, payload, owner)
        owners[env.seq] = owner
        return env

    world.handlers[SERVER] = recording      # get_user shares it with every user
    world.channel.send = recording_send
    return world, run_scenario(world, parse_scenario(text)), received, owners


def assert_each_delivery_had_its_senders_owner(world, received, owners):
    # the original and every replayed copy hand over the owner its send named;
    # a dropped original reaches no handler
    assert all(owner is owners[env.replay_of or env.seq] for env, owner in received)
    assert not {env.seq for env, _ in received} & world.channel.dropped


def test_honest_scenario_all_sessions_verified():
    world, result = run_text(HONEST_SCENARIO)
    assert result.ok, result.violations
    assert [s.outcome for s in world.sessions] == ["verified"] * 4
    assert all(s.sk_user is s.sk_server for s in world.sessions)   # stored once
    assert len({s.sk_user for s in world.sessions}) == 4
    assert world.ledger.verify_chain()


def test_same_seed_same_world_digest():
    _, first = run_text(HONEST_SCENARIO, seed=7)
    _, second = run_text(HONEST_SCENARIO, seed=7)
    assert first.report_lines() == second.report_lines()
    _, other = run_text(HONEST_SCENARIO, seed=8)
    assert first.report_lines() != other.report_lines()


def test_report_matches_golden():
    world, result = run_text(HONEST_SCENARIO, seed=42)
    expected = (GOLDEN / "honest-seed42-report.txt").read_text(encoding="utf-8").splitlines()
    assert result.report_lines() == expected


def test_trace_matches_golden():
    world, result = run_text(HONEST_SCENARIO, seed=42)
    expected = (GOLDEN / "honest-seed42-trace.txt").read_text(encoding="utf-8").splitlines()
    assert world.channel.log == expected


def report_digest(world: World) -> str:
    (line,) = [ln for ln in world.report_lines([]) if "event-digest=" in ln]
    return line.split("event-digest=")[1]


def test_event_digest_covers_lines_not_yet_drained():
    world, _ = run_text("honest register a\n")
    world.auth_attempt("a")                       # msg1 sent, never drained
    assert world.channel.log[-1] == "00000100 SEND seq=3 a->hms len=68"
    assert report_digest(world) == \
        sha256_160("\n".join(world.channel.log).encode()).hex()


def test_event_digest_covers_lines_logged_before_a_channel_error():
    # the drop names the wrong parties for the server's reply, which is sent
    # from inside the drain that delivers msg1
    world = World(seed=42)
    with pytest.raises(ChannelError):
        run_scenario(world, parse_scenario(
            "honest register a\nhonest auth a\ndrop hms nobody 4\n"))
    log = world.channel.log
    assert log[-2:] == ["00000150 DELIVER seq=3 a->hms len=68",
                        "00000150 SEND seq=4 hms->a len=48"]
    assert report_digest(world) == sha256_160("\n".join(log).encode()).hex()


def test_report_neither_joins_nor_reads_the_trace(monkeypatch):
    # 2,000 sessions leave a trace of about 560 K characters; the report
    # hashes only its open chunk, so its peak stays well below the trace,
    # where joining and encoding the trace took more than twice its length
    world = World(seed=5)
    for i in range(200):
        world.register_user(f"u{i:03d}")
    world.drain()
    for i in range(2000):
        world.auth_attempt(f"u{i % 200:03d}")
        world.drain()
        world.clock.advance(1 + i % 40)
    violations = check_invariants(world)
    trace = world.channel.trace
    gc.collect()
    tracemalloc.start()
    try:
        lines = world.report_lines(violations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not violations and len(trace) > 500_000
    assert f"summary event-digest={sha256_160(trace.encode()).hex()}" in lines
    assert peak < len(trace), f"report peak {peak} B for a {len(trace)}-character trace"

    def unread(channel):
        raise AssertionError("the report read Channel.trace")

    monkeypatch.setattr(Channel, "trace", property(unread))
    assert world.report_lines(violations) == lines


def test_tampered_msg1_rejected_without_violations():
    world, result = run_text(
        "honest register alice\nhonest auth alice\nmodify 3 10 ff\n")
    assert result.ok
    assert world.sessions[0].outcome == "rejected BadMac"


def test_tampered_provisional_taints_user_and_dies_at_server():
    # registration runs over the protected enrollment path; tampering it
    # yields an internally consistent but server-useless card
    world, result = run_text(
        "honest register alice\nmodify 2 3 ff\nhonest auth alice\n")
    assert "alice" in world.tainted
    assert world.sessions[0].outcome == "rejected BadMac"
    assert result.ok          # tainted users are exempt from completion


def test_dropped_registration_taints_user():
    world, result = run_text(
        "honest register alice\ndrop alice hms 1\nhonest auth alice\n")
    assert "alice" in world.tainted
    assert world.sessions[0].local_reject == "rejected UnexpectedMessage"
    assert result.ok


# Enrollment runs over a protected path: any disturbance of the reg-request
# (seq 1) or the provisional card (seq 2) taints the user and nothing else. A
# dropped send taints its user when it is sent, since the channel decides
# drops there.
@pytest.mark.parametrize("attack", [
    "drop alice hms 1", "modify 1 0 01", "replay 1 10",
    "drop hms alice 2", "modify 2 3 ff", "replay 2 60",
])
def test_enrollment_disturbance_taints_its_user(attack):
    world, result = run_text(f"honest register alice\n{attack}\nhonest auth alice\n")
    assert world.tainted == {"alice"}
    assert result.ok, result.violations


# authentication traffic belongs to a Session, so disturbing it taints nobody;
# every authentication-width delivery carries its Session, replays included
@pytest.mark.parametrize("script", [
    *(pytest.param(f"honest register alice\nhonest auth alice\n{attack}\n", id=attack)
      for attack in ("modify 3 10 ff", "replay 3 120", "modify 4 5 80", "replay 4 210")),
    pytest.param(HONEST_SCENARIO, id="honest"),
    *(pytest.param(text, id=name) for name, text, _ in _ATTACK_CASES),
])
def test_auth_disturbance_taints_nobody(script):
    world, _, received, owners = run_recorded(script)
    assert world.tainted == set()
    auth = [owner for env, owner in received if len(env.payload) in AUTH_WIDTHS]
    assert auth and all(isinstance(owner, Session) for owner in auth)
    assert_each_delivery_had_its_senders_owner(world, received, owners)


# the channel decides each drop and modification at send time, and the send
# marks its Session hit there; a replay or an eavesdrop hits nothing
@pytest.mark.parametrize("attack, hit", [
    ("drop alice hms 3", True), ("modify 3 10 ff", True),
    ("drop hms alice 4", True), ("modify 4 5 80", True),
    ("replay 3 120", False), ("replay 4 210", False), ("eavesdrop 3", False),
])
def test_a_session_is_hit_when_the_channel_drops_or_modifies_its_message(attack, hit):
    world, result = run_text(f"honest register alice\nhonest auth alice\n{attack}\n")
    assert result.ok, result.violations
    assert [session.hit for session in world.sessions] == [hit]
    # the verdict reads the flag, not the channel's drop set or tampered flags
    world.channel.dropped.clear()
    for env in world.channel.deliveries:
        env.tampered = False
    assert check_invariants(world) == []


def test_unexpected_width_is_rejected_without_a_protocol_call():
    # a reply width sent to the server and a request width sent to a user
    world, result = run_text("honest register alice\nhonest auth alice\n")
    assert result.ok, result.violations
    calls = dict(world.phase_calls)
    sessions = [replace(session) for session in world.sessions]
    world.channel.send("alice", SERVER, bytes(48))
    world.channel.send(SERVER, "alice", bytes(68))
    world.drain()
    assert [env.outcome for env in world.channel.deliveries[-2:]] == [
        "rejected UnexpectedMessage (48B to hms)",
        "rejected UnexpectedMessage (68B to alice)",
    ]
    assert world.phase_calls == calls
    assert world.tainted == set()
    assert world.sessions == sessions


@pytest.mark.parametrize("attack, outcome", [
    # a verified reply outranks the server's rejection of the original msg1
    ("replay 3 120", "verified"),
    # which outranks the user's rejection of the reply it got instead
    ("replay 3 120\nmodify 4 5 80", "rejected UnknownPrincipal"),
    # a rejected replayed copy of the reply never counts
    ("replay 4 210", "verified"),
    # a verified copy outranks the late original reply's UnexpectedMessage
    ("replay 4 160", "verified"),
    ("drop alice hms 3", "pending"),
])
def test_session_outcome_precedence(attack, outcome):
    world, _, received, owners = run_recorded(
        f"honest register alice\nhonest auth alice\n{attack}\n")
    (session,) = world.sessions
    assert session.outcome == outcome
    assert session.local_reject is None
    # every auth-width delivery, replayed copies included, handed over the Session
    auth = [owner for env, owner in received if len(env.payload) in AUTH_WIDTHS]
    assert all(owner is session for owner in auth)
    assert auth or attack.startswith("drop")        # a dropped msg1 reaches no handler
    assert_each_delivery_had_its_senders_owner(world, received, owners)
    assert not hasattr(session.msg1_env, "owner")   # no envelope points back


# A finished run holds no reference cycle, so reference counting frees it the
# moment its last reference goes, also after an UnknownSeq exit or a handler's
# reply send raising ChannelError: the handler reaches its World through a weak
# reference, and a send's owner rides in its queue entry, never on an envelope.
@pytest.mark.parametrize("script, code, exc", [
    pytest.param(HONEST_SCENARIO, 0, None, id="honest"),
    *(pytest.param(text, 0, None, id=name) for name, text, _ in _ATTACK_CASES),
    pytest.param("honest register alice\nhonest auth alice\n"
                 "drop alice hms 3\nreplay 3 2101\n", 0, None,
                 id="dropped-then-replayed-msg1"),
    pytest.param("honest register alice\nhonest auth alice\neavesdrop 9\n", 2,
                 UnknownSeq, id="unknown-seq"),
    pytest.param("honest register alice\nhonest auth alice\nreplay 4 10\n", 2,
                 ChannelError, id="reply-send-raises"),
])
@pytest.mark.parametrize("via", ["run_scenario", "cli"])
def test_a_finished_run_leaves_nothing_for_the_cycle_collector(script, code, exc, via,
                                                                tmp_path):
    path = tmp_path / "s.scn"
    path.write_text(script, encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        if via == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                assert cli_main(["run", str(path)]) == code
        elif exc is None:
            run_text(script)
        else:
            with pytest.raises(exc) as raised:
                run_text(script)
            assert type(raised.value) is exc
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_clean_rejection_is_a_violation():
    # a patient token asking for a doctor scope on untouched wire must fail
    # the completion invariant: the run is judged broken, exit code 1
    world, result = run_text(
        "honest register dave P\nhonest auth dave\n")
    assert not result.ok
    assert any("did not complete" in v for v in result.violations)


def test_checker_catches_rigged_acceptances():
    # replace the server handler with one that accepts anything: both the
    # tamper check and the double-acceptance check must fire, also when the
    # replayed original is untouched
    for attack, tampered in (("modify 3 0 ff\nreplay 3 400", True), ("replay 3 400", False)):
        world = World(seed=1)
        world.register_user("mallory")
        world.drain()
        world.handlers[SERVER] = lambda env, owner: "accepted sk=00000000"
        result = run_scenario(world, parse_scenario(f"honest auth mallory\n{attack}\n"))
        text = "\n".join(result.violations)
        assert ("tampered delivery" in text) == tampered
        assert "message seq=3 accepted 2 times" in text
        assert result.violations == full_scan_verdict(world)

    # a gateway that keeps a key of its own: both ends verify, keys differ
    world = World(seed=1)
    world.register_user("mallory")
    world.drain()
    world.users["mallory"].accept_server_reply = lambda msg2: bytes(WIDTH)
    result = run_scenario(world, parse_scenario("honest auth mallory\n"))
    assert world.sessions[0].outcome == "verified"
    assert result.violations[-1] == "session keys differ for user=mallory"


def test_tampered_chain_is_reported():
    # the verdict verifies the chain once; the report renders that verdict
    world, result = run_text(HONEST_SCENARIO)
    assert result.ok
    block = LedgerBlock.from_record(world.ledger.blocks[3])
    world.ledger.blocks[3] = block._replace(payload=bytes([block.payload[0] ^ 1])
                                            + block.payload[1:]).to_record()
    violations = check_invariants(world)
    assert violations == [CHAIN_VIOLATION]
    lines = world.report_lines(violations)
    assert f"violation {CHAIN_VIOLATION}" in lines
    assert f"summary ledger-blocks={len(world.ledger.blocks)} chain-ok=NO" in lines
    assert "summary violations=1" in lines


def test_registration_with_identity_index_digest_is_unknown_token():
    # A live identity-index digest is not a token digest: the server must
    # reject the request, not let a ledger miss escape the handler.
    world = World(seed=1)
    world.register_user("alice")
    world.drain()
    h_dtid = world.ledger.live_index_for(world.users["alice"].creds.user_id)
    assert h_dtid is not None
    filler = bytes(WIDTH)
    env = world.channel.send("alice", SERVER,
                             RegRequest(x=h_dtid, did=filler, pwd=filler).to_bytes())
    world.drain()
    assert world.channel.delivered[-1] == (env, "rejected UnknownToken")
    assert check_invariants(world) == []
    assert world.ledger.verify_chain()


@pytest.mark.parametrize("size", [WIDTH - 1, WIDTH + 1])
def test_registration_with_a_wrong_width_sealed_token_is_rejected(size):
    # a live token record whose plaintext under the server secret is not a
    # 20-byte token: the delivery ends in a rejection, not an exception
    world = World(seed=1)
    t_g = bytes(range(1, size + 1))
    x = sha256_160(t_g)
    world.ledger.append(TokenRecord(x=x, y=seal(world.server.s_hms, t_g, bytes(16))))
    filler = bytes(WIDTH)
    env = world.channel.send("alice", SERVER,
                             RegRequest(x=x, did=filler, pwd=filler).to_bytes())
    world.drain()
    assert world.channel.delivered[-1] == (env, "rejected ValueError")


def test_second_registration_of_a_live_identity_is_already_registered(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("honest register a\nhonest register a\n", encoding="utf-8")
    trace = tmp_path / "trace.txt"
    assert cli_main(["run", str(scn), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_text(encoding="utf-8").endswith(
        "OUTCOME seq=3 rejected AlreadyRegistered\n")


def test_update_auth_on_tainted_card_is_a_rejection(tmp_path, capsys):
    # a tampered provisional card points at no known token: the role update
    # is rejected like any other, instead of a ledger miss escaping the run
    scn = tmp_path / "s.scn"
    scn.write_text("honest register alice\nmodify 2 25 ff\nhonest update-auth alice P\n",
                   encoding="utf-8")
    assert cli_main(["run", str(scn)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "step kind=update-auth user=alice result=rejected UnknownPrincipal" in out
    assert "summary users=1 tainted=1" in out
    assert "summary violations=0" in out


# Delivery-order races around one login and around enrollment. Their full
# reports are pinned: among other things, a server rejection of the original
# msg1 outranks the user's rejection of a reply, and a replay of enrollment
# traffic taints the user.
RACE_SCENARIOS = {
    "replay-reply-race": "honest auth alice\nreplay 3 120\n",
    "replay-tampered-reply": "honest auth alice\nreplay 3 120\nmodify 4 5 80\n",
    "replay-dropped-reply":
        "honest auth alice\nreplay 3 120\nmodify 4 5 80\ndrop hms alice 4\n",
    "replay-provisional": "replay 2 60\nhonest auth alice\n",
    "replay-reg-request": "replay 1 10\nhonest auth alice\n",
}


@pytest.mark.parametrize("name", sorted(RACE_SCENARIOS))
def test_race_report_is_pinned(name, tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("honest register alice\n" + RACE_SCENARIOS[name], encoding="utf-8")
    assert cli_main(["run", str(scn)]) == 0
    assert capsys.readouterr().out == (RACES / f"{name}.txt").read_text(encoding="utf-8")


# --- the verdict reads only the adversary's deliveries --------------------------------


def full_scan_verdict(world: World) -> list[str]:
    """check_invariants as it was when its two adversary checks scanned every
    delivery: the reference that the scan of `adversary_deliveries` equals."""
    violations = []
    if not world.ledger.verify_chain():
        violations.append(CHAIN_VIOLATION)
    accepted = Counter()
    for env in world.channel.deliveries:
        if not env.outcome.startswith("rejected") and len(env.payload) in AUTH_WIDTHS:
            if env.tampered:
                violations.append(f"tampered delivery seq={env.seq} accepted: "
                                  f"{env.outcome}")
            accepted[env.seq if env.replay_of is None else env.replay_of] += 1
    violations.extend(f"message seq={origin} accepted {count} times "
                      "(replay got through)"
                      for origin, count in sorted(accepted.items()) if count > 1)
    mismatched = []
    for session in world.sessions:
        if session.sk_user is not None and session.sk_server is not None \
                and session.sk_user != session.sk_server:
            mismatched.append(f"session keys differ for user={session.user}")
        if session.msg1_env is None or session.hit or session.user in world.tainted:
            continue
        if session.sk_user is None or session.sk_user != session.sk_server:
            violations.append(f"untouched session (user={session.user} "
                              f"seq={session.msg1_env.seq}) did not complete: "
                              f"{session.outcome}")
    return violations + mismatched


# two modifies of one field, on the card and on the msg1 built from it,
# cancel: the server accepts a tampered msg1, and the verdict must say so
CANCELLING_MODIFIES = HONEST_SCENARIO + "modify 2 20 01\nmodify 5 28 01\n"

EXACTNESS_SCRIPTS = {
    **{name: text for name, text, _ in _ATTACK_CASES},
    **{f"race-{name}": "honest register alice\n" + text
       for name, text in RACE_SCENARIOS.items()},
    "cancelling-modifies": CANCELLING_MODIFIES,
}


@pytest.mark.parametrize("name", EXACTNESS_SCRIPTS)
def test_the_verdict_equals_a_scan_of_every_delivery(name):
    world, result = run_text(EXACTNESS_SCRIPTS[name])
    assert result.violations == full_scan_verdict(world)


def test_cancelling_modifies_are_a_tampered_acceptance():
    _, result = run_text(CANCELLING_MODIFIES)
    assert result.violations == ["tampered delivery seq=5 accepted: accepted sk=cb656fd6"]


def test_wrong_password_never_reaches_wire():
    world = World(seed=3)
    world.register_user("erin")
    world.drain()
    gateway = world.get_user("erin")
    bad = replace(gateway.creds, password=b"nope")
    session = world.auth_attempt("erin", creds=bad)
    assert session.local_reject == "rejected LocalVerifyFailed"
    assert session.msg1_env is None
    assert gateway.creds.password == b"pw-erin"     # the injected creds are not kept


def test_scope_by_session_not_global():
    world = World(seed=4)
    world.register_user("fay", Role.NURSE)
    world.drain()
    ok = world.auth_attempt("fay", scope="record-vitals")
    world.drain()
    bad = world.auth_attempt("fay", scope="write-prescription")
    world.drain()
    assert ok.outcome == "verified"
    assert bad.outcome == "rejected Unauthorized"


@pytest.mark.parametrize("name", ["honest", "attacks", "metrics", "fuzz"])
def test_suite_passes(name):
    lines = []
    assert SUITES[name](seed=42, emit=lines.append) is True
    golden = GOLDEN / f"suite-{name}-seed42.txt"
    assert lines == golden.read_text(encoding="utf-8").splitlines()


def test_honest_suite_reports_a_violating_seed(monkeypatch):
    # a checker that finds one violation on one seed fails the suite
    check = harness.check_invariants
    monkeypatch.setattr(harness, "check_invariants",
                        lambda world: check(world) + ["planted"] * (world.seed == 44))
    lines = []
    assert SUITES["honest"](seed=42, emit=lines.append) is False
    assert lines[1:4] == ["ok honest seed=43 sessions=4 verified=4 distinct-keys=4",
                          "FAIL honest seed=44 sessions=4 verified=4 distinct-keys=4",
                          "  violation: planted"]
    assert sum(line.startswith("FAIL") for line in lines) == 1 and len(lines) == 21


def test_attack_suite_reports_expectations_that_do_not_match(monkeypatch):
    _, replay_text, _ = _ATTACK_CASES[0]
    monkeypatch.setattr(harness, "_ATTACK_CASES", [
        ("wrong-replay", replay_text,
         {"replay_outcome": "verified", "verified": 0}),
        ("wrong-sessions", "honest register alice\nhonest auth alice\n",
         {"session_outcomes": ["pending"], "verified": 1}),
    ])
    lines = []
    assert SUITES["attacks"](seed=42, emit=lines.append) is False
    assert lines == [
        "FAIL attack wrong-replay",
        "  problem: expected 0 verified, got 1",
        "  problem: replay outcomes ['rejected UnknownPrincipal'] != [verified]",
        "FAIL attack wrong-sessions",
        "  problem: session outcomes ['verified'] != ['pending']",
        "ok attack scope-outside-role (outcome=rejected Unauthorized)",
    ]


def test_attack_suite_reports_a_scope_granted_outside_the_role(monkeypatch):
    monkeypatch.setattr(harness, "_ATTACK_CASES", [])
    monkeypatch.setattr(PermissionTable, "allows", lambda self, role, scope, at_ms: True)
    lines = []
    assert SUITES["attacks"](seed=42, emit=lines.append) is False
    assert lines == ["FAIL attack scope-outside-role (outcome=verified)"]


def _wrong_login_counts(monkeypatch):
    login = EXPECTED_OPS[("user", "login")]
    monkeypatch.setitem(EXPECTED_OPS, ("user", "login"), {**login, "hash": login["hash"] + 1})


# one fault per run, each failing exactly one of the suite's checks
@pytest.mark.parametrize("fault, failed", [
    (_wrong_login_counts,
     "FAIL metrics side=user phase=login calls=4 hash=24/28 xor=24/24 enc=0/0 dec=0/0 fe=4/4"),
    (lambda mp: mp.setitem(EXPECTED_OPS, ("server", "audit"), EXPECTED_OPS[("user", "verify")]),
     "FAIL metrics side=server phase=audit: never exercised"),
    (lambda mp: mp.setitem(harness.WIRE_KINDS, 1, "probe"),
     "FAIL metrics wire-widths 1B=0 48B=4 60B=2 68B=4 100B=2"),
    (lambda mp: mp.setattr(Ledger, "verify_chain", lambda self: False),
     f"FAIL metrics: {CHAIN_VIOLATION}"),
], ids=["wrong-counts", "never-exercised", "wire-kind-never-sent", "violation"])
def test_metrics_suite_reports_each_failed_check(monkeypatch, fault, failed):
    fault(monkeypatch)
    lines = []
    assert SUITES["metrics"](seed=42, emit=lines.append) is False
    assert [line for line in lines if line.startswith("FAIL")] == [failed]


def test_fuzz_suite_scaled_down():
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append)
    assert lines[0].startswith("ok fuzz")


def test_fuzz_suite_reports_a_session_that_does_not_verify(monkeypatch):
    monkeypatch.setattr(PermissionTable, "allows", lambda self, role, scope, at_ms: False)
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[0].startswith("FAIL fuzz sessions=80 users=8 ")
    assert lines[1] == "  problem: session #0 user=u03 scope=read-prescriptions: " \
                       "rejected Unauthorized"
    assert len(lines) == 21         # the first twenty problems


def test_fuzz_suite_reports_tampered_traffic(monkeypatch):
    # the first session's server reply is modified on the wire
    init = Channel.__init__

    def armed(self, *args):
        init(self, *args)
        self.script_modify(18, 5, b"\x80")

    monkeypatch.setattr(Channel, "__init__", armed)
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[1:] == [
        "  problem: session #0 user=u03 scope=read-prescriptions: rejected BadMac",
        "  problem: fuzz traffic was dropped or tampered"]


def test_fuzz_suite_reports_the_verdict_of_the_invariant_checker(monkeypatch):
    monkeypatch.setattr(Ledger, "verify_chain", lambda self: False)
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[1:] == [f"  problem: {CHAIN_VIOLATION}"]


def test_fuzz_suite_reports_the_master_secret_on_the_wire(monkeypatch):
    # a server that also sends its master secret to a user, in the final drain
    drain = World.drain

    def leaky_drain(self, strict=False):
        if strict:
            self.channel.send(SERVER, "u00", self.server.s_hms)
        drain(self, strict)

    monkeypatch.setattr(World, "drain", leaky_drain)
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[1:] == ["  problem: master secret bytes appeared on the wire"]


def test_fuzz_suite_reports_a_wrong_password_that_reached_the_wire(monkeypatch):
    # a gateway that logs in with its held factors whatever it is given
    start_login = UserGateway.start_login
    monkeypatch.setattr(UserGateway, "start_login", lambda self, creds=None: start_login(self))
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[0].startswith("FAIL fuzz")
    problems = [line for line in lines if line.startswith("  problem: wrong password #")]
    assert problems and any(line.endswith(" reached the wire") for line in problems)
    assert all("master secret" not in line for line in lines)

    # the last session is such a login: only the final drain delivers it, so
    # it verifies and the verdict holds
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=5, users=8, emit=lines.append) is False
    assert lines == [
        "FAIL fuzz sessions=5 users=8 mix=honest:2,noisy-bio:2,wrong-password:1 "
        "wire-bytes=1860 ledger-blocks=39",
        "  problem: wrong password #4: pending",
        "  problem: wrong password #4 reached the wire"]


def test_fuzz_suite_reports_the_master_secret_in_a_ledger_record(monkeypatch):
    # a server that also files its master secret as a token digest, once
    issue_token = HospitalServer.issue_token

    def leaky_issue_token(self, national_code, role):
        t_g = issue_token(self, national_code, role)
        if self.ledger.get_token(self.s_hms) is None:
            self.ledger.append(TokenRecord(self.s_hms, seal(self.s_hms, t_g, bytes(16))))
        return t_g

    monkeypatch.setattr(HospitalServer, "issue_token", leaky_issue_token)
    lines = []
    assert SUITES["fuzz"](seed=42, sessions=80, users=8, emit=lines.append) is False
    assert lines[1:] == ["  problem: master secret bytes appeared in the ledger records"]


def test_expected_ops_table_is_exhaustive():
    sides = {side for side, _ in EXPECTED_OPS}
    assert sides == {"user", "server"}
    for counts in EXPECTED_OPS.values():
        assert set(counts) == {"hash", "xor", "enc", "dec", "fe"}


def test_counts_land_where_the_call_was_metered():
    world = World(seed=42)
    ops = world.server.ops
    own = ops.counts
    # the server's two setup hashes are spent outside any metered call
    assert world.phase_ops == {}
    assert own == {"hash": 2, "xor": 0, "enc": 0, "dec": 0, "fe": 0}

    def spend_then_fail():
        ops.hash(b"x")
        raise RuntimeError("not a rejection")

    with pytest.raises(RuntimeError):
        world._metered(("server", "probe"), ops, spend_then_fail)
    probe = {"hash": 1, "xor": 0, "enc": 0, "dec": 0, "fe": 0}
    assert world.phase_calls == {("server", "probe"): 1}
    assert world.phase_ops == {("server", "probe"): probe}

    assert ops.counts is own
    ops.hash(b"y")
    assert world.phase_ops == {("server", "probe"): probe}
    assert own == {"hash": 3, "xor": 0, "enc": 0, "dec": 0, "fe": 0}

    # each phase key is one constant: two runs key their maps by the same objects
    first, second = (sorted(run_text(HONEST_SCENARIO)[0].phase_ops) for _ in range(2))
    assert first == sorted(EXPECTED_OPS)
    assert all(a is b for a, b in zip(first, second))


def test_gateways_hold_no_generator_between_flows():
    world = World(seed=5)
    world.register_user("alice")
    world.register_user("bob")
    world.drain()
    assert [g.ops.rng for g in world.users.values()] == [None, None]
    world.auth_attempt("alice")
    world.update_user_credentials("alice")
    world.update_user_credentials("carol")      # no card: rejected, still released
    world.drain()
    assert world.step_notes[-1].endswith("result=rejected UnexpectedMessage")
    assert [s.outcome for s in world.sessions] == ["verified"]
    assert [g.ops.rng for g in world.users.values()] == [None, None, None]
    assert world.server.ops.rng is not None     # only the end of a run releases it


def test_an_enrolled_user_keeps_no_generator():
    # an enrolled user costs its gateway, card, ledger records and log lines:
    # about 4.2 KB, and 6.8 KB while each gateway kept its 2.5 KB generator
    world, extra = World(seed=3), 8
    for i in range(4):
        world.register_user(f"user{i}")
    world.drain()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(4, 4 + extra):
            world.register_user(f"user{i}")
            world.drain()
        gc.collect()
        kept = (tracemalloc.get_traced_memory()[0] - before) / extra
    finally:
        tracemalloc.stop()
    assert kept < 5400, f"{kept:.0f} B retained per enrolled user"


def test_a_finished_run_holds_no_generator():
    # bob only tries to log in, so his gateway never draws or builds a generator
    world, _ = run_text("honest register alice\nhonest auth alice\nhonest auth bob\n")
    assert world.sessions[-1].local_reject is not None
    assert world.server.ops.rng is None
    assert [g.ops.rng for g in world.users.values()] == [None, None]


def test_a_run_releases_a_generator_a_gateway_built_before_it():
    world = World(seed=5)
    world.get_user("alice").ops.rand_digest()       # a draw outside any flow
    assert world.users["alice"].ops.rng is not None
    run_scenario(world, parse_scenario("honest register bob\n"))
    assert [g.ops.rng for g in world.users.values()] == [None, None]


def test_report_counts_each_kind_of_session():
    # the wrong password never reaches the wire (local), seq 3 is dropped
    # (pending), seq 4 verifies and seq 6 is modified (rejected)
    world = World(seed=42)
    parse_scenario("drop alice hms 3\nmodify 6 10 ff\n").arm(world.channel)
    world.register_user("alice")
    world.drain()
    wrong = replace(world.users["alice"].creds, password=b"nope")
    for creds in (wrong, None, None, None):
        world.auth_attempt("alice", creds=creds)
        world.drain()
    world.drain(strict=True)
    assert [s.outcome for s in world.sessions] == [
        "rejected LocalVerifyFailed", "pending", "verified", "rejected BadMac"]
    violations = check_invariants(world)
    assert violations == []
    lines = world.report_lines(violations)
    assert "session user=alice scope=read-patient-vitals msg1-seq=- t1=- " \
           "outcome=rejected LocalVerifyFailed sk=-" in lines
    assert "summary sessions=4 verified=1 rejected=1 pending=1 local=1" in lines


def test_a_world_continued_after_a_run_draws_like_an_unreleased_twin():
    scenario = parse_scenario(HONEST_SCENARIO)
    ran, twin = World(seed=9), World(seed=9)
    run_scenario(ran, scenario)
    scenario.arm(twin.channel)
    for name, args in scenario.steps:
        getattr(twin, name)(*args)
        twin.drain()
    twin.drain(strict=True)
    assert twin.server.ops.rng is not None
    for world in (ran, twin):
        world.auth_attempt("alice")
        world.drain(strict=True)
    assert ran.sessions[-1].outcome == twin.sessions[-1].outcome == "verified"
    assert ran.sessions[-1].sk_user == twin.sessions[-1].sk_user
    assert ran.server.ops.drawn == twin.server.ops.drawn
    assert ran.channel.trace == twin.channel.trace


def test_every_party_shares_one_delivery_handler():
    world, _ = run_text(HONEST_SCENARIO)
    handler = world.handlers[SERVER]
    assert sorted(world.handlers) == sorted([SERVER, *world.users])
    assert all(h is handler for h in world.handlers.values())
    # a weak reference to its World and no more: no cycle, no per-World dict
    assert weakref.ref.__call__(handler) is world
    assert sys.getsizeof(handler) == sys.getsizeof(weakref.ref(world))


def test_worlds_do_not_share_a_permission_table():
    first, second = World(seed=1), World(seed=2)
    first.server.perm_table.grants[Role.PATIENT] = RoleGrant(scopes=None, window=None)
    del first.server.perm_table.grants[Role.LABORATORY]
    builtin = PermissionTable.parse(DEFAULT_TABLE_TEXT).grants
    assert second.server.perm_table.grants == builtin
    assert PermissionTable.default().grants == builtin
    assert not second.server.perm_table.allows(Role.PATIENT, "manage-users", at_ms=0)
    assert first.server.perm_table.allows(Role.PATIENT, "manage-users", at_ms=0)


# --- command line ----------------------------------------------------------------

def test_cli_run_writes_report_and_trace(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("honest register a\nhonest auth a\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    trace = tmp_path / "trace.txt"
    rc = cli_main(["run", str(scn), "--report", str(report), "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary violations=0" in out
    assert report.read_text(encoding="utf-8") == out
    assert trace.read_text(encoding="utf-8").startswith("00000000 SEND seq=1")


def test_cli_empty_scenario_trace_is_one_newline(tmp_path, capsys):
    scn = tmp_path / "empty.scn"
    scn.write_text("", encoding="utf-8")
    trace = tmp_path / "trace.txt"
    assert cli_main(["run", str(scn), "--trace", str(trace)]) == 0
    assert trace.read_bytes() == b"\n"


@pytest.mark.parametrize("script", [
    HONEST_SCENARIO,
    "honest register a\nhonest auth a\nhonest auth a\ndrop a hms 3\n"
    "replay 3 400\nmodify 5 5 80\n",
], ids=["honest", "attacked"])
def test_cli_export_trace_equals_run_trace(tmp_path, capsys, script):
    scn = tmp_path / "s.scn"
    scn.write_text(script, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    out = tmp_path / "exported"
    run_rc = cli_main(["run", str(scn), "--trace", str(trace)])
    export_rc = cli_main(["export", str(scn), "--out", str(out)])
    capsys.readouterr()
    assert run_rc == export_rc
    assert (out / "trace.txt").read_bytes() == trace.read_bytes()


# Adversary lines interleaved with each other and with honest steps, several
# on one seq, with the exit code each run ends in. Only a second drop on one
# seq fails when armed; everything else fails or acts at send time.
INTERLEAVED = [
    ("one-seq-pile-up", "honest register alice\nhonest auth alice\nreplay 3 180\n"
     "modify 3 0 01\neavesdrop 4\nmodify 3 2 ff\nreplay 3 400\ndrop hms alice 4\n"
     "eavesdrop 3\nhonest auth alice\n", 0),
    ("armed-between-steps", "modify 4 1 0f\nhonest register alice\nreplay 4 300\n"
     "eavesdrop 1\nhonest auth alice\ndrop alice hms 3\nmodify 1 0 ff\n"
     "replay 1 250\nhonest auth alice\n", 0),
    ("double-drop", "honest register alice\nmodify 1 0 ff\ndrop alice hms 1\n"
     "replay 1 200\ndrop alice hms 1\n", 2),
    ("modify-past-payload", "honest register alice\nreplay 2 300\nmodify 2 0 ff\n"
     "eavesdrop 2\nmodify 2 9999 ff\n", 2),
    ("leftovers", "honest register alice\neavesdrop 9\nreplay 7 100\nmodify 8 0 ff\n"
     "honest auth alice\n", 2),
]


def _kind_order(script: str) -> str:
    """The script with its adversary lines regrouped as every eavesdrop, drop,
    modify, then replay, each kind in script order, after the other lines."""
    kinds = ("eavesdrop", "drop", "modify", "replay")
    lines = script.splitlines()
    regrouped = [line for line in lines if line.split()[0] not in kinds]
    for kind in kinds:
        regrouped += [line for line in lines if line.split()[0] == kind]
    return "\n".join(regrouped) + "\n"


@pytest.mark.parametrize("script, rc", [case[1:] for case in INTERLEAVED],
                         ids=[case[0] for case in INTERLEAVED])
def test_arming_order_cannot_change_a_run(tmp_path, capsys, script, rc):
    assert _kind_order(script) != script
    runs = []
    for name, text in (("script", script), ("regrouped", _kind_order(script))):
        scn = tmp_path / f"{name}.scn"
        scn.write_text(text, encoding="utf-8")
        trace = tmp_path / f"{name}.trace"
        code = cli_main(["run", str(scn), "--trace", str(trace)])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err,
                     trace.read_text(encoding="utf-8") if trace.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == rc


@pytest.mark.parametrize("flag", ["--report", "--trace"])
def test_cli_unwritable_output_leaves_stdout_empty(tmp_path, capsys, flag):
    # the run itself ends in a violation (exit 1); an output file that
    # cannot be written is an input error, and no report reaches stdout
    scn = tmp_path / "s.scn"
    scn.write_text("honest register bob N\nhonest update-auth bob P\n"
                   "honest auth bob\n", encoding="utf-8")
    assert cli_main(["run", str(scn)]) == 1
    capsys.readouterr()
    rc = cli_main(["run", str(scn), flag, str(tmp_path / "missing" / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("l2ai: ")


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("jump 4\n", encoding="utf-8")
    assert cli_main(["run", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err

    missing = tmp_path / "missing.scn"
    assert cli_main(["run", str(missing)]) == 2

    violating = tmp_path / "v.scn"
    violating.write_text("honest register p P\nhonest auth p\n", encoding="utf-8")
    assert cli_main(["run", str(violating)]) == 1
    capsys.readouterr()

    table = tmp_path / "perm.txt"
    table.write_text("D *\n", encoding="utf-8")    # seven roles missing
    ok_scn = tmp_path / "ok.scn"
    ok_scn.write_text("honest register a\n", encoding="utf-8")
    assert cli_main(["run", str(ok_scn), "--perm-table", str(table)]) == 2
    capsys.readouterr()


def test_cli_rejects_a_user_named_like_the_server(tmp_path, capsys):
    # a gateway named after the server would take over the server's handler
    scn = tmp_path / "s.scn"
    scn.write_text(f"honest register {SERVER}\nhonest auth {SERVER}\n", encoding="utf-8")
    assert cli_main(["run", str(scn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(SERVER) in captured.err


def test_cli_export_and_suite(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("honest register a\nhonest auth a\n", encoding="utf-8")
    out = tmp_path / "exported"
    assert cli_main(["export", str(scn), "--out", str(out)]) == 0
    assert (out / "report.txt").exists() and (out / "trace.txt").exists()
    assert capsys.readouterr().out == \
        f"wrote {out / 'report.txt'} and {out / 'trace.txt'}\n"
    assert cli_main(["suite", "metrics"]) == 0
    assert "ok metrics headline" in capsys.readouterr().out


def test_cli_stale_replay_of_a_dropped_request_leaves_it_pending(tmp_path, capsys):
    # only the original's rejection is the session's outcome, and the original
    # was dropped, so the replay's rejection leaves it pending
    scn = tmp_path / "s.scn"
    scn.write_text("honest register alice\nhonest auth alice\n"
                   "drop alice hms 3\nreplay 3 2200\n", encoding="utf-8")
    assert cli_main(["run", str(scn)]) == 0
    report = capsys.readouterr().out
    assert " outcome=pending " in report
    assert " replay-deliveries=1 " in report
    assert report.endswith("summary violations=0\n")


def test_cli_export_of_a_violating_run_still_writes_both_files(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("honest register carol P\nhonest auth carol write-prescription\n",
                   encoding="utf-8")
    out = tmp_path / "exported"
    assert cli_main(["export", str(scn), "--out", str(out)]) == 1
    capsys.readouterr()
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "outcome=rejected Unauthorized" in report
    assert report.endswith("summary violations=1\n")
    assert (out / "trace.txt").read_text(encoding="utf-8").endswith("\n")


def test_cli_custom_delta_t(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    # zero freshness window: the 50ms flight time alone makes Msg1 stale
    scn.write_text("honest register a\nhonest auth a\n", encoding="utf-8")
    rc = cli_main(["run", str(scn), "--delta-t", "0"])
    out = capsys.readouterr().out
    assert rc == 1                                # untouched session rejected
    assert "outcome=rejected Stale" in out


def test_cli_negative_delta_t_is_an_input_error(tmp_path, capsys):
    # no timestamp is ever within a negative window, so every session would
    # fail; that is a bad option, not a run that broke an invariant
    scn = tmp_path / "s.scn"
    scn.write_text("honest register a\nhonest auth a\n", encoding="utf-8")
    rc = cli_main(["run", str(scn), "--delta-t", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "freshness window" in captured.err
    with pytest.raises(ValueError):
        World(delta_t=-1)


@pytest.mark.parametrize("script", [
    "honest register a\nhonest auth a\nreplay 3 18446744073709551616\nhonest auth a\n",
    "delay 18446744073709551616\nhonest register a\nhonest auth a\nhonest auth a\n",
    # the replay itself fits; the server's reply would land past it
    "honest register a\nhonest auth a\nreplay 3 18446744073709551615\nhonest auth a\n",
], ids=["replay-at-2**64", "delay-2**64", "reply-after-2**64-1"])
def test_cli_time_past_the_wire_timestamp_is_an_input_error(tmp_path, capsys, script):
    # a timestamp is 8 bytes on the wire; simulated time may not outgrow it
    scn = tmp_path / "s.scn"
    scn.write_text(script, encoding="utf-8")
    rc = cli_main(["run", str(scn)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("l2ai: ") and captured.err.count("\n") == 1
    assert "8-byte timestamp" in captured.err


def test_cli_main_called_repeatedly_in_one_process(tmp_path, capsys):
    # the parser is built once per process; a call must not leak options,
    # files or output into the next one
    scn = tmp_path / "s.scn"
    scn.write_text(HONEST_SCENARIO, encoding="utf-8")
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    assert cli_main(["run", str(scn), "--report", str(outputs / "report.txt"),
                     "--trace", str(outputs / "trace.txt")]) == 0
    first = capsys.readouterr().out
    assert first == (GOLDEN / "honest-seed42-report.txt").read_text(encoding="utf-8")
    assert (outputs / "report.txt").read_text(encoding="utf-8") == first
    assert (outputs / "trace.txt").read_text(encoding="utf-8") == \
        (GOLDEN / "honest-seed42-trace.txt").read_text(encoding="utf-8")
    for path in outputs.iterdir():
        path.unlink()

    assert cli_main(["run", str(scn)]) == 0
    assert capsys.readouterr().out == first
    assert list(outputs.iterdir()) == []          # --report/--trace not kept

    with pytest.raises(SystemExit) as usage:
        cli_main(["run", str(scn), "--seed", "forty-two"])
    assert usage.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli_main(["run", str(scn)]) == 0
    assert capsys.readouterr().out == first

    assert cli_main(["suite", "metrics"]) == 0
    assert "ok metrics headline" in capsys.readouterr().out
    assert cli_main(["run", str(scn)]) == 0
    assert capsys.readouterr().out == first


def run_module(*args: str, cwd: Path, flags: tuple[str, ...] = ()
               ) -> subprocess.CompletedProcess:
    """`python [flags] -m l2ai ...` in a fresh interpreter, as a user runs it."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    return subprocess.run([sys.executable, *flags, "-m", "l2ai", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, encoding="utf-8",
                          timeout=60)


def test_module_entry_point_runs_in_a_fresh_interpreter(tmp_path):
    scn = tmp_path / "honest.scn"
    scn.write_text(HONEST_SCENARIO, encoding="utf-8")
    run = run_module("run", str(scn), "--seed", "42", cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (GOLDEN / "honest-seed42-report.txt").read_text(encoding="utf-8")

    helped = run_module("--help", cwd=tmp_path)
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: l2ai [-h] {run,suite,export} ...\n")


def test_cli_file_io_does_not_depend_on_the_locale(tmp_path):
    # every file the CLI reads or writes names its encoding, so a run where
    # a locale-default encoding is an error still succeeds
    scn = tmp_path / "honest.scn"
    scn.write_bytes(HONEST_SCENARIO.encode())
    table = tmp_path / "perm.txt"
    table.write_bytes(DEFAULT_TABLE_TEXT.encode())
    strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    run = run_module("run", str(scn), "--perm-table", str(table),
                     "--report", str(tmp_path / "r.txt"),
                     "--trace", str(tmp_path / "t.txt"), cwd=tmp_path, flags=strict)
    assert (run.returncode, run.stderr) == (0, "")
    exported = run_module("export", str(scn), "--perm-table", str(table),
                          "--out", str(tmp_path / "out"), cwd=tmp_path, flags=strict)
    assert (exported.returncode, exported.stderr) == (0, "")
    report = (GOLDEN / "honest-seed42-report.txt").read_bytes()
    assert (tmp_path / "r.txt").read_bytes() == report
    assert (tmp_path / "out" / "report.txt").read_bytes() == report
    assert (tmp_path / "out" / "trace.txt").read_bytes() \
        == (tmp_path / "t.txt").read_bytes()


def call_captured(call, argv: list[str]):
    """(exit code or return value, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["run", "x", "--bogus"], ["run", "x", "extra"], ["run"],
    ["run", "x", "--seed", "q"], ["run", "--help"], ["export", "x"],
    ["suite", "nope"], ["--help"], [], ["jump"], ["--", "run", "x"],
], ids=" ".join)
def test_cli_routing_matches_the_top_level_parser(argv):
    # main hands a command's words straight to that command's parser; every
    # usage error and help text is still the one the top-level parser gives
    routed = call_captured(cli.main, argv)
    assert routed == call_captured(cli._PARSER.parse_args, argv)
    if argv == ["run", "x", "--bogus"]:
        assert routed == (2, "", "usage: l2ai [-h] {run,suite,export} ...\n"
                                 "l2ai: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [
    ["run", "s.scn"],
    ["run", "s.scn", "--seed", "7", "--delta-t", "10", "--perm-table", "p",
     "--report", "r", "--trace", "t"],
    ["suite", "fuzz", "--seed", "3"],
    ["export", "--out", "d", "s.scn", "--perm-table", "p"],
], ids=" ".join)
def test_cli_routing_parses_what_the_top_level_parser_parses(argv):
    assert cli._parse(argv) == cli._PARSER.parse_args(argv)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_cli_inputs_take_any_line_ending(tmp_path, capsys, newline):
    # bob's role loses read-lab-results, so the table changes the report
    # (his granted-scope auth now fails, a violation: exit 1)
    table = DEFAULT_TABLE_TEXT.replace(
        "N   read-patient-vitals,read-other-patient-vitals,read-lab-results,",
        "N   read-patient-vitals,")
    assert table != DEFAULT_TABLE_TEXT
    results = []
    for ending in ("\n", newline):
        scn = tmp_path / "s.scn"
        scn.write_bytes(HONEST_SCENARIO.replace("\n", ending).encode())
        perm = tmp_path / "perm.txt"
        perm.write_bytes(table.replace("\n", ending).encode())
        plain = cli_main(["run", str(scn)]), capsys.readouterr()
        tabled = cli_main(["run", str(scn), "--perm-table", str(perm)]), \
            capsys.readouterr()
        results.append((plain, tabled))
    assert results[0] == results[1]
    (plain_rc, plain), (tabled_rc, tabled) = results[0]
    assert (plain_rc, tabled_rc, plain.err, tabled.err) == (0, 1, "", "")
    assert plain.out == (GOLDEN / "honest-seed42-report.txt").read_text(encoding="utf-8")
    assert tabled.out != plain.out


@pytest.mark.parametrize("bad", ["scenario", "table"])
def test_cli_input_that_is_not_utf8_exits_2(tmp_path, capsys, bad):
    scn = tmp_path / "s.scn"
    perm = tmp_path / "perm.txt"
    scn.write_bytes(b"honest register a\n")
    perm.write_bytes(DEFAULT_TABLE_TEXT.encode())
    (scn if bad == "scenario" else perm).write_bytes(b"honest \xff\n")
    assert cli_main(["run", str(scn), "--perm-table", str(perm)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("l2ai: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# --- generated scenarios ------------------------------------------------------------

USERS = ("alice", "bob", SERVER)
USER = st.sampled_from(USERS[:2] * 4 + USERS[2:])   # the server's name is an input error
SEQS = st.integers(1, 12)              # high seqs never occur: an input error


@st.composite
def honest_lines(draw):
    phase = draw(st.sampled_from(HONEST_PHASES))
    words = ["honest", phase, draw(USER)]
    if phase == "auth":
        extra = SCOPE_CATALOG + ("no-such-scope",)
    elif phase == "update-creds":
        extra = ()
    else:
        extra = tuple(role.value for role in Role)
    if extra and draw(st.booleans()):
        words.append(draw(st.sampled_from(extra)))
    return " ".join(words)


# times near and past 2**64 - 1, the latest an 8-byte wire timestamp holds
FAR_TIMES = st.integers(2**64 - 5000, 2**64 + 5000)

ADVERSARY_LINES = st.one_of(
    st.builds("delay {}".format, st.integers(0, 400) | FAR_TIMES),
    st.builds("eavesdrop {}".format, SEQS),
    st.builds("drop {} {} {}".format, st.sampled_from(USERS), st.sampled_from(USERS),
              SEQS),
    st.builds("modify {} {} {}".format, SEQS, st.integers(0, 110),
              st.binary(min_size=1, max_size=8).map(bytes.hex)),
    st.builds("replay {} {}".format, SEQS, st.integers(0, 4000) | FAR_TIMES),
)


def run_cli(path: Path, *options: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["run", str(path), *options])
    return code, out.getvalue()


SCENARIOS = {"steps": st.lists(honest_lines(), min_size=1, max_size=6),
             "attacks": st.lists(ADVERSARY_LINES, max_size=4),
             "seed": st.integers(0, 2**32)}


@settings(max_examples=40, deadline=None)
@given(**SCENARIOS)
def test_generated_scenarios_end_in_a_defined_result(tmp_path_factory, steps,
                                                     attacks, seed):
    # any script in the grammar ends in a report (0), a violation (1) or an
    # input error (2), never an exception, and a seed fixes the report
    path = tmp_path_factory.mktemp("scenario") / "s.scn"
    path.write_text("\n".join(steps + attacks) + "\n", encoding="utf-8")
    code, out = run_cli(path, "--seed", str(seed))
    assert code in (0, 1, 2)
    assert run_cli(path, "--seed", str(seed)) == (code, out)


@settings(max_examples=40, deadline=None)
@given(**SCENARIOS)
def test_generated_verdicts_equal_a_scan_of_every_delivery(steps, attacks, seed):
    # also on a run an input error cut short, whatever it delivered so far
    world = World(seed=seed)
    try:
        run_scenario(world, parse_scenario("\n".join(steps + attacks) + "\n"))
    except (ParseError, ChannelError, ValueError):
        pass
    assert check_invariants(world) == full_scan_verdict(world)


def test_tier1_draws_the_same_scenarios_on_every_run(request):
    # the tier1 profile in conftest.py is loaded unless another is named, and
    # it derandomizes: a second run of a test draws what the first drew
    if request.config.getoption("--hypothesis-profile") is None:
        assert settings.get_current_profile_name() == "tier1"
    drawn = []

    @settings(settings.get_profile("tier1"), max_examples=40)
    @given(**SCENARIOS)
    def draw(steps, attacks, seed):
        drawn.append(("\n".join(steps + attacks), seed))

    draw()
    first = drawn[:]
    drawn.clear()
    draw()
    assert len(first) > 1 and drawn == first


# Permission tables: the default table with lines deleted and lines added
# from the grammar's tokens, including window minutes at the edges of the
# day and digits that are not ASCII. Roles with no grant for the scenario's
# scopes make clean rejections, so exit 1 is a defined result too.
TABLE_ROLES = st.sampled_from([role.value for role in Role] + ["X", "d", "#"])
TABLE_SCOPES = st.one_of(
    st.just("*"),
    st.lists(st.sampled_from(SCOPE_CATALOG + ("*", "#", "")), min_size=1,
             max_size=3).map(",".join))
MINUTES = st.one_of(
    st.integers(-2, 2), st.integers(1437, 1442),
    st.sampled_from(["\u0661\u0664\u0663\u0669", "\uff10", "\u00b2", "1e3", "+1", "#1"]))


@st.composite
def table_line(draw, role):
    words = [role, draw(TABLE_SCOPES)]
    if draw(st.booleans()):
        words += [str(draw(MINUTES)), str(draw(MINUTES))]
    if draw(st.booleans()):
        words.append("# " + draw(st.sampled_from(SCOPE_CATALOG)))
    return " ".join(words)


@st.composite
def table_texts(draw):
    # each edit deletes a line, adds one, or does both to one role's line
    lines = DEFAULT_TABLE_TEXT.splitlines()
    for edit in draw(st.lists(st.sampled_from(("delete", "add", "replace")), max_size=3)):
        at = draw(st.integers(0, len(lines) - (edit != "add")))
        if edit == "delete":
            del lines[at]
        elif edit == "add":
            lines.insert(at, draw(table_line(draw(TABLE_ROLES))))
        else:
            lines[at] = draw(table_line(lines[at].split()[0]))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(table=table_texts())
def test_generated_permission_tables_end_in_a_defined_result(tmp_path_factory, table):
    folder = tmp_path_factory.mktemp("table")
    scenario, table_path = folder / "s.scn", folder / "perm.txt"
    scenario.write_text(HONEST_SCENARIO, encoding="utf-8")
    table_path.write_text(table, encoding="utf-8")
    code, out = run_cli(scenario, "--perm-table", str(table_path))
    assert code in (0, 1, 2)
    assert run_cli(scenario, "--perm-table", str(table_path)) == (code, out)
