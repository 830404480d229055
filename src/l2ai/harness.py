"""Simulation harness: a World wires one server, one ledger, one channel,
and any number of user gateways together, runs scenario scripts or
programmatic sessions over them, and writes line-oriented reports.

Outcome strings, not exceptions, cross the harness boundary. Every protocol
call goes through World._metered, which charges the call's counted operations
to its (side, phase) key, also when it is rejected part way, and turns a
Reject or ValueError into "rejected <Class>"; so an attack scenario runs to
completion. Each key is a constant tuple at its call site, so no call builds
one and every World's phase maps share the same key objects.
The delivery handler decodes the payload before the metered call, since its
width dispatch has already checked the one thing a decoder checks.
Each send carries its owner on its envelope (a Session for msg1 and server
replies, a user name for enrollment traffic), replayed copies included, so the
delivery handler records its result on the envelope's owner. The channel
decides each drop and modification at send time, so World._send marks the
damaged send's Session hit, or taints its user, right there. Call
check_invariants after the final drain; it is the one place the ledger chain
is verified. Its two adversary checks read only the channel's
`adversary_deliveries`, the deliveries that were tampered, are replayed
copies, or have a seq the adversary recorded, and that is exact: every other
delivery is an untouched original, unmodified and delivered once, and a
second acceptance of one origin needs a replayed copy, whose original was
recorded when it was sent. The report renders the verdict it is given, with
the event digest and the replayed and tampered counts taken from that same
list, so it neither joins the trace nor scans the deliveries.

The invariant checker encodes what a run must satisfy regardless of the
adversary script:

  * the ledger chain verifies;
  * no tampered authentication delivery is accepted;
  * each authentication request is accepted at most once across its
    original delivery and any replays (a replay of a message whose original
    was suppressed is a delayed delivery and may legitimately succeed);
  * untouched sessions (the channel dropped or modified no message the
    session owns, decided when each is sent) complete with equal keys.

Registration traffic is assumed to run over a protected enrollment channel,
so a scenario that tampers with it taints the user instead of proving
anything about the authentication protocol; tainted users are exempt from
the completion invariant but their later traffic still must not break the
others.

EXPECTED_OPS pins the per-call costs the metrics suite enforces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .channel import Channel, Envelope, Scenario, parse_scenario
from .ledger import Ledger
from .permissions import DEFAULT_SCOPE, PermissionTable, Role, SCOPE_CATALOG
from .primitives import (
    BIO_WIDTH, OP_KEYS, WIDTH, BioTemplate, PrimitiveOps, Rng, SimClock, sha256_160,
)
from .protocol import (
    DEFAULT_DELTA_T, MSG1_WIDTH, MSG2_WIDTH, PROVISIONAL_WIDTH,
    REG_REQUEST_WIDTH, Credentials, HospitalServer, Msg1, Msg2,
    ProvisionalCard, Reject, RegRequest, UserGateway,
)

SERVER = "hms"

CHAIN_VIOLATION = "ledger chain verification failed"

AUTH_WIDTHS = (MSG1_WIDTH, MSG2_WIDTH)   # the authentication wire messages

WIRE_KINDS = {
    MSG1_WIDTH: "auth-request",
    MSG2_WIDTH: "server-reply",
    REG_REQUEST_WIDTH: "reg-request",
    PROVISIONAL_WIDTH: "provisional",
}

# per-call operation costs, pinned; the metrics suite and the acceptance
# tests enforce these numbers exactly
EXPECTED_OPS = {
    ("user", "register"):      {"hash": 4, "xor": 1, "enc": 0, "dec": 0, "fe": 1},
    ("user", "finalize"):      {"hash": 2, "xor": 4, "enc": 0, "dec": 0, "fe": 0},
    ("user", "login"):         {"hash": 6, "xor": 6, "enc": 0, "dec": 0, "fe": 1},
    ("user", "verify"):        {"hash": 1, "xor": 1, "enc": 0, "dec": 0, "fe": 0},
    ("user", "update-creds"):  {"hash": 8, "xor": 8, "enc": 0, "dec": 0, "fe": 2},
    ("server", "issue-token"): {"hash": 1, "xor": 0, "enc": 1, "dec": 0, "fe": 0},
    ("server", "register"):    {"hash": 4, "xor": 6, "enc": 0, "dec": 1, "fe": 0},
    ("server", "auth"):        {"hash": 10, "xor": 7, "enc": 0, "dec": 0, "fe": 0},
    ("server", "update-auth"): {"hash": 3, "xor": 3, "enc": 1, "dec": 0, "fe": 0},
}


@dataclass(slots=True)
class Session:
    """One authentication attempt, from the user's login call to the final
    verdict. Wire-less local failures have no msg1 envelope; `hit` says the
    channel dropped or modified a message the session owns. `outcome` is
    written where each verdict is decided: a verified reply outranks the
    server's rejection of the original msg1, which outranks the user's
    rejection of an original reply."""

    user: str
    scope: str
    msg1_env: Envelope | None = None
    hit: bool = False
    sk_user: bytes | None = None
    sk_server: bytes | None = None
    outcome: str = "pending"

    @property
    def local_reject(self) -> str | None:
        """The login's own rejection, for a session that never reached the wire."""
        return self.outcome if self.msg1_env is None else None


class World:
    def __init__(self, seed: int = 42, delta_t: int = DEFAULT_DELTA_T,
                 perm_table: PermissionTable | None = None):
        self.seed = seed
        self.clock = SimClock()
        self.ledger = Ledger()
        self.server = HospitalServer(seed, self.clock, self.ledger, perm_table,
                                     delta_t)
        self.channel = Channel(self.clock)
        self.users: dict[str, UserGateway] = {}
        self.handlers = {SERVER: self._deliver}
        self.sessions: list[Session] = []
        self.step_notes: list[str] = []
        self.tainted: set[str] = set()
        self.phase_ops: dict[tuple[str, str], dict[str, int]] = {}
        self.phase_calls: dict[tuple[str, str], int] = {}
        self.width_counts: Counter = Counter()

    # --- entities ------------------------------------------------------------

    def _user_seed(self, name: str) -> int:
        raw = sha256_160(f"user:{self.seed}:{name}".encode())
        return int.from_bytes(raw[:8], "big")

    def get_user(self, name: str) -> UserGateway:
        if name not in self.users:
            if name == SERVER:      # its deliveries would go to the server
                raise ValueError(f"{SERVER!r} names the server, not a user")
            seed = self._user_seed(name)
            draw = Rng(seed ^ 0x5EED)
            creds = Credentials(user_id=draw.randbytes(WIDTH),
                                password=f"pw-{name}".encode(),
                                bio=BioTemplate(draw.randbytes(BIO_WIDTH)))
            self.users[name] = UserGateway(seed, self.clock, self.ledger, creds,
                                           delta_t=self.server.delta_t)
            self.handlers[name] = self.handlers[SERVER]     # one shared handler
        return self.users[name]

    # --- instrumentation -------------------------------------------------------

    def _metered(self, key: tuple[str, str], ops: PrimitiveOps, call, *args,
                 rejects=(Reject, ValueError)):
        """Run call(*args) with the counted operations of `ops` charged
        directly to `key`, a (side, phase) tuple written as a constant, as
        one call, whether or not it completes. Returns (result, None), or
        (None, "rejected <Class>") when it raises one of `rejects`; anything
        else propagates."""
        bucket = self.phase_ops.get(key)
        if bucket is None:
            bucket = self.phase_ops[key] = dict.fromkeys(OP_KEYS, 0)
            self.phase_calls[key] = 0
        own, ops.counts = ops.counts, bucket
        try:
            return call(*args), None
        except rejects as exc:
            return None, f"rejected {type(exc).__name__}"
        finally:
            ops.counts = own
            self.phase_calls[key] += 1

    def _send(self, src: str, dst: str, payload: bytes,
              owner: Session | str) -> Envelope:
        """Put a payload on the wire for its owner: a Session, or the name of
        the user whose enrollment it carries; a dropped or modified send hits
        the one or taints the other."""
        self.width_counts[len(payload)] += 1
        env = self.channel.send(src, dst, payload, owner)
        if env.tampered or env.seq in self.channel.dropped:
            if isinstance(owner, str):
                self.tainted.add(owner)
            else:
                owner.hit = True
        return env

    # --- honest steps -------------------------------------------------------------

    def register_user(self, name: str, role: Role = Role.DOCTOR) -> None:
        # the token is delivered out of band; a failure in either call is the
        # caller's mistake, not an outcome of the run, so it propagates
        gateway = self.get_user(name)
        token, _ = self._metered(("server", "issue-token"), self.server.ops,
                                 self.server.issue_token, name.encode(), role,
                                 rejects=())
        req, _ = self._metered(("user", "register"), gateway.ops,
                               gateway.build_registration, token, rejects=())
        gateway.ops.release()       # a gateway draws again only to update
        self._send(name, SERVER, req.to_bytes(), name)

    def auth_attempt(self, name: str, scope: str = DEFAULT_SCOPE,
                     creds: Credentials | None = None) -> Session:
        gateway = self.get_user(name)
        msg1, rejected = self._metered(("user", "login"), gateway.ops,
                                       gateway.start_login, creds)
        session = Session(user=name, scope=scope, outcome=rejected or "pending")
        if not rejected:
            session.msg1_env = self._send(name, SERVER, msg1.to_bytes(), session)
        self.sessions.append(session)
        return session

    def update_user_credentials(self, name: str) -> None:
        gateway = self.get_user(name)
        serial = self.phase_calls.get(("user", "update-creds"), 0) + 1
        new_password = f"pw-{name}-v{serial}".encode()
        new_bio = gateway.ops.rand_template()
        _, rejected = self._metered(("user", "update-creds"), gateway.ops,
                                    gateway.change_credentials, new_password, new_bio)
        gateway.ops.release()
        self.step_notes.append(f"step kind=update-creds user={name} "
                               f"result={rejected or 'ok'}")

    def update_authorization(self, name: str, role: Role) -> None:
        gateway = self.get_user(name)
        _, rejected = self._metered(("server", "update-auth"), self.server.ops,
                                    self.server.update_authorization,
                                    gateway.creds.user_id, role)
        result = rejected or f"ok role={role.value}"
        self.step_notes.append(f"step kind=update-auth user={name} result={result}")

    def drain(self, strict: bool = False) -> None:
        self.channel.run(self.handlers, strict=strict)

    # --- delivery handler -------------------------------------------------------

    def _deliver(self, env: Envelope) -> str:
        """The delivery handler of every party: the receiver and the payload
        width choose the step; an auth-width delivery carries its Session."""
        width, owner = len(env.payload), env.owner
        if isinstance(owner, str) and env.replay_of is not None:
            self.tainted.add(owner)         # its user's enrollment was replayed
        if env.dst == SERVER:
            if width == REG_REQUEST_WIDTH:
                provisional, rejected = self._metered(
                    ("server", "register"), self.server.ops, self.server.register,
                    RegRequest.from_bytes(env.payload))
                if rejected:
                    return rejected
                self._send(SERVER, env.src, provisional.to_bytes(), owner)
                return "provisional-issued"
            if width == MSG1_WIDTH:
                result, rejected = self._metered(
                    ("server", "auth"), self.server.ops, self.server.authenticate,
                    Msg1.from_bytes(env.payload), owner.scope)
                if rejected:
                    # only the original's rejection counts; a verified reply outranks it
                    if env.seq > 0 and owner.outcome != "verified":
                        owner.outcome = rejected
                    return rejected
                msg2, sk = result
                self._send(SERVER, env.src, msg2.to_bytes(), owner)
                owner.sk_server = sk
                return f"accepted sk={sk.hex()[:8]}"
        else:
            gateway = self.users[env.dst]
            if width == PROVISIONAL_WIDTH:
                _, rejected = self._metered(
                    ("user", "finalize"), gateway.ops, gateway.accept_provisional,
                    ProvisionalCard.from_bytes(env.payload))
                return rejected or "registered"
            if width == MSG2_WIDTH:
                sk, rejected = self._metered(
                    ("user", "verify"), gateway.ops, gateway.accept_server_reply,
                    Msg2.from_bytes(env.payload))
                if rejected:
                    # an original reply's rejection ranks below every other verdict
                    if env.seq > 0 and owner.outcome == "pending":
                        owner.outcome = rejected
                    return rejected
                # the agreed key is kept once, as the server's object
                owner.sk_user = owner.sk_server if sk == owner.sk_server else sk
                owner.outcome = "verified"
                return f"verified sk={sk.hex()[:8]}"
        return f"rejected UnexpectedMessage ({width}B to {env.dst})"

    # --- post-run resolution ------------------------------------------------------

    def finalize(self) -> None:
        """Does nothing: every verdict is recorded at delivery, and a dropped
        enrollment send taints its user when it is sent, so nothing is left
        to resolve after the final drain. Kept because the benchmark in
        perfbench/ still calls and times it."""

    # --- report ---------------------------------------------------------------------

    def report_lines(self, violations: list[str]) -> list[str]:
        """The report of a finished run, rendering the given verdict of
        check_invariants."""
        ch = self.channel
        sends = sum(self.width_counts.values())
        lines = [
            "l2ai-report v=1",
            f"config seed={self.seed} delta-t={self.server.delta_t} "
            f"base-delay={ch.base_delay}",
            "algo hash=sha256-160 cipher=sha256-stream+mac160 "
            "sketch=repetition-5x keywidth=160",
        ]
        verified = pending = local = 0
        for session in self.sessions:
            env, outcome = session.msg1_env, session.outcome
            if env is None:
                seq = t1 = "-"
                local += 1
            else:
                seq, t1 = env.seq, env.send_time
                if outcome == "verified":
                    verified += 1
                elif outcome == "pending":
                    pending += 1
            sk = session.sk_user[:4].hex() if session.sk_user else "-"
            lines.append(f"session user={session.user} scope={session.scope} "
                         f"msg1-seq={seq} t1={t1} outcome={outcome} sk={sk}")
        lines.extend(self.step_notes)
        phase_calls = self.phase_calls
        for key, ops in sorted(self.phase_ops.items()):
            lines.append(f"ops side={key[0]} phase={key[1]} calls={phase_calls[key]} "
                         f"hash={ops['hash']} xor={ops['xor']} enc={ops['enc']} "
                         f"dec={ops['dec']} fe={ops['fe']}")
        for width in sorted(self.width_counts):
            kind = WIRE_KINDS.get(width, "other")
            lines.append(f"wire kind={kind} width={width} "
                         f"count={self.width_counts[width]}")
        for text in violations:
            lines.append(f"violation {text}")

        rejected = len(self.sessions) - verified - pending - local
        digest = ch.event_digest().hex()
        adversary = ch.adversary_deliveries
        replays = sum(env.replay_of is not None for env in adversary)
        tampered = sum(env.tampered for env in adversary)
        lines.extend([
            f"summary sessions={len(self.sessions)} verified={verified} "
            f"rejected={rejected} pending={pending} local={local}",
            f"summary sends={sends} deliveries={len(ch.deliveries)} "
            f"drops={len(ch.dropped)} replay-deliveries={replays} "
            f"tampered-deliveries={tampered}",
            f"summary users={len(self.users)} tainted={len(self.tainted)}",
            f"summary ledger-blocks={len(self.ledger.blocks)} "
            f"chain-ok={'NO' if CHAIN_VIOLATION in violations else 'yes'}",
            f"summary event-digest={digest}",
            f"summary violations={len(violations)}",
        ])
        return lines


# --- scenario execution --------------------------------------------------------------


@dataclass
class RunResult:
    world: World
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def report_lines(self) -> list[str]:
        return self.world.report_lines(self.violations)


def check_invariants(world: World) -> list[str]:
    """The violations of a finished run; call after the final drain."""
    violations: list[str] = []
    if not world.ledger.verify_chain():
        violations.append(CHAIN_VIOLATION)

    accepted_per_origin: dict[int, int] = {}
    accepted = accepted_per_origin.get
    # no other delivery can be tampered or share its origin (module docstring)
    for env in world.channel.adversary_deliveries:
        outcome = env.outcome
        if not outcome.startswith("rejected") and len(env.payload) in AUTH_WIDTHS:
            if env.tampered:
                violations.append(f"tampered delivery seq={env.seq} accepted: {outcome}")
            origin = env.seq if env.replay_of is None else env.replay_of
            accepted_per_origin[origin] = accepted(origin, 0) + 1
    # sort only the replayed origins, not a tuple per accepted message
    for origin in sorted(o for o, count in accepted_per_origin.items() if count > 1):
        violations.append(f"message seq={origin} accepted {accepted_per_origin[origin]} "
                          "times (replay got through)")

    # one pass: incomplete untouched sessions, then key mismatches, in order
    tainted = world.tainted
    mismatched: list[str] = []
    for session in world.sessions:
        sk_user, sk_server = session.sk_user, session.sk_server
        if sk_user is not None and sk_server is not None and sk_user != sk_server:
            mismatched.append(f"session keys differ for user={session.user}")
        env = session.msg1_env
        if env is None or session.hit or session.user in tainted:
            continue    # rejected locally, hit on the wire, or its user is tainted
        if sk_user is None or sk_user != sk_server:
            violations.append(f"untouched session (user={session.user} "
                              f"seq={env.seq}) did not complete: {session.outcome}")
    violations.extend(mismatched)
    return violations


def run_scenario(world: World, scenario: Scenario) -> RunResult:
    """Run the scenario's steps on the world, each followed by a drain, then
    a strict final drain and the invariant check. The run ends by releasing
    every party's random generator; a World driven further rebuilds each one
    at the point of its stream where it stopped, so it draws the same bytes."""
    scenario.arm(world.channel)
    for name, args in scenario.steps:
        getattr(world, name)(*args)     # looked up per call, so a patched method runs
        world.drain(strict=False)
    world.drain(strict=True)
    world.server.ops.release()
    for gateway in world.users.values():
        gateway.ops.release()
    return RunResult(world=world, violations=check_invariants(world))


# --- suites -------------------------------------------------------------------------

HONEST_SCENARIO = """\
honest register alice D
honest register bob N
honest auth alice
honest auth bob read-lab-results
honest update-creds alice
honest auth alice
honest update-auth bob P
honest auth bob read-own-records
"""


def suite_honest(seed: int = 42, emit=print) -> bool:
    scenario = parse_scenario(HONEST_SCENARIO)
    ok = True
    for i in range(20):
        world = World(seed=seed + i)
        result = run_scenario(world, scenario)
        verified = sum(1 for s in world.sessions if s.outcome == "verified")
        keys = {s.sk_user for s in world.sessions if s.sk_user}
        good = result.ok and verified == len(world.sessions) == 4 \
            and len(keys) == verified
        ok &= good
        emit(f"{'ok' if good else 'FAIL'} honest seed={seed + i} sessions="
             f"{len(world.sessions)} verified={verified} distinct-keys={len(keys)}")
        for violation in result.violations:
            emit(f"  violation: {violation}")
    return ok


# Each attack entry: scenario text, plus what must be true afterwards.
# Timeline arithmetic (base delay 50ms): register = two sends, each
# step advances the clock 100ms; the n-th step's sends start at (n-1)*100.

_ATTACK_CASES: list[tuple[str, str, dict]] = [
    ("replay-fresh-after-rekey",
     "honest register alice\nhonest auth alice\nreplay 3 180\n",
     {"replay_outcome": "rejected UnknownPrincipal", "verified": 1}),
    ("replay-stale",
     "honest register alice\nhonest auth alice\nreplay 3 2101\n",
     {"replay_outcome": "rejected Stale", "verified": 1}),
    ("tamper-msg1-proof",
     "honest register alice\nhonest auth alice\nmodify 3 10 ff\n",
     {"session_outcomes": ["rejected BadMac"], "verified": 0}),
    ("tamper-msg1-pseudonym",
     "honest register alice\nhonest auth alice\nmodify 3 30 01\n",
     {"session_outcomes": ["rejected UnknownPrincipal"], "verified": 0}),
    ("tamper-msg1-timestamp",
     "honest register alice\nhonest auth alice\nmodify 3 0 0000000000000fff\n",
     {"session_outcomes": ["rejected Stale"], "verified": 0}),
    ("tamper-msg2",
     "honest register alice\nhonest auth alice\nmodify 4 5 80\n",
     {"session_outcomes": ["rejected BadMac"], "verified": 0}),
    ("drop-msg1-then-clean-retry",
     "honest register alice\nhonest auth alice\nhonest auth alice\n"
     "drop alice hms 3\n",
     {"session_outcomes": ["pending", "verified"], "verified": 1}),
    ("drop-msg2-then-clean-retry",
     "honest register alice\nhonest auth alice\nhonest auth alice\n"
     "drop hms alice 4\n",
     {"session_outcomes": ["pending", "verified"], "verified": 1}),
    ("suppress-then-replay-is-delayed-delivery",
     "honest register alice\nhonest auth alice\n"
     "drop alice hms 3\nreplay 3 400\n",
     {"session_outcomes": ["verified"], "verified": 1}),
    ("replay-msg2-no-session",
     "honest register alice\nhonest auth alice\nreplay 4 500\n",
     {"replay_outcome": "rejected UnexpectedMessage", "verified": 1}),
]


def suite_attacks(seed: int = 42, emit=print) -> bool:
    ok = True
    for name, text, expect in _ATTACK_CASES:
        world = World(seed=seed)
        result = run_scenario(world, parse_scenario(text))
        problems = list(result.violations)
        verified = sum(1 for s in world.sessions if s.outcome == "verified")
        if verified != expect["verified"]:
            problems.append(f"expected {expect['verified']} verified, got {verified}")
        if "session_outcomes" in expect:
            got = [s.outcome for s in world.sessions]
            if got != expect["session_outcomes"]:
                problems.append(f"session outcomes {got} != "
                                f"{expect['session_outcomes']}")
        if "replay_outcome" in expect:
            replayed = [env.outcome for env in world.channel.deliveries
                        if env.replay_of is not None]
            if replayed != [expect["replay_outcome"]]:
                problems.append(f"replay outcomes {replayed} != "
                                f"[{expect['replay_outcome']}]")
        ok &= not problems
        emit(f"{'ok' if not problems else 'FAIL'} attack {name}")
        for p in problems:
            emit(f"  problem: {p}")

    # authorization enforcement is not a wire attack; drive it directly
    world = World(seed=seed)
    world.register_user("carol", Role.PATIENT)
    world.drain()
    session = world.auth_attempt("carol", scope="write-prescription")
    world.drain()
    good = session.outcome == "rejected Unauthorized" \
        and world.ledger.verify_chain()
    ok &= good
    emit(f"{'ok' if good else 'FAIL'} attack scope-outside-role "
         f"(outcome={session.outcome})")
    return ok


def suite_metrics(seed: int = 42, emit=print) -> bool:
    world = World(seed=seed)
    result = run_scenario(world, parse_scenario(HONEST_SCENARIO))
    ok = result.ok
    for violation in result.violations:
        emit(f"FAIL metrics: {violation}")
    for key in sorted(EXPECTED_OPS):
        side, phase = key
        calls = world.phase_calls.get(key, 0)
        if calls == 0:
            ok = False
            emit(f"FAIL metrics side={side} phase={phase}: never exercised")
            continue
        got = world.phase_ops[key]
        expect = {k: v * calls for k, v in EXPECTED_OPS[key].items()}
        match = all(got[k] == expect[k] for k in OP_KEYS)
        ok &= match
        counts = " ".join(f"{k}={got[k]}/{expect[k]}" for k in OP_KEYS)
        emit(f"{'ok' if match else 'FAIL'} metrics side={side} phase={phase} "
             f"calls={calls} {counts}")
    widths = {width: world.width_counts.get(width, 0) for width in WIRE_KINDS}
    sizes_ok = widths[MSG1_WIDTH] == widths[MSG2_WIDTH] == 4 \
        and widths[REG_REQUEST_WIDTH] == widths[PROVISIONAL_WIDTH] == 2 \
        and set(world.width_counts) == set(WIRE_KINDS)
    ok &= sizes_ok
    emit(f"{'ok' if sizes_ok else 'FAIL'} metrics wire-widths "
         + " ".join(f"{w}B={n}" for w, n in sorted(widths.items())))
    user_session = EXPECTED_OPS[("user", "login")]["hash"] \
        + EXPECTED_OPS[("user", "verify")]["hash"]
    emit(f"ok metrics headline user-session-hashes={user_session} "
         f"server-auth-hashes={EXPECTED_OPS[('server', 'auth')]['hash']}")
    return ok


def suite_fuzz(seed: int = 42, sessions: int = 1000, users: int = 50,
               emit=print) -> bool:
    import random
    rng = random.Random(seed ^ 0xF022)
    world = World(seed=seed)
    roles = list(Role)
    user_roles: dict[str, Role] = {}
    for i in range(users):
        name = f"u{i:02d}"
        role = roles[i % len(roles)]
        world.register_user(name, role)
        user_roles[name] = role
    world.drain()

    def scope_for(role: Role) -> str:
        grant = world.server.perm_table.grants[role]
        pool = sorted(grant.scopes) if grant.scopes is not None else list(SCOPE_CATALOG)
        return rng.choice(pool)

    expected = Counter()
    problems: list[str] = []
    for i in range(sessions):
        name = rng.choice(sorted(user_roles))
        gateway = world.get_user(name)
        scope = scope_for(user_roles[name])
        kind = rng.random()
        if kind < 0.10:
            creds = replace(gateway.creds, password=b"wrong-" + gateway.creds.password)
            session = world.auth_attempt(name, scope, creds=creds)
            expected["wrong-password"] += 1
            if session.outcome != "rejected LocalVerifyFailed":
                problems.append(f"wrong password #{i}: {session.outcome}")
            if session.msg1_env is not None:
                problems.append(f"wrong password #{i} reached the wire")
            continue
        if kind < 0.30:
            blocks = rng.sample(range(51), rng.randint(1, 20))
            flips = [5 * b + off for b in blocks
                     for off in rng.sample(range(5), rng.randint(1, 2))]
            creds = replace(gateway.creds, bio=gateway.creds.bio.with_flips(flips))
            session = world.auth_attempt(name, scope, creds=creds)
            expected["noisy-bio"] += 1
        else:
            session = world.auth_attempt(name, scope)
            expected["honest"] += 1
        world.drain()
        if session.outcome != "verified":
            problems.append(f"session #{i} user={name} scope={scope}: "
                            f"{session.outcome}")
        world.clock.advance(rng.randint(1, 40))
    world.drain(strict=True)
    problems.extend(check_invariants(world))

    # with nothing dropped or tampered, the delivered payloads are every
    # payload that was put on the wire
    delivered = world.channel.deliveries
    if world.channel.dropped or any(env.tampered for env in delivered):
        problems.append("fuzz traffic was dropped or tampered")
    secret = world.server.s_hms
    wire = b"".join(env.payload for env in delivered)
    chain = b"".join(world.ledger.blocks)
    if secret in wire:
        problems.append("master secret bytes appeared on the wire")
    if secret in chain:
        problems.append("master secret bytes appeared in the ledger records")

    emit(f"{'ok' if not problems else 'FAIL'} fuzz sessions={sessions} "
         f"users={users} mix=" +
         ",".join(f"{k}:{v}" for k, v in sorted(expected.items())) +
         f" wire-bytes={len(wire)} ledger-blocks={len(world.ledger.blocks)}")
    for p in problems[:20]:
        emit(f"  problem: {p}")
    return not problems


SUITES = {
    "honest": suite_honest,
    "attacks": suite_attacks,
    "metrics": suite_metrics,
    "fuzz": suite_fuzz,
}
