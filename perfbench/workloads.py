"""Seeded inputs, operations and correctness checks for the three workloads.

Every workload is a closed loop with one client, one thread and one
process: the next op starts only after the previous one has returned.

A *round* is one fixed batch of ops on freshly set-up state. All rounds of
a run execute the same inputs, so every simulated statistic of a round
(outcomes, op counts, wire widths, event digest) repeats exactly, while the
host-time metrics become medians over identical rounds. Fixing the batch
also fixes the chain length the verdict has to verify, so `verdict_s`
compares like with like on every commit.

Input generation, script validation and every check run outside the timed
regions. The package is called only through its public names, and always
through the module attribute (`harness.check_invariants`, `cli.main`) so
that the span recorder's patches see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from l2ai import cli, harness
from l2ai.channel import ChannelError, parse_scenario
from l2ai.harness import EXPECTED_OPS, OP_KEYS, World
from l2ai.permissions import SCOPE_CATALOG, PermissionTable, Role
from l2ai.protocol import MSG1_WIDTH, MSG2_WIDTH

ROLES = list(Role)
_GRANTS = PermissionTable.default().grants
SCOPES = {role: sorted(_GRANTS[role].scopes) if _GRANTS[role].scopes is not None
          else list(SCOPE_CATALOG) for role in ROLES}

# Counted ops a flow makes before the check that rejects it, read off
# protocol.py the way EXPECTED_OPS pins whole calls. A rejected call costs
# these instead of its EXPECTED_OPS row.
REJECTED_OPS = {
    # wrong password: fe_rep, b_i, pwd, d_tid, k_i, then the card verifier
    ("user", "login", "LocalVerifyFailed"): {"hash": 4, "xor": 4, "fe": 1},
    ("server", "auth", "Stale"): {},
    ("server", "auth", "UnknownPrincipal"): {"hash": 3, "xor": 2},
    ("server", "auth", "Unauthorized"): {"hash": 3, "xor": 2},
    ("server", "auth", "BadMac"): {"hash": 6, "xor": 2},
    ("user", "verify", "Stale"): {},
    ("user", "verify", "BadMac"): {"hash": 1, "xor": 1},
    ("user", "verify", "UnexpectedMessage"): {},
}


def initial_users(count: int) -> dict[str, Role]:
    """User names with roles cycling through all eight."""
    return {f"u{i:03d}": ROLES[i % len(ROLES)] for i in range(count)}


def enrol(world: World, users: dict[str, Role]) -> None:
    for name, role in users.items():
        world.register_user(name, role)
    world.drain()


def timed_setup(seed: int, users: dict[str, Role]) -> tuple[World, float]:
    """World construction plus enrolment and a drain: the `setup_s` span."""
    t0 = time.perf_counter()
    world = World(seed=seed)
    enrol(world, users)
    return world, time.perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- checks --------------------------------------------------------------------


def op_total_problems(world: World) -> list[str]:
    """Per-phase op totals must equal EXPECTED_OPS x completed calls plus the
    pinned partial cost of each rejected call."""
    rejected: Counter = Counter()
    for session in world.sessions:
        if session.local_reject:
            rejected[("user", "login", session.local_reject.split()[1])] += 1
    for env, outcome in world.channel.delivered:
        if outcome.startswith("rejected "):
            cls = outcome.split()[1]
            if len(env.payload) == MSG1_WIDTH:
                rejected[("server", "auth", cls)] += 1
            elif len(env.payload) == MSG2_WIDTH:
                rejected[("user", "verify", cls)] += 1
    problems = []
    for key in sorted(set(world.phase_calls) | set(world.phase_ops)):
        calls = world.phase_calls.get(key, 0)
        expect = Counter()
        for (side, phase, cls), n in rejected.items():
            if (side, phase) != key:
                continue
            partial = REJECTED_OPS.get((side, phase, cls))
            if partial is None:
                problems.append(f"no pinned cost for {side}/{phase} rejected {cls}")
                partial = {}
            for k, v in partial.items():
                expect[k] += v * n
            calls -= n
        for k, v in EXPECTED_OPS[key].items():
            expect[k] += v * calls
        got = world.phase_ops.get(key, Counter())
        if any(got.get(k, 0) != expect.get(k, 0) for k in OP_KEYS):
            problems.append(f"op totals {key[0]}/{key[1]}: got {dict(got)}, "
                            f"expected {dict(expect)}")
    return problems


def violation_problems(violations: list[str]) -> list[str]:
    return [f"violation: {v}" for v in violations]


# --- honest and churn: one World, many small ops -------------------------------

HONEST_USERS = 200
HONEST_OPS = 2000        # ops per round; a round takes about a second at the seed
CHURN_OPS = 3000

AUTH, NOISY, WRONG, CREDS, ROLE, ENROL = range(6)
KIND_NAMES = ("honest", "noisy-bio", "wrong-password", "update-creds",
              "update-auth", "enrol")
# cumulative shares of the churn mix, in KIND order
CHURN_MIX = (0.40, 0.60, 0.70, 0.85, 0.95, 1.00)


@dataclass
class RoundResult:
    setup_s: float
    loop_s: float
    op_ns: list[int]
    verdict_s: float
    report: str
    problems: list[str]     # one entry per failed op or failed check
    log_lines: int = 0
    scale: float = 1.0      # host-speed scale for the round, set by the runner


class WorldWorkload:
    """Shared runner for `honest` and `churn`: set up a World with the
    initial users, run the op list, then take the verdict."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.users = initial_users(HONEST_USERS)
        self.ops = self.generate(random.Random(f"{self.name}:{seed}"))

    def generate(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def prep(self, world: World, op: tuple):
        return None

    def act(self, world: World, op: tuple, creds) -> None:
        raise NotImplementedError

    def check(self, world: World) -> list[str]:
        raise NotImplementedError

    def run_round(self, rec=None) -> RoundResult:
        world, setup_s = timed_setup(self.seed, self.users)
        log_before = len(world.channel.log)
        if rec is not None:
            rec.install()
        clock = time.perf_counter_ns
        op_ns = []
        prep, act = self.prep, self.act
        t_loop = time.perf_counter()
        for op in self.ops:
            creds = prep(world, op)
            root = rec.begin("op") if rec is not None else 0
            t0 = clock()
            act(world, op, creds)
            op_ns.append(clock() - t0)
            if rec is not None:
                rec.end(root)
        loop_s = time.perf_counter() - t_loop
        root = rec.begin("verdict") if rec is not None else 0
        t0 = time.perf_counter()
        world.finalize()
        violations = harness.check_invariants(world)
        report = "\n".join(world.report_lines(violations)) + "\n"
        verdict_s = time.perf_counter() - t0
        if rec is not None:
            rec.end(root)
            rec.uninstall()
        problems = violation_problems(violations) + op_total_problems(world) \
            + self.check(world)
        return RoundResult(setup_s=setup_s, loop_s=loop_s, op_ns=op_ns,
                           verdict_s=verdict_s, report=report, problems=problems,
                           log_lines=len(world.channel.log) - log_before)

    def retained_bytes_per_op(self) -> float:
        """tracemalloc growth per op over the second half of a fresh round,
        after the first half has warmed the World up."""
        world, _ = timed_setup(self.seed, self.users)
        half = len(self.ops) // 2
        for op in self.ops[:half]:
            self.act(world, op, self.prep(world, op))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for op in self.ops[half:]:
                self.act(world, op, self.prep(world, op))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / (len(self.ops) - half)


class Honest(WorldWorkload):
    """200 users, roles cycling through all eight; each op is one
    authentication with a scope the role grants, then a drain."""

    name = "honest"
    ops_per_round = HONEST_OPS

    def generate(self, rng):
        names = sorted(self.users)
        ops = []
        for _ in range(HONEST_OPS):
            name = rng.choice(names)
            ops.append((AUTH, name, rng.choice(SCOPES[self.users[name]]), None,
                        rng.randint(1, 40)))
        return ops

    def act(self, world, op, creds):
        world.auth_attempt(op[1], op[2])
        world.drain()
        world.clock.advance(op[4])

    def check(self, world):
        problems = []
        if len(world.sessions) != HONEST_OPS:
            problems.append(f"{len(world.sessions)} sessions for {HONEST_OPS} ops")
        for i, session in enumerate(world.sessions):
            if session.outcome != "verified" or session.sk_user is None \
                    or session.sk_user != session.sk_server:
                problems.append(f"op {i} user={session.user}: {session.outcome}, "
                                "keys not agreed")
        return problems


class Churn(WorldWorkload):
    """The same World under a lifecycle mix: honest and noisy-biometric
    logins, wrong passwords, credential and role updates, new enrolments."""

    name = "churn"
    ops_per_round = CHURN_OPS

    def generate(self, rng):
        roles = dict(self.users)
        names = sorted(roles)
        ops = []
        for _ in range(CHURN_OPS):
            draw = rng.random()
            kind = next(k for k, edge in enumerate(CHURN_MIX) if draw < edge)
            dt = rng.randint(1, 40)
            if kind == ENROL:
                name = f"n{len(roles) - HONEST_USERS:04d}"
                role = rng.choice(ROLES)
                roles[name] = role
                names.append(name)
                ops.append((ENROL, name, None, role, dt))
                continue
            name = rng.choice(names)
            if kind == ROLE:
                role = rng.choice(ROLES)
                roles[name] = role
                ops.append((ROLE, name, None, role, dt))
            elif kind == CREDS:
                ops.append((CREDS, name, None, None, dt))
            else:
                scope = rng.choice(SCOPES[roles[name]])
                flips = None
                if kind == NOISY:
                    # at most 2 of 5 bits per repetition block: recoverable
                    blocks = rng.sample(range(51), rng.randint(1, 20))
                    flips = tuple(5 * b + off for b in blocks
                                  for off in rng.sample(range(5), rng.randint(1, 2)))
                ops.append((kind, name, scope, flips, dt))
        return ops

    def prep(self, world, op):
        kind = op[0]
        if kind == NOISY:
            creds = world.users[op[1]].creds
            return replace(creds, bio=creds.bio.with_flips(op[3]))
        if kind == WRONG:
            creds = world.users[op[1]].creds
            return replace(creds, password=b"wrong-" + creds.password)
        return None

    def act(self, world, op, creds):
        kind, name = op[0], op[1]
        if kind <= WRONG:
            world.auth_attempt(name, op[2], creds=creds)
        elif kind == CREDS:
            world.update_user_credentials(name)
        elif kind == ROLE:
            world.update_authorization(name, op[3])
        else:
            world.register_user(name, op[3])
        world.drain()
        world.clock.advance(op[4])

    def check(self, world):
        """Outcomes are resolved here, after World.finalize(): server-side
        rejections reach Session.outcome only there."""
        problems = []
        sessions = iter(world.sessions)
        notes = iter(world.step_notes)
        for i, (kind, name, _scope, extra, _dt) in enumerate(self.ops):
            if kind <= WRONG:
                session = next(sessions, None)
                if session is None or session.user != name:
                    problems.append(f"op {i}: session missing")
                    continue
                if kind == WRONG:
                    ok = session.outcome == "rejected LocalVerifyFailed" \
                        and session.msg1_env is None
                else:
                    ok = session.outcome == "verified" \
                        and session.sk_user == session.sk_server
                if not ok:
                    problems.append(f"op {i} {KIND_NAMES[kind]} user={name}: "
                                    f"{session.outcome}")
            elif kind in (CREDS, ROLE):
                want = f"step kind=update-creds user={name} result=ok" if kind == CREDS \
                    else f"step kind=update-auth user={name} result=ok role={extra.value}"
                note = next(notes, None)
                if note != want:
                    problems.append(f"op {i}: {note!r} != {want!r}")
            elif name in world.tainted:
                problems.append(f"op {i}: enrolment of {name} tainted")
        if next(sessions, None) is not None or next(notes, None) is not None:
            problems.append("more sessions or step notes than ops")
        return problems


# --- adversary: many short scripts through the CLI -----------------------------

ADV_SCRIPTS = 64         # pool size; a round is one pass over the pool
VERDICT_SCRIPTS = 8      # scripts 0..7 cover every user count and 7 step counts
ADV_USERS = ("alice", "bob", "carol", "dave")
ADV_WIDTHS = (MSG1_WIDTH, MSG2_WIDTH)
# replay offsets past the send: before the original lands, within the
# freshness window, and beyond delta-t (2000 ms)
REPLAY_BANDS = ((1, 49), (50, 1500), (2001, 4000))


@dataclass(frozen=True)
class Script:
    text: str
    seed: int
    report: str          # expected stdout of `l2ai run`, exit status 0


def _run_text(text: str, seed: int):
    world = World(seed=seed)
    return world, harness.run_scenario(world, parse_scenario(text))


def _sends(world: World) -> list[tuple[int, str, str, int, int]]:
    """(seq, src, dst, width, time) of every honest send, from the trace."""
    out = []
    for line in world.channel.log:
        t, verb, *rest = line.split()
        if verb == "SEND":
            src, dst = rest[1].split("->")
            out.append((int(rest[0][4:]), src, dst, int(rest[2][4:]), int(t)))
    return out


def make_script(seed: int, index: int) -> tuple[Script, list[str]]:
    """One validated script. Sizes cycle with the index so that every pool
    has the same mix of script sizes; content comes from the seed.

    Attacks are added in sequence order. After each candidate the script so
    far is re-run, and the candidate is kept only if the run raises no
    ChannelError; the next attack is chosen from the sends of that run, so
    sequence numbers shifted by an earlier attack are already accounted for.
    """
    rng = random.Random(f"adversary:{seed}:{index}")
    world_seed = rng.randrange(1 << 32)
    names = ADV_USERS[:2 + index % 3]
    roles = {}
    honest = []
    if index % 4 == 0:
        honest.append(f"delay {rng.randint(5, 400)}")
    for name in names:
        roles[name] = rng.choice(ROLES)
        honest.append(f"honest register {name} {roles[name].value}")
    for step in range(4 + index % 7):
        name = rng.choice(names)
        draw = rng.random()
        if step == 0 or draw < 0.6:
            honest.append(f"honest auth {name} {rng.choice(SCOPES[roles[name]])}")
        elif draw < 0.8:
            honest.append(f"honest update-creds {name}")
        else:
            roles[name] = rng.choice(ROLES)
            honest.append(f"honest update-auth {name} {roles[name].value}")

    attacks: list[str] = []
    world, result = _run_text("\n".join(honest) + "\n", world_seed)
    last = 0
    for _ in range(1 + index % 4):
        targets = [s for s in _sends(world) if s[0] > last and s[3] in ADV_WIDTHS]
        if not targets:
            break
        seq, src, dst, width, sent = rng.choice(targets[:3])
        kind = rng.choice(("eavesdrop", "drop", "modify", "replay"))
        if kind == "eavesdrop":
            lines = [f"eavesdrop {seq}"]
        elif kind == "drop":
            lines = [f"drop {src} {dst} {seq}"]
        elif kind == "modify":
            size = rng.randint(1, 4)
            mask = bytes(rng.randint(1, 255) for _ in range(size))
            lines = [f"modify {seq} {rng.randrange(width - size + 1)} {mask.hex()}"]
        else:
            bands = rng.sample(REPLAY_BANDS, rng.randint(1, 2))
            lines = [f"replay {seq} {sent + rng.randint(lo, hi)}" for lo, hi in bands]
        try:
            world, result = _run_text("\n".join(honest + attacks + lines) + "\n",
                                      world_seed)
        except ChannelError:
            continue
        attacks.extend(lines)
        last = seq

    text = "\n".join(honest + attacks) + "\n"
    problems = violation_problems(result.violations) + op_total_problems(world)
    return Script(text=text, seed=world_seed,
                  report="\n".join(result.report_lines()) + "\n"), problems


class Adversary:
    """Each op is `l2ai run <script> --seed <s>` through cli.main with its
    output captured; the script gets its own World with 2-4 users."""

    name = "adversary"
    ops_per_round = ADV_SCRIPTS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.scripts = []
        self.problems = []
        for i in range(ADV_SCRIPTS):
            script, problems = make_script(seed, i)
            self.scripts.append(script)
            self.problems.extend(f"script {i}: {p}" for p in problems)
        self.argv = []
        for i, script in enumerate(self.scripts):
            path = workdir / f"adversary-{i:03d}.txt"
            path.write_text(script.text)
            self.argv.append(["run", str(path), "--seed", str(script.seed)])
        self.fingerprint_text = "".join(
            f"--- seed={s.seed}\n{s.text}--- report\n{s.report}" for s in self.scripts)

    def run_round(self, rec=None) -> RoundResult:
        users = dict(zip(ADV_USERS, ROLES))
        _, setup_s = timed_setup(self.seed, users)
        clock = time.perf_counter_ns
        op_ns = []
        outputs = []
        if rec is not None:
            rec.install()
        t_loop = time.perf_counter()
        for argv in self.argv:
            buf = io.StringIO()
            root = rec.begin("op") if rec is not None else 0
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                t0 = clock()
                try:
                    code = cli.main(argv)
                except Exception as exc:     # an op that raises is a failed op
                    code = f"raised {type(exc).__name__}: {exc}"
                op_ns.append(clock() - t0)
            if rec is not None:
                rec.end(root)
            outputs.append((code, buf))
        loop_s = time.perf_counter() - t_loop
        if rec is not None:
            rec.uninstall()
        problems = list(self.problems)
        for i, (code, buf) in enumerate(outputs):
            if code != 0:
                problems.append(f"script {i}: exit {code}")
            elif buf.getvalue() != self.scripts[i].report:
                problems.append(f"script {i}: report differs from the expected one")
        # In the timed loop the verdict is inside each op; these runs time it
        # alone, a few scripts in every round so that the samples span the run.
        verdicts = []
        for i, script in enumerate(self.scripts[:VERDICT_SCRIPTS]):
            seconds, report, _ = self._verdict_run(script)
            verdicts.append(seconds)
            if report != script.report:
                problems.append(f"script {i}: verdict-run report differs")
        return RoundResult(setup_s=setup_s, loop_s=loop_s, op_ns=op_ns,
                           verdict_s=sum(verdicts) / len(verdicts),
                           report=self.fingerprint_text, problems=problems)

    def _verdict_run(self, script: Script):
        """One script through harness.run_scenario, untimed, then the
        verdict (finalize, check_invariants, report_lines) timed on the
        finished World. finalize only writes the same values again, so the
        timed call repeats the work of the one inside run_scenario."""
        world = World(seed=script.seed)
        harness.run_scenario(world, parse_scenario(script.text))
        t0 = time.perf_counter()
        world.finalize()
        violations = harness.check_invariants(world)
        report = "\n".join(world.report_lines(violations)) + "\n"
        return time.perf_counter() - t0, report, world

    def retained_bytes_per_op(self) -> float:
        """Each op builds and frees its own World, so bytes are measured with
        every op's World still held: what one script run keeps alive."""
        held = [self._verdict_run(s)[2] for s in self.scripts[:VERDICT_SCRIPTS]]
        held.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for script in self.scripts:
                held.append(self._verdict_run(script)[2])
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / len(self.scripts)
