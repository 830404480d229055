"""Channel simulator tests: event ordering, adversary actions, scenario
grammar, and run-to-run determinism."""

import gc
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from l2ai.channel import (
    Channel, ChannelError, DEFAULT_DELAY, ParseError, Scenario, TRACE_CHUNK,
    UnknownSeq, parse_scenario,
)
from l2ai.permissions import DEFAULT_SCOPE, Role
from l2ai.primitives import SimClock, sha256_160


def sink(outcomes):
    def handler(env):
        outcomes.append((env.seq, env.payload))
        return "ok"
    return handler


def test_delivery_order_and_clock():
    clock = SimClock()
    ch = Channel(clock, base_delay=50)
    seen = []
    ch.send("a", "b", b"first")
    ch.send("a", "b", b"second")
    ch.run({"b": sink(seen)})
    assert [s for s, _ in seen] == [1, 2]
    assert clock.now() == 50            # both sent at t=0, delivered at t=50


def test_handlers_can_reply_mid_run():
    clock = SimClock()
    ch = Channel(clock, base_delay=10)
    log = []

    def server(env):
        log.append(("server", env.payload, clock.now()))
        ch.send("b", "a", b"pong")
        return "replied"

    def client(env):
        log.append(("client", env.payload, clock.now()))
        return "done"

    ch.send("a", "b", b"ping")
    ch.run({"a": client, "b": server})
    assert log == [("server", b"ping", 10), ("client", b"pong", 20)]
    outcomes = [o for _, o in ch.delivered]
    assert outcomes == ["replied", "done"]


def test_eavesdrop_records_bytes_as_sent():
    clock = SimClock()
    ch = Channel(clock)
    ch.script_eavesdrop(1)
    ch.script_modify(1, 0, b"\xff")
    env = ch.send("a", "b", b"\x00\x01\x02")
    assert ch.knowledge[1] == b"\x00\x01\x02"   # pre-modification
    assert env.payload == b"\xff\x01\x02"
    assert env.tampered and env.replay_of is None


def test_modifies_compose_and_bounds_checked():
    clock = SimClock()
    ch = Channel(clock)
    ch.script_modify(1, 1, b"\x0f")
    ch.script_modify(1, 1, b"\xf0")
    env = ch.send("a", "b", b"\x00\x00\x00")
    assert env.payload == b"\x00\xff\x00"

    ch2 = Channel(SimClock())
    ch2.script_modify(1, 2, b"\xaa\xbb")
    with pytest.raises(ChannelError):
        ch2.send("a", "b", b"\x00\x00\x00")


def test_drop_swallows_and_checks_parties():
    clock = SimClock()
    ch = Channel(clock)
    ch.script_drop("a", "b", 1)
    ch.send("a", "b", b"gone")
    ch.send("a", "b", b"kept")
    ch.run({"b": sink([])})
    assert [env.seq for env, _ in ch.delivered] == [2]
    assert ch.dropped == {1}
    assert any("DROP seq=1 a->b" in line for line in ch.log)

    ch2 = Channel(SimClock())
    ch2.script_drop("a", "c", 1)
    with pytest.raises(ChannelError):
        ch2.send("a", "b", b"x")


def test_replay_reinjects_original_bytes():
    clock = SimClock()
    ch = Channel(clock, base_delay=50)
    ch.script_replay(1, 5000)
    ch.script_modify(1, 0, b"\x01")     # wire tampering must not pollute the recording
    seen = []
    ch.send("a", "b", b"\x00\x02")
    ch.run({"b": sink(seen)})
    assert seen == [(1, b"\x01\x02"), (-1, b"\x00\x02")]
    replayed = ch.delivered[1][0]
    assert replayed.replay_of == 1 and not replayed.tampered
    assert clock.now() == 5000 and "00005000 DELIVER seq=-1 a->b len=2" in ch.log


def test_owner_rides_on_replayed_copies_and_stays_out_of_equality():
    # the owner rides to the handler, replayed copies included, and no further
    ch = Channel(SimClock(), base_delay=50)
    ch.script_replay(1, 500)
    ch.script_drop("a", "b", 2)
    ch.script_replay(2, 600)
    owner, other = ["mutable", "so unhashable"], ["another"]
    received = []

    def recording(env):
        received.append((env.seq, env.owner))
        return "ok"

    sent = ch.send("a", "b", b"\x00\x02", owner)
    dropped = ch.send("a", "b", b"\x00\x03", other)
    ch.run({"b": recording})
    assert [seq for seq, _ in received] == [1, -1, -2]
    assert all(got is want for (_, got), want in zip(received, [owner, owner, other]))
    assert all(env.owner is None for env in [sent, dropped, *ch.deliveries])
    replayed = ch.delivered[1][0]
    owned = replace(sent, owner=owner)
    assert owned == sent and hash(owned) == hash(sent)
    assert replace(replayed, owner=owner) == replayed
    assert len({sent, owned, replayed}) == 2


def test_delivered_pairs_each_envelope_with_its_outcome_in_delivery_order():
    ch = Channel(SimClock(), base_delay=10)
    ch.script_drop("a", "b", 2)
    ch.script_replay(1, 500)
    returned = []

    def numbered(env):
        if env.seq == 1:
            ch.send("b", "a", b"reply")
        returned.append(f"took seq={env.seq} at={ch.clock.now()}")
        return returned[-1]

    sent = [ch.send("a", "b", b"one"), ch.send("a", "b", b"two")]
    ch.run({"a": numbered, "b": numbered})
    assert [env.seq for env, _ in ch.delivered] == [1, 3, -1]
    assert ch.delivered == [(env, env.outcome) for env in ch.deliveries]
    assert [outcome for _, outcome in ch.delivered] == returned
    assert returned == ["took seq=1 at=10", "took seq=3 at=20", "took seq=-1 at=500"]
    # each stored outcome is the one its OUTCOME line names
    traced = [line.split(" ", 3)[2:] for line in ch.log if " OUTCOME " in line]
    assert traced == [[f"seq={env.seq}", env.outcome] for env in ch.deliveries]
    # the dropped send was never delivered, so it has no outcome
    assert ch.dropped == {2} and sent[1].outcome is None
    assert sent[0] is ch.deliveries[0]
    # a read-only view: each read builds a fresh list
    ch.delivered.clear()
    assert len(ch.delivered) == 3
    with pytest.raises(AttributeError):
        ch.delivered = []


def test_outcome_stays_out_of_equality_and_hash():
    ch = Channel(SimClock())
    sent = ch.send("a", "b", b"x")
    undelivered = replace(sent)
    ch.run({"b": lambda env: "accepted"})
    assert sent.outcome == "accepted" and undelivered.outcome is None
    assert undelivered == sent and hash(undelivered) == hash(sent)
    assert replace(sent, outcome="rejected BadMac") == sent
    assert len({sent, undelivered}) == 1


def test_replay_before_send_time_is_a_scripting_error():
    clock = SimClock(start=100)
    ch = Channel(clock)
    ch.script_replay(1, 99)
    with pytest.raises(ChannelError):
        ch.send("a", "b", b"x")


def test_a_replay_due_with_a_queued_send_lands_in_push_order():
    # seq 1 is queued for t=50 when seq 2's replay is armed for t=50 too:
    # heap entries that tie on time fall back to the order they were pushed
    ch = Channel(SimClock(), base_delay=50)
    ch.script_replay(2, 50)
    ch.send("a", "b", b"one")
    ch.send("a", "b", b"two")
    seen = []
    ch.run({"b": sink(seen)})
    assert seen == [(1, b"one"), (-1, b"two"), (2, b"two")]


def test_honest_numbering_immune_to_armed_actions():
    clock = SimClock()
    ch = Channel(clock, base_delay=10)
    ch.script_replay(1, 1000)
    first = ch.send("a", "b", b"one")
    second = ch.send("a", "b", b"two")
    assert (first.seq, second.seq) == (1, 2)    # replay copies use negative seqs


def test_leftover_actions_fail_strict_run():
    ch = Channel(SimClock())
    ch.script_eavesdrop(7)
    ch.send("a", "b", b"x")
    with pytest.raises(UnknownSeq):
        ch.run({"b": sink([])})
    ch2 = Channel(SimClock())
    ch2.script_drop("a", "b", 9)
    ch2.send("a", "b", b"x")
    ch2.run({"b": sink([])}, strict=False)      # lenient mode for exploration


def test_every_action_on_one_seq_logs_in_order_and_leaves_nothing_armed():
    ch = Channel(SimClock(), base_delay=10)
    ch.script_drop("a", "b", 1)
    ch.script_replay(1, 300)
    ch.script_modify(1, 0, b"\x01")
    ch.script_eavesdrop(1)
    ch.script_modify(1, 1, b"\x02")
    ch.script_replay(1, 200)
    env = ch.send("a", "b", b"\x00\x00")
    assert [line.split()[1] for line in ch.log] == [
        "SEND", "EAVESDROP", "REPLAY", "REPLAY", "MODIFY", "MODIFY", "DROP"]
    assert ch.log[2:4] == ["00000000 REPLAY seq=-1 of=1 at=300",
                           "00000000 REPLAY seq=-2 of=1 at=200"]
    assert env.payload == b"\x01\x02" and env.tampered
    assert ch.knowledge == {1: b"\x00\x00"}
    assert ch.dropped == {1} and ch._armed == {}
    seen = []
    ch.run({"b": sink(seen)})                   # strict: nothing is left over
    assert seen == [(-2, b"\x00\x00"), (-1, b"\x00\x00")]


def test_strict_run_names_leftovers_of_every_kind():
    ch = Channel(SimClock())
    ch.script_replay(9, 100)
    ch.script_modify(4, 0, b"\x01")
    ch.script_drop("a", "b", 7)
    ch.script_eavesdrop(5)
    ch.script_eavesdrop(2)
    ch.script_modify(2, 0, b"\x01")
    ch.send("a", "b", b"x")
    ch.send("a", "b", b"y")
    with pytest.raises(UnknownSeq, match=r"seqs \[4, 5, 7, 9\]$"):
        ch.run({"b": sink([])})


def test_a_second_drop_and_a_bad_modify_are_refused_and_arm_nothing():
    ch = Channel(SimClock())
    ch.script_eavesdrop(3)
    ch.script_drop("a", "b", 3)
    with pytest.raises(ChannelError, match="already has a drop armed"):
        ch.script_drop("a", "c", 3)
    with pytest.raises(ChannelError, match="non-negative offset"):
        ch.script_modify(6, -1, b"\x01")
    with pytest.raises(ChannelError, match="non-empty mask"):
        ch.script_modify(3, 0, b"")
    with pytest.raises(ChannelError, match="replay time must be non-negative"):
        ch.script_replay(6, -1)
    with pytest.raises(ChannelError, match="sequence numbers start at 1, got 0"):
        ch.script_eavesdrop(0)
    assert sorted(ch._armed) == [3] and ch._armed[3].drop == ("a", "b")


def test_arming_past_seqs_rejected():
    ch = Channel(SimClock())
    ch.send("a", "b", b"x")
    for arm in (lambda: ch.script_eavesdrop(1),
                lambda: ch.script_drop("a", "b", 1),
                lambda: ch.script_modify(1, 0, b"\x01"),
                lambda: ch.script_replay(1, 10),
                lambda: ch.script_eavesdrop(0)):
        with pytest.raises(ChannelError):
            arm()


def test_missing_handler_is_loud():
    ch = Channel(SimClock())
    ch.send("a", "nobody", b"x")
    with pytest.raises(ChannelError):
        ch.run({})


def test_identical_scripts_produce_identical_logs():
    def one_run():
        clock = SimClock()
        ch = Channel(clock, base_delay=25)
        ch.script_eavesdrop(1)
        ch.script_replay(2, 700)
        ch.script_modify(3, 4, b"55aa")

        def echo(env):
            if env.seq <= 2:
                ch.send("b", "a", b"reply-" + env.payload)
            return "ok"

        ch.send("a", "b", b"m1")
        ch.send("a", "b", b"m2-longer")
        ch.run({"a": lambda e: "ok", "b": echo})
        return ch.log

    assert one_run() == one_run()


# --- trace storage ------------------------------------------------------------

def test_trace_is_kept_as_one_chunk_per_drain():
    ch = Channel(SimClock(), base_delay=10)

    def echo(env):
        ch.send("b", "a", b"pong")
        return "ok"

    runs = 30
    for _ in range(runs):
        ch.send("a", "b", b"ping")
        ch.run({"a": lambda env: "ok", "b": echo})
    ch.send("a", "b", b"undrained")
    # six lines per round trip; a run adds at most one chunk, since it joins
    # its lines onto the last chunk until that one holds TRACE_CHUNK characters
    assert len(ch._chunks) + len(ch._pending) <= runs + 1
    assert len(ch.log) == 6 * runs + 1
    assert ch.trace == "\n".join(ch.log)


def test_long_trace_chunk_count_follows_its_length_not_its_drains():
    ch = Channel(SimClock(), base_delay=10)

    def echo(env):
        ch.send("b", "a", b"pong")
        return "ok"

    runs = 2000
    for _ in range(runs):
        ch.send("a", "b", b"ping")
        ch.run({"a": lambda env: "ok", "b": echo})
    log, trace = ch.log, ch.trace
    assert len(log) == 6 * runs and trace == "\n".join(log)
    chunks = ch._chunks
    assert len(chunks) <= len(trace) // TRACE_CHUNK + 1 < runs // 10
    assert all(len(chunk) >= TRACE_CHUNK for chunk in chunks[:-1])


def test_trace_keeps_lines_not_yet_drained_and_lines_before_an_error():
    ch = Channel(SimClock(), base_delay=10)
    assert ch.trace == "" and ch.log == []
    ch.send("a", "b", b"x")
    assert ch.trace == "00000000 SEND seq=1 a->b len=1"    # sent, not drained
    assert ch.log == ["00000000 SEND seq=1 a->b len=1"]

    ch.send("a", "nobody", b"yy")
    with pytest.raises(ChannelError):
        ch.run({"b": lambda env: "ok"})
    # the delivery that found no handler was logged before the run failed
    assert ch.log[-3:] == ["00000010 DELIVER seq=1 a->b len=1",
                           "00000010 OUTCOME seq=1 ok",
                           "00000010 DELIVER seq=2 a->nobody len=2"]
    assert ch.trace == "\n".join(ch.log)


# A line naming the long party is a fifth of a chunk or more, so a burst of
# sends to it closes several chunks; "ghost" has no handler.
PARTIES = ("a", "zoë", "ünïcødé-" * 100)
TRAFFIC = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(PARTIES),
              st.sampled_from(PARTIES + ("ghost",)), st.integers(1, 30), st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(PARTIES), st.sampled_from(PARTIES),
              st.integers(0, 6)),
    st.tuples(st.just("replay"), st.integers(0, 6), st.integers(0, 3000)),
    st.tuples(st.just("modify"), st.integers(0, 6), st.integers(0, 4)),
    st.tuples(st.just("run"), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@example(traffic=[("send", PARTIES[2], PARTIES[1], 30, True), ("run", False)])
@given(traffic=st.lists(TRAFFIC, min_size=1, max_size=20))
def test_event_digest_is_the_digest_of_the_trace(traffic):
    # Sends, drains, drops, replays and modifies, with scripting mistakes
    # raising ChannelError from a send or from inside a drain, and sends left
    # undrained: after every step the streamed digest is the hash of the text.
    ch = Channel(SimClock(), base_delay=10)
    sent = 0                        # a refused send still takes its seq

    def send(src, dst, payload):
        nonlocal sent
        sent += 1
        ch.send(src, dst, payload)

    def handler(env):
        if env.payload[:1] == b"?":
            send(env.dst, env.src, b"!")
        return f"took {len(env.payload)} bytes"

    handlers = dict.fromkeys(PARTIES, handler)
    for kind, *args in traffic:
        try:
            if kind == "send":
                src, dst, count, ask = args
                for i in range(count):
                    send(src, dst, (b"?" if ask else b".") + bytes(i))
            elif kind == "drop":
                ch.script_drop(args[0], args[1], sent + 1 + args[2])
            elif kind == "replay":
                ch.script_replay(sent + 1 + args[0], ch.clock.now() + args[1])
            elif kind == "modify":
                ch.script_modify(sent + 1 + args[0], args[1], b"\x01")
            else:
                ch.run(handlers, strict=args[0])
        except ChannelError:
            pass
        digest = ch.event_digest()
        assert digest == sha256_160(ch.trace.encode())
        # the adversary's deliveries, in order; every replay's original is
        # recorded, so no delivery left out shares its origin with another
        assert ch.adversary_deliveries == [
            e for e in ch.deliveries
            if e.tampered or e.replay_of is not None or e.seq in ch.knowledge]
        assert all(e.replay_of in ch.knowledge for e in ch.deliveries
                   if e.replay_of is not None)


# --- scenario grammar ---------------------------------------------------------

SCRIPT = """\
# a small attack scene
delay 80
honest register alice N
honest auth alice

eavesdrop 3
drop alice hms 4        # swallow the second login attempt
modify 3 8 ff00ff
replay 3 9000
honest auth alice
"""


def test_parse_scenario_full_grammar():
    sc = parse_scenario(SCRIPT)
    assert sc.base_delay == 80
    assert sc.steps == (("register_user", ("alice", Role.NURSE)),
                        ("auth_attempt", ("alice", "read-patient-vitals")),
                        ("auth_attempt", ("alice", "read-patient-vitals")))
    assert sc.actions == (("script_eavesdrop", (3,)),
                          ("script_drop", ("alice", "hms", 4)),
                          ("script_modify", (3, 8, b"\xff\x00\xff")),
                          ("script_replay", (3, 9000)))

    ch = Channel(SimClock())
    sc.arm(ch)
    assert ch.base_delay == 80
    assert sorted(ch._armed) == [3, 4]
    assert ch._armed[3].replays == [9000] and ch._armed[4].drop == ("alice", "hms")


def test_arming_a_parsed_scenario_keeps_nothing_alive():
    # The type attribute cache slots a name by its string object's address
    # and keeps a reference to it, so a method name built per call would
    # leave strings alive; the parser stores the names as constants.
    sc = parse_scenario(SCRIPT)

    def arm_fresh_channels():
        for _ in range(1000):
            sc.arm(Channel(SimClock()))

    arm_fresh_channels()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        arm_fresh_channels()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2048


def test_parse_auth_scope_argument():
    sc = parse_scenario("honest auth alice read-own-records\n")
    assert sc.steps == (("auth_attempt", ("alice", "read-own-records")),)


def test_parsed_honest_step_defaults_and_immutability():
    text = ("honest register alice\nhonest auth alice\nhonest update-creds alice\n"
            "honest update-auth alice P\n")
    sc = parse_scenario(text)
    assert sc.steps == (("register_user", ("alice", Role.DOCTOR)),
                        ("auth_attempt", ("alice", DEFAULT_SCOPE)),
                        ("update_user_credentials", ("alice",)),
                        ("update_authorization", ("alice", Role.PATIENT)))
    assert sc.steps[3][1][1] is Role.PATIENT
    with pytest.raises(TypeError):
        sc.steps[0][1][1] = Role.NURSE
    with pytest.raises(AttributeError):
        sc.base_delay = 1
    again = parse_scenario(text)
    assert again == sc
    # the method names are the parser's constants, not strings built per parse
    assert all(a[0] is b[0] for a, b in zip(again.steps, sc.steps))


@pytest.mark.parametrize("line, fragment", [
    ("jump 3", "unknown directive"),
    ("delay", "usage"),
    ("delay x", "integer"),
    ("delay -5", ">= 0"),
    # int() alone would accept a sign, underscores and non-ASCII digits
    ("delay ٥٠", "delay must be an integer, got '٥٠'"),
    ("delay -", "delay must be an integer, got '-'"),
    ("replay +3 400", "seq must be an integer, got '+3'"),
    ("replay 3 +4_00", "at-ms must be an integer, got '+4_00'"),
    ("modify ３ 1 ff", "seq must be an integer, got '３'"),
    ("modify 3 0_1 ff", "offset must be an integer, got '0_1'"),
    ("eavesdrop 0", ">= 1"),
    ("eavesdrop", "usage"),
    ("eavesdrop 1 2", "usage"),
    ("drop a b", "usage"),
    ("modify 1 2", "usage"),
    ("modify 1 2 zz", "hex"),
    ("modify 1 2 f", "hex"),
    ("modify 1 2 ", "usage"),
    ("replay 1", "usage"),
    ("honest fly alice", "unknown phase"),
    ("honest register alice Q", "unknown role"),
    ("honest update-auth alice Q", "unknown role"),
    ("honest update-creds alice extra", "no third argument"),
    ("honest auth", "usage"),
])
def test_parse_scenario_rejects_bad_lines(line, fragment):
    with pytest.raises(ParseError) as err:
        parse_scenario("delay 10\n" + line + "\n")
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_default_delay_matches_module_constant():
    assert parse_scenario("honest auth u\n").base_delay == DEFAULT_DELAY
