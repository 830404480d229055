"""Deterministic public-channel simulator with a scriptable in-path adversary.

One Channel instance is the only wire in a simulation: every protocol message
crosses it as raw bytes, and the simulated clock advances only when the
channel delivers. Sends are numbered 1, 2, 3... in send order, so a scenario
script can name any message by its sequence number before the run starts.

The adversary is a set of actions armed before the run:

  eavesdrop <seq>            record the payload as sent
  drop <from> <to> <seq>     swallow the message (parties must match)
  modify <seq> <off> <hex>   XOR a mask into the payload at a byte offset
  replay <seq> <at-ms>       re-inject the recorded payload for delivery
                             at the given absolute time (implies eavesdrop)
  delay <ms>                 set the one-way delivery delay for the run

Replayed copies carry negative sequence numbers so honest numbering never
shifts underneath a script. A sender may name an owner for a send; its
envelope and every replayed copy carry it back to the handlers, and the
channel itself never reads it. Modification happens on the wire: the
eavesdrop record and the adversary's replay material keep the bytes as the
honest party sent them. An armed action whose sequence number never occurs
is a scripting mistake and fails the run loudly. A dropped send's seq goes
into `dropped` when it is sent; every other send is delivered by the next
run, so after a drain "not delivered" means exactly "dropped".

Delivery handlers return an outcome string and must not raise; the caller
wraps protocol rejections into outcomes. Everything is logged to a stable
line format, so two runs of the same scenario compare equal byte-for-byte.
The trace is stored as text, one newline-joined chunk per drain: each line
waits in a short pending list until the end of `run` joins it into that
drain's chunk, and reading the trace first flushes any pending lines (sends
made outside a drain, lines logged before a `ChannelError`). `trace` is the
whole text, the bytes the report's event digest covers; `log` renders its
lines on demand.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .permissions import DEFAULT_SCOPE, Role
from .primitives import SimClock

DEFAULT_DELAY = 50  # one-way delivery delay, simulated milliseconds


class ChannelError(Exception):
    """Scripting mistake surfaced at run time (bad drop parties, impossible
    replay time, modify outside the payload, missing handler)."""


class UnknownSeq(ChannelError):
    """Armed adversary actions name sequence numbers that never occurred."""


class ParseError(ValueError):
    """Scenario text rejected; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class Envelope:
    """One message in flight. `tampered` marks an adversary modification;
    `replay_of` names the original send for re-injected copies. `owner` is
    whatever the sender passed to `send` (replayed copies keep it): the
    channel carries it and never reads it, and it takes no part in `==` or
    `hash`."""

    seq: int
    src: str
    dst: str
    payload: bytes
    send_time: int
    deliver_time: int
    tampered: bool = False
    replay_of: int | None = None
    owner: object = field(default=None, compare=False)

    @property
    def touched(self) -> bool:
        return self.tampered or self.replay_of is not None

    @property
    def origin(self) -> int:
        """The seq of the honest send this delivery stems from."""
        return self.seq if self.replay_of is None else self.replay_of


Handler = Callable[[Envelope], str]


class Channel:
    def __init__(self, clock: SimClock, base_delay: int = DEFAULT_DELAY):
        self.clock = clock
        self.base_delay = base_delay
        self.knowledge: dict[int, bytes] = {}     # eavesdropped payloads, as sent
        self._chunks: list[str] = []               # the trace, one chunk per drain
        self._pending: list[str] = []              # lines logged since the last flush
        self.delivered: list[tuple[Envelope, str]] = []
        self.dropped: set[int] = set()            # seqs swallowed by a drop action
        self._next_seq = 1
        self._next_replay = -1
        self._pushes = 0
        self._queue: list[tuple[int, int, Envelope]] = []
        self._eavesdrops: set[int] = set()
        self._drops: dict[int, tuple[str, str]] = {}
        self._modifies: dict[int, list[tuple[int, bytes]]] = {}
        self._replays: dict[int, list[int]] = {}

    # --- adversary scripting (armed before or between runs) -------------------

    def script_eavesdrop(self, seq: int) -> None:
        self._check_seq(seq)
        self._eavesdrops.add(seq)

    def script_drop(self, src: str, dst: str, seq: int) -> None:
        self._check_seq(seq)
        if seq in self._drops:
            raise ChannelError(f"seq={seq} already has a drop armed")
        self._drops[seq] = (src, dst)

    def script_modify(self, seq: int, offset: int, mask: bytes) -> None:
        self._check_seq(seq)
        if offset < 0 or not mask:
            raise ChannelError("modify needs a non-negative offset and a non-empty mask")
        self._modifies.setdefault(seq, []).append((offset, mask))

    def script_replay(self, seq: int, at_ms: int) -> None:
        self._check_seq(seq)
        if at_ms < 0:
            raise ChannelError("replay time must be non-negative")
        self._replays.setdefault(seq, []).append(at_ms)

    def _check_seq(self, seq: int) -> None:
        if seq < 1:
            raise ChannelError(f"sequence numbers start at 1, got {seq}")
        if seq < self._next_seq:
            raise ChannelError(f"seq={seq} was already sent; arm actions up front")

    # --- wire ------------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes, owner: object = None) -> Envelope:
        now = self.clock.now()
        seq = self._next_seq
        self._next_seq += 1
        self._log(now, f"SEND seq={seq} {src}->{dst} len={len(payload)}")

        if seq in self._eavesdrops or seq in self._replays:
            self.knowledge[seq] = payload
            self._eavesdrops.discard(seq)
            self._log(now, f"EAVESDROP seq={seq}")
        for at in self._replays.pop(seq, ()):
            if at < now:
                raise ChannelError(f"replay of seq={seq} at t={at} predates its send at t={now}")
            rseq = self._next_replay
            self._next_replay -= 1
            copy = Envelope(rseq, src, dst, payload, now, at, False, seq, owner)
            self._push(copy)
            self._log(now, f"REPLAY seq={rseq} of={seq} at={at}")

        out = payload
        for offset, mask in self._modifies.pop(seq, ()):
            if offset + len(mask) > len(out):
                raise ChannelError(f"modify seq={seq} off={offset} runs past the "
                                   f"{len(out)}-byte payload")
            buf = bytearray(out)
            for i, m in enumerate(mask):
                buf[offset + i] ^= m
            out = bytes(buf)
            self._log(now, f"MODIFY seq={seq} off={offset} mask={mask.hex()}")

        env = Envelope(seq, src, dst, out, now, now + self.base_delay, out != payload,
                       owner=owner)
        if seq in self._drops:
            want = self._drops.pop(seq)
            if want != (src, dst):
                raise ChannelError(f"drop for seq={seq} names {want[0]}->{want[1]} "
                                   f"but the send is {src}->{dst}")
            self._log(now, f"DROP seq={seq} {src}->{dst}")
            self.dropped.add(seq)
            return env
        self._push(env)
        return env

    def _push(self, env: Envelope) -> None:
        self._pushes += 1
        heapq.heappush(self._queue, (env.deliver_time, self._pushes, env))

    def run(self, handlers: dict[str, Handler], strict: bool = True) -> None:
        """Deliver everything in deliver-time order (handlers may send more).
        With strict=True, leftover armed actions fail the run."""
        while self._queue:
            _, _, env = heapq.heappop(self._queue)
            self.clock.advance_to(env.deliver_time)
            self._log(env.deliver_time,
                      f"DELIVER seq={env.seq} {env.src}->{env.dst} len={len(env.payload)}")
            handler = handlers.get(env.dst)
            if handler is None:
                raise ChannelError(f"no handler registered for {env.dst!r}")
            outcome = handler(env)
            self.delivered.append((env, outcome))
            self._log(self.clock.now(), f"OUTCOME seq={env.seq} {outcome}")
        self._flush()
        if strict:
            leftover = sorted(set(self._eavesdrops) | set(self._drops)
                              | set(self._modifies) | set(self._replays))
            if leftover:
                raise UnknownSeq(f"armed actions never matched a send: seqs {leftover}")

    # --- trace -------------------------------------------------------------------

    def _log(self, t: int, text: str) -> None:
        self._pending.append(f"{t:08d} {text}")

    def _flush(self) -> None:
        if self._pending:
            self._chunks.append("\n".join(self._pending))
            self._pending.clear()

    @property
    def trace(self) -> str:
        """Every event line so far, newline-joined, without a final newline."""
        self._flush()
        return "\n".join(self._chunks)

    @property
    def log(self) -> list[str]:
        """The trace's lines, rendered from the stored text on each read."""
        self._flush()
        return [line for chunk in self._chunks for line in chunk.split("\n")]


# --- scenario scripts -----------------------------------------------------------

HONEST_PHASES = ("register", "auth", "update-creds", "update-auth")


@dataclass(frozen=True, slots=True)
class HonestStep:
    """One scripted honest action. `register` issues a token and enrolls the
    user (optional role, default D); `auth` runs a login/key-exchange round
    trip over the channel (optional requested scope); `update-creds` swaps
    password+biometric locally; `update-auth` swaps the user's token for one
    with the given role."""

    phase: str
    user: str
    role: Role = Role.DOCTOR
    scope: str = DEFAULT_SCOPE


@dataclass(frozen=True, slots=True)
class Scenario:
    base_delay: int
    steps: tuple[HonestStep, ...]
    eavesdrops: tuple[int, ...]
    drops: tuple[tuple[str, str, int], ...]
    modifies: tuple[tuple[int, int, bytes], ...]
    replays: tuple[tuple[int, int], ...]

    def arm(self, channel: Channel) -> None:
        channel.base_delay = self.base_delay
        for seq in self.eavesdrops:
            channel.script_eavesdrop(seq)
        for src, dst, seq in self.drops:
            channel.script_drop(src, dst, seq)
        for seq, offset, mask in self.modifies:
            channel.script_modify(seq, offset, mask)
        for seq, at in self.replays:
            channel.script_replay(seq, at)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario script. Grammar, one directive per line ('#' starts
    a comment):

        honest <phase> <user> [role]
        delay <ms>
        eavesdrop <seq>
        drop <from> <to> <seq>
        modify <seq> <offset> <mask-hex>
        replay <seq> <at-ms>
    """
    base_delay = DEFAULT_DELAY
    steps: list[HonestStep] = []
    eavesdrops: list[int] = []
    drops: list[tuple[str, str, int]] = []
    modifies: list[tuple[int, int, bytes]] = []
    replays: list[tuple[int, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verb, *args = line.split()

        def need(n: int, usage: str):
            if len(args) != n:
                raise ParseError(line_no, f"usage: {usage}")

        def num(token: str, what: str, minimum: int = 0) -> int:
            digits = token.removeprefix("-")       # ASCII digits only: no "+", "_"
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                value = int(token)
            except ValueError:
                raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None
            if value < minimum:
                raise ParseError(line_no, f"{what} must be >= {minimum}, got {value}")
            return value

        if verb == "honest":
            if len(args) not in (2, 3):
                raise ParseError(line_no, "usage: honest <phase> <user> [role|scope]")
            phase, user = args[0], args[1]
            if phase not in HONEST_PHASES:
                raise ParseError(line_no, f"unknown phase {phase!r}; "
                                          f"one of {', '.join(HONEST_PHASES)}")
            step = HonestStep(phase=phase, user=user)
            if len(args) == 3:
                if phase == "auth":                      # third token is the scope
                    step = HonestStep(phase=phase, user=user, scope=args[2])
                elif phase in ("register", "update-auth"):
                    try:
                        step = HonestStep(phase=phase, user=user, role=Role(args[2]))
                    except ValueError:
                        raise ParseError(line_no, f"unknown role {args[2]!r}") from None
                else:
                    raise ParseError(line_no, f"{phase} takes no third argument")
            steps.append(step)
        elif verb == "delay":
            need(1, "delay <ms>")
            base_delay = num(args[0], "delay")
        elif verb == "eavesdrop":
            need(1, "eavesdrop <seq>")
            eavesdrops.append(num(args[0], "seq", minimum=1))
        elif verb == "drop":
            need(3, "drop <from> <to> <seq>")
            drops.append((args[0], args[1], num(args[2], "seq", minimum=1)))
        elif verb == "modify":
            need(3, "modify <seq> <offset> <mask-hex>")
            try:
                mask = bytes.fromhex(args[2])
            except ValueError:
                raise ParseError(line_no, f"mask must be hex, got {args[2]!r}") from None
            if not mask:
                raise ParseError(line_no, "mask must not be empty")
            modifies.append((num(args[0], "seq", minimum=1),
                             num(args[1], "offset"), mask))
        elif verb == "replay":
            need(2, "replay <seq> <at-ms>")
            replays.append((num(args[0], "seq", minimum=1), num(args[1], "at-ms")))
        else:
            raise ParseError(line_no, f"unknown directive {verb!r}")

    return Scenario(base_delay=base_delay, steps=tuple(steps),
                    eavesdrops=tuple(eavesdrops), drops=tuple(drops),
                    modifies=tuple(modifies), replays=tuple(replays))
