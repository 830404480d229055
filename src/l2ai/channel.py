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
shifts underneath a script. A sender may name an owner for a send; it rides
in the delivery-queue entry of the send and of each replayed copy, never on
an envelope, and `run` hands it to the handler with the envelope. A dropped
send is never queued, so only its replayed copies' entries keep its owner:
an owner lives as long as a delivery of it is pending, and the channel never
reads it. Modification happens on the wire: the eavesdrop record and the
adversary's replay material keep the bytes as the honest party sent them.
The armed actions live in one map keyed by seq, and each send pops its own
entry, so a matched action leaves nothing behind; an armed seq that never
occurs is a scripting mistake and fails the run loudly. A dropped send's seq
goes into `dropped` when it is sent; every other send is delivered by the
next run, so after a drain "not delivered" means exactly "dropped". A parsed
`Scenario` keeps its steps and directives as calls in script order and arms
the directives in that order. The order cannot change a run: only a second
drop on one seq fails when armed, `send` applies a seq's actions in a fixed
order, and leftover seqs are sorted.

Delivery handlers take the envelope and its owner and return an outcome
string; the caller wraps protocol rejections into outcomes. A handler's own
send can raise `ChannelError` (a scripting mistake on a reply's seq), which
ends the run: the CLI reports it and exits 2. The outcome is stored on its
envelope; `deliveries` lists delivered envelopes in order, and `delivered`
is a read-only view of (envelope, outcome) pairs built on each read. `run`
also lists in `adversary_deliveries` each delivery the adversary had a hand
in: a tampered one, a replayed copy, or one whose seq it recorded into
`knowledge`. Every other delivery is an untouched original, unmodified and
delivered once, and every replayed seq is recorded, so a verdict or a count
about tampering or replays reads that list and never scans `deliveries`.

Every event is logged to a stable line format, so two runs of the same
scenario compare equal byte-for-byte. The trace is stored as text: the end
of `run` joins the drain's pending lines onto the last chunk, and a new
chunk starts once that one holds TRACE_CHUNK characters. Reading the trace
first flushes any pending lines (sends made outside a drain, lines logged
before a `ChannelError`). `trace` is the whole text and `log` renders its
lines on demand. `event_digest` is sha256_160 of `trace`: each chunk is fed
to a running SHA-256 once, when the next chunk starts, so the digest costs
only the open chunk and never joins the text.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .permissions import DEFAULT_SCOPE, Role, ascii_int
from .primitives import WIDTH, SimClock

DEFAULT_DELAY = 50  # one-way delivery delay, simulated milliseconds
TRACE_CHUNK = 4096  # characters a trace chunk holds before the next one starts


class ChannelError(Exception):
    """Scripting mistake surfaced at run time (bad drop parties, impossible
    replay time, modify outside the payload, missing handler)."""


class UnknownSeq(ChannelError):
    """Armed adversary actions name sequence numbers that never occurred."""


class ParseError(ValueError):
    """Scenario text rejected; the message starts with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


@dataclass(slots=True, unsafe_hash=True)
class Envelope:
    """One message in flight. `tampered` marks an adversary modification;
    `replay_of` names the original send for re-injected copies. `outcome` is
    the handler's return, None until delivery, and takes no part in `==` or
    `hash`. A send's owner is not kept here but in its queue entry. Not
    frozen, which saves a per-field `object.__setattr__`."""

    seq: int
    src: str
    dst: str
    payload: bytes
    send_time: int
    tampered: bool = False
    replay_of: int | None = None
    outcome: str | None = field(default=None, compare=False)


Handler = Callable[[Envelope, object], str]


@dataclass(slots=True)
class _Armed:
    """Every action armed on one seq; the send of that seq consumes it."""

    eavesdrop: bool = False
    drop: tuple[str, str] | None = None
    modifies: list[tuple[int, bytes]] = field(default_factory=list)
    replays: list[int] = field(default_factory=list)


class Channel:
    def __init__(self, clock: SimClock, base_delay: int = DEFAULT_DELAY):
        self.clock = clock
        self.base_delay = base_delay
        self.knowledge: dict[int, bytes] = {}     # eavesdropped payloads, as sent
        self._chunks: list[str] = []               # the trace, TRACE_CHUNK-sized chunks
        self._pending: list[str] = []              # lines logged since the last flush
        self._closed = None                        # sha256 of the closed chunks, once any
        self.deliveries: list[Envelope] = []       # delivered envelopes, in order
        self.adversary_deliveries: list[Envelope] = []  # of them, tampered, replayed, recorded
        self.dropped: set[int] = set()            # seqs swallowed by a drop action
        self._next_seq = 1
        self._next_replay = -1
        self._pushes = 0
        self._queue: list[tuple[int, int, Envelope, object]] = []
        self._armed: dict[int, _Armed] = {}        # seq -> actions not yet matched

    # --- adversary scripting (armed before or between runs) -------------------

    def script_eavesdrop(self, seq: int) -> None:
        self._arm(seq).eavesdrop = True

    def script_drop(self, src: str, dst: str, seq: int) -> None:
        armed = self._arm(seq)
        if armed.drop is not None:
            raise ChannelError(f"seq={seq} already has a drop armed")
        armed.drop = (src, dst)

    def script_modify(self, seq: int, offset: int, mask: bytes) -> None:
        if offset < 0 or not mask:
            raise ChannelError("modify needs a non-negative offset and a non-empty mask")
        self._arm(seq).modifies.append((offset, mask))

    def script_replay(self, seq: int, at_ms: int) -> None:
        if at_ms < 0:
            raise ChannelError("replay time must be non-negative")
        self._arm(seq).replays.append(at_ms)

    def _arm(self, seq: int) -> _Armed:
        if seq < 1:
            raise ChannelError(f"sequence numbers start at 1, got {seq}")
        if seq < self._next_seq:
            raise ChannelError(f"seq={seq} was already sent; arm actions up front")
        return self._armed.setdefault(seq, _Armed())

    # --- wire ------------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes, owner: object = None) -> Envelope:
        now = self.clock.now()
        seq = self._next_seq
        self._next_seq = seq + 1
        pending = self._pending
        pending.append(f"{now:08d} SEND seq={seq} {src}->{dst} len={len(payload)}")
        out = payload
        armed = self._armed.pop(seq, None)
        if armed is not None:         # in trace order: record, replay, modify, drop
            if armed.eavesdrop or armed.replays:
                self.knowledge[seq] = payload
                pending.append(f"{now:08d} EAVESDROP seq={seq}")
            for at in armed.replays:
                if at < now:
                    raise ChannelError(f"replay of seq={seq} at t={at} predates its "
                                       f"send at t={now}")
                rseq = self._next_replay
                self._next_replay -= 1
                self._pushes += 1
                heapq.heappush(self._queue, (at, self._pushes, Envelope(
                    rseq, src, dst, payload, now, False, seq), owner))
                pending.append(f"{now:08d} REPLAY seq={rseq} of={seq} at={at}")
            for offset, mask in armed.modifies:
                end = offset + len(mask)
                if end > len(out):
                    raise ChannelError(f"modify seq={seq} off={offset} runs past the "
                                       f"{len(out)}-byte payload")
                flipped = bytes(a ^ b for a, b in zip(out[offset:end], mask))
                out = out[:offset] + flipped + out[end:]
                pending.append(f"{now:08d} MODIFY seq={seq} off={offset} mask={mask.hex()}")
            if armed.drop is not None:
                if armed.drop != (src, dst):
                    raise ChannelError(f"drop for seq={seq} names {armed.drop[0]}->"
                                       f"{armed.drop[1]} but the send is {src}->{dst}")
                pending.append(f"{now:08d} DROP seq={seq} {src}->{dst}")
                self.dropped.add(seq)
        env = Envelope(seq, src, dst, out, now, out != payload)
        if armed is None or armed.drop is None:
            self._pushes += 1
            heapq.heappush(self._queue, (now + self.base_delay, self._pushes, env, owner))
        return env

    def run(self, handlers: dict[str, Handler], strict: bool = True) -> None:
        """Deliver everything in deliver-time order (handlers may send more).
        With strict=True, leftover armed actions fail the run."""
        queue, clock, pending = self._queue, self.clock, self._pending
        knowledge, adversary = self.knowledge, self.adversary_deliveries
        while queue:
            at, _, env, owner = heapq.heappop(queue)
            clock.advance_to(at)
            pending.append(f"{at:08d} DELIVER seq={env.seq} "
                           f"{env.src}->{env.dst} len={len(env.payload)}")
            handler = handlers.get(env.dst)
            if handler is None:
                raise ChannelError(f"no handler registered for {env.dst!r}")
            outcome = env.outcome = handler(env, owner)
            self.deliveries.append(env)
            if env.tampered or env.replay_of is not None or env.seq in knowledge:
                adversary.append(env)
            pending.append(f"{clock.now():08d} OUTCOME seq={env.seq} {outcome}")
        self._flush()
        if strict and self._armed:
            raise UnknownSeq(f"armed actions never matched a send: seqs {sorted(self._armed)}")

    @property
    def delivered(self) -> list[tuple[Envelope, str]]:
        """(envelope, outcome) pairs in delivery order, built on each read."""
        return [(env, env.outcome) for env in self.deliveries]

    # --- trace -------------------------------------------------------------------

    def _flush(self) -> None:
        if self._pending:
            chunks, text = self._chunks, "\n".join(self._pending)
            self._pending.clear()
            if chunks and len(chunks[-1]) < TRACE_CHUNK:
                text = "\n".join((chunks.pop(), text))
            elif chunks:                # the last chunk closes: hash it, once
                if self._closed is None:
                    self._closed = hashlib.sha256()
                self._closed.update(chunks[-1].encode())
                self._closed.update(b"\n")
            chunks.append(text)

    def event_digest(self) -> bytes:
        """sha256_160 of `trace` as UTF-8, without joining it: the closed
        chunks are hashed already, so only the open one is added."""
        self._flush()
        digest = hashlib.sha256() if self._closed is None else self._closed.copy()
        if self._chunks:
            digest.update(self._chunks[-1].encode())
        return digest.digest()[:WIDTH]

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

# phase -> (World method, default third token: a Role, a scope, or None for none).
# Names stay literals: one built per call would live on in the type attribute cache.
_PHASES = {
    "register": ("register_user", Role.DOCTOR),
    "auth": ("auth_attempt", DEFAULT_SCOPE),
    "update-creds": ("update_user_credentials", None),
    "update-auth": ("update_authorization", Role.DOCTOR),
}
HONEST_PHASES = tuple(_PHASES)
_ROLES = {role.value: role for role in Role}     # script token -> Role


class Scenario(NamedTuple):
    """A parsed script: `steps` call `World` methods and `actions` the
    `Channel.script_*` methods that arm the adversary, each a (method name,
    args) pair in script order."""

    base_delay: int
    steps: tuple[tuple[str, tuple], ...]
    actions: tuple[tuple[str, tuple], ...]

    def arm(self, channel: Channel) -> None:
        channel.base_delay = self.base_delay
        for name, args in self.actions:
            getattr(channel, name)(*args)


def _need(line_no: int, args: list[str], n: int, usage: str) -> None:
    if len(args) != n:
        raise ParseError(line_no, f"usage: {usage}")


def _num(line_no: int, token: str, what: str, minimum: int = 0) -> int:
    try:
        value = ascii_int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None
    if value < minimum:
        raise ParseError(line_no, f"{what} must be >= {minimum}, got {value}")
    return value


def _honest_step(line_no: int, args: list[str]) -> tuple[str, tuple]:
    if len(args) not in (2, 3):
        raise ParseError(line_no, "usage: honest <phase> <user> [role|scope]")
    phase, user, *extra = args
    if phase not in _PHASES:
        raise ParseError(line_no, f"unknown phase {phase!r}; "
                                  f"one of {', '.join(HONEST_PHASES)}")
    method, default = _PHASES[phase]
    if not extra:
        return method, (user,) if default is None else (user, default)
    if default is None:
        raise ParseError(line_no, f"{phase} takes no third argument")
    third = _ROLES.get(extra[0]) if isinstance(default, Role) else extra[0]
    if third is None:
        raise ParseError(line_no, f"unknown role {extra[0]!r}")
    return method, (user, third)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario script. Grammar, one directive per line ('#' starts
    a comment):

        honest <phase> <user> [role|scope]
        delay <ms>
        eavesdrop <seq>
        drop <from> <to> <seq>
        modify <seq> <offset> <mask-hex>
        replay <seq> <at-ms>
    """
    base_delay = DEFAULT_DELAY
    steps: list[tuple[str, tuple]] = []
    actions: list[tuple[str, tuple]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verb, *args = line.split()

        if verb == "honest":
            steps.append(_honest_step(line_no, args))
        elif verb == "delay":
            _need(line_no, args, 1, "delay <ms>")
            base_delay = _num(line_no, args[0], "delay")
        elif verb == "eavesdrop":
            _need(line_no, args, 1, "eavesdrop <seq>")
            actions.append(("script_eavesdrop",
                            (_num(line_no, args[0], "seq", minimum=1),)))
        elif verb == "drop":
            _need(line_no, args, 3, "drop <from> <to> <seq>")
            actions.append(("script_drop", (args[0], args[1],
                                            _num(line_no, args[2], "seq", minimum=1))))
        elif verb == "modify":
            _need(line_no, args, 3, "modify <seq> <offset> <mask-hex>")
            try:
                mask = bytes.fromhex(args[2])
            except ValueError:
                raise ParseError(line_no, f"mask must be hex, got {args[2]!r}") from None
            actions.append(("script_modify", (_num(line_no, args[0], "seq", minimum=1),
                                              _num(line_no, args[1], "offset"), mask)))
        elif verb == "replay":
            _need(line_no, args, 2, "replay <seq> <at-ms>")
            actions.append(("script_replay", (_num(line_no, args[0], "seq", minimum=1),
                                              _num(line_no, args[1], "at-ms"))))
        else:
            raise ParseError(line_no, f"unknown directive {verb!r}")

    return Scenario(base_delay, tuple(steps), tuple(actions))
