"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions and methods of each l2ai module while a
traced round runs, and restores the originals afterwards, so untraced rounds
run the package untouched. A module-level function is patched in every l2ai
module that holds it, which is where its callers look it up (for example
`l2ai.protocol.seal` as well as `l2ai.primitives.seal`). The handlers in the
dict passed to `Channel.run` are wrapped too, so handler time is a child of
the delivery span rather than part of it.

A span is (name, start, end, parent, rejected, units), kept in memory and
written out when the benchmark ends. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from l2ai import channel, cli, harness, ledger, permissions, primitives, protocol
from l2ai.protocol import Reject

# (span name, owner, attribute names). Several attributes may share a span
# name; their calls are then aggregated.
TARGETS = [
    ("primitives.hash", primitives.PrimitiveOps, ("hash",)),
    ("primitives.xor", primitives.PrimitiveOps, ("xor",)),
    ("primitives.enc", primitives.PrimitiveOps, ("enc",)),
    ("primitives.dec", primitives.PrimitiveOps, ("dec",)),
    ("primitives.fe_gen", primitives.PrimitiveOps, ("fe_gen",)),
    ("primitives.fe_rep", primitives.PrimitiveOps, ("fe_rep",)),
    ("primitives.seal", primitives, ("seal",)),
    ("primitives.open_sealed", primitives, ("open_sealed",)),
    ("protocol.login", protocol, ("login",)),
    ("protocol.verify_server", protocol, ("verify_server",)),
    ("protocol.register_request", protocol, ("register_request",)),
    ("protocol.finalize_card", protocol, ("finalize_card",)),
    ("protocol.update_credentials", protocol, ("update_credentials",)),
    ("protocol.authenticate", protocol.HospitalServer, ("authenticate",)),
    ("protocol.register", protocol.HospitalServer, ("register",)),
    ("protocol.issue_token", protocol.HospitalServer, ("issue_token",)),
    ("protocol.update_authorization", protocol.HospitalServer,
     ("update_authorization",)),
    ("protocol.gateway", protocol.UserGateway,
     ("build_registration", "accept_provisional", "current_card", "start_login",
      "accept_server_reply", "change_credentials")),
    ("protocol.codec", protocol.Msg1, ("to_bytes", "from_bytes")),
    ("protocol.codec", protocol.Msg2, ("to_bytes", "from_bytes")),
    ("protocol.codec", protocol.RegRequest, ("to_bytes", "from_bytes")),
    ("protocol.codec", protocol.ProvisionalCard, ("to_bytes", "from_bytes")),
    ("ledger.append", ledger.Ledger, ("append",)),
    ("ledger.write", ledger.Ledger, ("put_card", "replace_index", "revoke_token")),
    ("ledger.lookup", ledger.Ledger,
     ("any_digest", "get_identity", "get_token", "get_card", "live_index_for")),
    ("ledger.verify_chain", ledger.Ledger, ("verify_chain",)),
    ("permissions.allows", permissions.PermissionTable, ("allows",)),
    ("permissions.table", permissions.PermissionTable, ("parse", "default")),
    ("channel.send", channel.Channel, ("send",)),
    ("channel.arm", channel.Scenario, ("arm",)),
    ("channel.arm", channel.Channel,
     ("script_eavesdrop", "script_drop", "script_modify", "script_replay")),
    ("channel.parse_scenario", channel, ("parse_scenario",)),
    ("harness.auth_attempt", harness.World, ("auth_attempt",)),
    ("harness.finalize", harness.World, ("finalize",)),
    ("harness.report_lines", harness.World, ("report_lines",)),
    ("harness.step", harness.World,
     ("__init__", "get_user", "register_user", "update_user_credentials",
      "update_authorization", "drain")),
    ("harness.check_invariants", harness, ("check_invariants",)),
    ("harness.run_scenario", harness, ("run_scenario",)),
    ("cli.main", cli, ("main",)),
]

# units recorded with a span, computed from its arguments and result
UNITS = {
    "ledger.verify_chain": lambda args, result: len(args[0].blocks),
    "channel.send": lambda args, result: len(result.payload),
    "harness.run_scenario": lambda args, result: len(result.world.channel.log),
}


class Recorder:
    """Spans live in one flat int64 array, FIELDS slots per span, so that
    hundreds of thousands of them add no objects for the garbage collector
    to traverse: a collection pause inside a span would be charged to
    whichever layer it happened to interrupt."""

    FIELDS = 6          # name id, parent offset, start ns, end ns, rejected, units

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("q")
        self.stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._handlers_src = None
        self._handlers: dict = {}
        self.overhead_ns = 0

    def calibrate(self, calls: int = 20001) -> None:
        """Set `overhead_ns`, the median recorded duration of a wrapped call
        that does nothing: the share of every span that is the recorder's."""
        probe = Recorder()
        noop = probe.wrap("noop", lambda: None)
        for _ in range(calls):
            noop()
        buf, f = probe.buf, self.FIELDS
        durations = sorted(buf[b + 3] - buf[b + 2] for b in range(0, len(buf), f))
        self.overhead_ns = durations[len(durations) // 2]

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.buf) // self.FIELDS

    # --- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        base = len(self.buf)
        self.buf.extend((self._nid(name), self.stack[-1] if self.stack else -1,
                         time.perf_counter_ns(), 0, 0, 0))
        self.stack.append(base)
        return base

    def end(self, base: int) -> None:
        self.stack.pop()
        self.buf[base + 3] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        units = UNITS.get(name)
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            # all bookkeeping sits between the two clock reads, so a parent's
            # self time is not charged for it; `overhead_ns` takes it back out
            start = clock()
            base = len(buf)
            buf.extend((nid, stack[-1] if stack else -1, start, 0, 0, 0))
            stack.append(base)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                buf[base + 4] = isinstance(exc, Reject)
                stack.pop()
                buf[base + 3] = clock()
                raise
            stack.pop()
            if units is not None:
                buf[base + 5] = units(args, result)
            buf[base + 3] = clock()
            return result

        return traced

    def traced_handlers(self, handlers: dict) -> dict:
        """The handler dict with every handler wrapped; a handler added since
        the last call (a new user) is wrapped when it first appears."""
        if handlers is not self._handlers_src:
            self._handlers_src, self._handlers = handlers, {}
        if len(self._handlers) != len(handlers):
            for dst, handler in handlers.items():
                if dst not in self._handlers:
                    self._handlers[dst] = self.wrap("harness.handler", handler)
        return self._handlers

    # --- patching ----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "l2ai" or n.startswith("l2ai.")]
        for name, owner, attrs in TARGETS:
            for attr in attrs:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        self._patch(owner, attr, self.wrap(name, raw))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)

        run = channel.Channel.__dict__["run"]
        deliver = self.wrap("channel.deliver", run)

        def traced_run(chan, handlers, strict=True):
            return deliver(chan, self.traced_handlers(handlers), strict)

        self._patch(channel.Channel, "run", traced_run)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._handlers_src, self._handlers = None, {}

    # --- output --------------------------------------------------------------------

    def write(self, path: Path, first: int = 0) -> None:
        """Write the spans from index `first` on, as tab-separated lines;
        parent indexes count from `first` too (-1 for a root)."""
        names, buf, f = self.names, self.buf, self.FIELDS
        with path.open("w") as fh:
            fh.write("idx\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(first, len(self)):
                base = i * f
                parent = buf[base + 1]
                fh.write(f"{i - first}\t{names[buf[base]]}\t{buf[base + 2]}\t"
                         f"{buf[base + 3]}\t{parent // f - first if parent >= 0 else -1}\n")


def layer_metrics(rec: Recorder, ops: int, verdicts: int, log_lines: int) -> dict:
    """Per-layer metrics over the traced rounds.

    `*.us`/`*.ms` are mean self time per call over every span of that name,
    less the recorder's calibrated overhead per span;
    counts and shares are taken over spans under an `op` root, per op.
    `verdicts` is the number of verdicts the traced rounds took.
    """
    names, buf, f = rec.names, rec.buf, Recorder.FIELDS
    overhead = rec.overhead_ns
    count = len(rec)
    child = array("q", bytes(8 * count))     # ns covered by direct children
    root = array("q", bytes(8 * count))      # offset of the root span
    for i in range(count):
        base = i * f
        parent = buf[base + 1]
        if parent >= 0:
            child[parent // f] += buf[base + 3] - buf[base + 2]
            root[i] = root[parent // f]
        else:
            root[i] = base
    op_id = rec._ids.get("op")
    calls_all, self_all, calls_op, self_op, units_op, units_all = (
        Counter(), Counter(), Counter(), Counter(), Counter(), Counter())
    rejected = 0
    op_ns = 0
    for i in range(count):
        base = i * f
        nid, parent, start, end, rej, units = buf[base:base + f]
        name = names[nid]
        own = end - start - child[i] - (overhead if parent >= 0 else 0)
        calls_all[name] += 1
        self_all[name] += own
        units_all[name] += units
        if buf[root[i]] != op_id:
            continue
        if parent < 0:
            op_ns += end - start
        calls_op[name] += 1
        self_op[name] += own
        units_op[name] += units
        if rej and name.startswith("protocol.") and \
                not names[buf[parent]].startswith("protocol."):
            rejected += 1

    def us(name):
        return self_all[name] / calls_all[name] / 1e3 if calls_all[name] else 0.0

    def ms(name):
        return us(name) / 1e3

    def per_op(value):
        return value / ops if ops else 0.0

    def share(layer):
        own = sum(v for k, v in self_op.items() if k.startswith(layer + "."))
        return own / op_ns if op_ns else 0.0

    chain_calls = calls_all["ledger.verify_chain"]
    blocks_per_verify = units_all["ledger.verify_chain"] / chain_calls if chain_calls else 0.0
    log_total = log_lines + units_op["harness.run_scenario"]
    metrics = {
        "primitives.hash.us": us("primitives.hash"),
        "primitives.hash.calls_per_op": per_op(calls_op["primitives.hash"]),
        "primitives.xor.us": us("primitives.xor"),
        "primitives.xor.calls_per_op": per_op(calls_op["primitives.xor"]),
        "primitives.fe_rep.us": us("primitives.fe_rep"),
        "primitives.fe_gen.us": us("primitives.fe_gen"),
        "primitives.enc.us": us("primitives.enc"),
        "primitives.dec.us": us("primitives.dec"),
        "primitives.seal.us": us("primitives.seal"),
        "primitives.open_sealed.us": us("primitives.open_sealed"),
        "primitives.self_share": share("primitives"),
        "protocol.login.us": us("protocol.login"),
        "protocol.authenticate.us": us("protocol.authenticate"),
        "protocol.verify_server.us": us("protocol.verify_server"),
        "protocol.register.us": us("protocol.register"),
        "protocol.register_request.us": us("protocol.register_request"),
        "protocol.finalize_card.us": us("protocol.finalize_card"),
        "protocol.update_credentials.us": us("protocol.update_credentials"),
        "protocol.update_authorization.us": us("protocol.update_authorization"),
        "protocol.issue_token.us": us("protocol.issue_token"),
        "protocol.rejected_per_op": per_op(rejected),
        "protocol.self_share": share("protocol"),
        "ledger.append.us": us("ledger.append"),
        "ledger.append.calls_per_op": per_op(calls_op["ledger.append"]),
        "ledger.lookup.us": us("ledger.lookup"),
        "ledger.lookup.calls_per_op": per_op(calls_op["ledger.lookup"]),
        "ledger.verify_chain.calls": chain_calls / verdicts if verdicts else 0.0,
        "ledger.verify_chain.us_per_block":
            self_all["ledger.verify_chain"] / units_all["ledger.verify_chain"] / 1e3
            if units_all["ledger.verify_chain"] else 0.0,
        "ledger.blocks_per_op": blocks_per_verify * verdicts / ops if ops else 0.0,
        "ledger.self_share": share("ledger"),
        "permissions.allows.us": us("permissions.allows"),
        "permissions.allows.calls_per_op": per_op(calls_op["permissions.allows"]),
        "channel.send.us": us("channel.send"),
        "channel.deliver.us":
            self_all["channel.deliver"] / calls_all["harness.handler"] / 1e3
            if calls_all["harness.handler"] else 0.0,
        "channel.deliveries_per_op": per_op(calls_op["harness.handler"]),
        "channel.wire_bytes_per_op": per_op(units_op["channel.send"]),
        "channel.log_lines_per_op": per_op(log_total),
        "channel.parse_scenario.us": us("channel.parse_scenario"),
        "channel.self_share": share("channel"),
        "harness.handler.us": us("harness.handler"),
        "harness.auth_attempt.us": us("harness.auth_attempt"),
        "harness.finalize.ms": ms("harness.finalize"),
        "harness.check_invariants.ms": ms("harness.check_invariants"),
        "harness.report_lines.ms": ms("harness.report_lines"),
        "harness.self_share": share("harness"),
        "cli.main.us": us("cli.main"),
        "cli.self_share": share("cli"),
    }
    return metrics
