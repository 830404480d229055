"""Host-speed reference for scaling host times to a nominal speed."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class _Value:
    value: bytes

    def __post_init__(self):
        if len(self.value) != 20:
            raise ValueError("width")


class HostSpeed:
    """Host-speed reference: a fixed slice in the program's style, using only
    the standard library and this file. Three quarters of it is front-end work
    (building and running an argparse parser with subcommands, a JSON round
    trip), a quarter is protocol-style work (frozen dataclasses with a width
    check, SHA-256, generator XOR over 20 bytes, a bit-count decoding loop,
    dict inserts, log-line formatting).

    On a shared host the speed of a core moves a lot: on a 2-core VM it
    changed by up to 1.8x within minutes, and raw medians of 30-second runs
    spread by 15-35%. So every host time of a round is reported scaled to
    nominal speed: by NOMINAL_S over the mean of the slices timed just before
    and just after the round. Each slice runs once untimed first, its data
    fits in the per-core cache, and no garbage collection runs inside it, so
    a sample measures the core's speed, not what the round left in cache or
    on the heap; a change to the package changes the rounds, never the slice.
    """

    NOMINAL_S = 0.004
    KEYS = [hashlib.sha256(i.to_bytes(8, "big")).digest()[:20] for i in range(24)]

    def __init__(self):
        self.samples: list[float] = []

    def _slice(self) -> int:
        acc = 0
        for i in range(4):
            parser = argparse.ArgumentParser(prog="reference")
            sub = parser.add_subparsers(dest="command", required=True)
            run_p = sub.add_parser("run")
            run_p.add_argument("path", type=Path)
            run_p.add_argument("--seed", type=int, default=1)
            run_p.add_argument("--trace", type=int, choices=(0, 1))
            sub.add_parser("export").add_argument("--out", required=True)
            args = parser.parse_args(["run", f"s{i}.txt", "--seed", str(i),
                                      "--trace", "1"])
            text = json.dumps({"seed": args.seed, "path": str(args.path),
                               "values": list(range(32))})
            acc += len(json.loads(text)["values"])
        table = {}
        log = []
        for j, key in enumerate(self.KEYS):
            a = _Value(hashlib.sha256(key).digest()[:20])
            b = _Value(bytes(x ^ y for x, y in zip(a.value, key)))
            word = int.from_bytes(key, "big")
            m = 0
            for k in range(32):
                if bin((word >> (5 * k)) & 31).count("1") >= 3:
                    m |= 1 << k
            table[b.value] = m
            log.append(f"{j:08d} SEND seq={j} a->b len={len(b.value)}")
            acc += m
        return acc

    def sample(self) -> None:
        """Time one slice. The heap is collected first and the collector is
        off while slices run, so no collection of what a round left behind
        falls inside the timed slice."""
        gc.collect()
        gc.disable()
        try:
            self._slice()
            t0 = time.perf_counter()
            self._slice()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def last_scale(self) -> float:
        """Scale for the round between the last two samples."""
        return 2 * self.NOMINAL_S / (self.samples[-2] + self.samples[-1])
