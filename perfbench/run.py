"""Host-time benchmark for the l2ai simulator.

    python3 perfbench/run.py --workload {honest,churn,adversary}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the package from `src/`.
The same seed gives the same inputs, so a run is reproduced by repeating
its workload and seed. Workloads (each a closed loop: one client, one
thread, one process):

  honest     200 users, one authentication per op: primitives and protocol
  churn      the same World under a lifecycle mix: ledger writes, cipher, fe_gen
  adversary  short attack scripts, one `l2ai run` per op: channel, harness, CLI

The run repeats identical rounds (fresh set-up, a fixed batch of ops, the
verdict) for about --seconds seconds after one warm-up round, and reports
medians over rounds; latency percentiles are medians over blocks of at
least 1000 ops. Each round's host times are scaled to a nominal host speed,
measured by a fixed reference slice between rounds (hostspeed.py). With
--trace 0 it prints the end-to-end metrics; a separate tracemalloc pass
gives retained bytes per op. With --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics,
derived from spans around calls into each module, plus the tracing
overhead; the spans of the last traced round (rounds are identical) are
written to perfbench/out/spans-<workload>.tsv.

Every round is checked: outcomes against the generated expectations,
per-phase op totals against EXPECTED_OPS, invariants, and a fingerprint of
the simulated statistics against the value recorded in
perfbench/fingerprints.json (regenerate with record_fingerprints.py only
when a change of simulated behaviour is intended). The last line of stdout
is one JSON object; the exit status is 0 only when every check passed,
1 when one failed and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
FINGERPRINT_SEEDS = 100      # fingerprints.json covers seeds 0..99
WORKLOADS = ("honest", "churn", "adversary")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_us.p50": "us",
    "op_us.p99": "us",
    "verdict_s": "s",
    "setup_s": "s",
    "retained_bytes_per_op": "B/op",
}


def layer_unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("us_per_block"):
        return "us/block"
    if name.endswith("wire_bytes_per_op"):
        return "B/op"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith(".calls"):
        return "count"
    return "ratio"           # *_share, trace.overhead


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="\n\n".join(__doc__.split("\n\n")[2:4]),
        epilog="Reproduce a run: same --workload and --seed, same --seconds.",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured time, in seconds (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> str:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"env python={platform.python_version()} nproc={cores} "
            f"machine={platform.machine()} git={git_sha()}")


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


BLOCK_OPS = 1000         # ten samples lie beyond p99 in every block


def block_percentile(rounds: list, q: float) -> tuple[float, int]:
    """Median over blocks of whole consecutive rounds, each holding at least
    BLOCK_OPS ops, of the block's q-quantile of scaled op time in ns; and
    the number of blocks. A short host-speed burst moves one block, not the
    result. A run too short for one full block is one block."""
    blocks, block = [], []
    for r in rounds:
        block.extend(ns * r.scale for ns in r.op_ns)
        if len(block) >= BLOCK_OPS:
            blocks.append(block)
            block = []
    if not blocks:
        blocks = [block]
    return statistics.median(percentile(sorted(b), q) for b in blocks), len(blocks)


def make_workload(workloads, name: str, seed: int, workdir: Path):
    if name == "honest":
        return workloads.Honest(seed)
    if name == "churn":
        return workloads.Churn(seed)
    return workloads.Adversary(seed, workdir)


def fingerprint_problems(workloads, name, seed, first_report, workdir) -> list[str]:
    """Compare the simulated statistics of one round with the value recorded
    for its seed. Seeds outside the recorded range are checked through an
    extra, untimed round at seed mod FINGERPRINT_SEEDS."""
    table = json.loads(FINGERPRINTS.read_text())[name]
    fp_seed = seed % FINGERPRINT_SEEDS
    if fp_seed == seed:
        report = first_report
    else:
        extra = make_workload(workloads, name, fp_seed, workdir)
        report = extra.fingerprint_text if name == "adversary" \
            else extra.run_round().report
    got = workloads.digest(report)
    want = table.get(str(fp_seed))
    if got != want:
        return [f"fingerprint at seed {fp_seed}: {got} != recorded {want}"]
    return []


def run(args, workloads, spans, workdir: Path) -> int:
    wl = make_workload(workloads, args.workload, args.seed, workdir)
    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        rec.calibrate()
    plain, traced = [], []
    speed = HostSpeed()

    gc.collect()
    warm = wl.run_round()                      # warm-up; checked, not measured
    rounds = [warm]
    start = time.perf_counter()
    speed.sample()
    last_traced = 0              # index of the first span of the last traced round
    while True:
        use_rec = rec is not None and len(rounds) % 2 == 0
        gc.collect()
        if use_rec:
            last_traced = len(rec)
        result = wl.run_round(rec if use_rec else None)
        speed.sample()
        result.scale = speed.last_scale()
        rounds.append(result)
        (traced if use_rec else plain).append(result)
        if time.perf_counter() - start >= args.seconds and plain \
                and (rec is None or traced):
            break

    problems = []
    for i, result in enumerate(rounds):
        problems.extend(f"round {i}: {p}" for p in result.problems)
        if result.report != warm.report:
            problems.append(f"round {i}: simulated statistics differ from round 0")
    problems.extend(fingerprint_problems(workloads, args.workload, args.seed,
                                         warm.report, workdir))
    ops_per_round = wl.ops_per_round
    attempted = ops_per_round * len(rounds)
    failed = min(attempted, sum(len(r.problems) for r in rounds))

    def rate(rs):
        return statistics.median(ops_per_round / r.loop_s / r.scale for r in rs)

    def scaled(value, rs):
        return statistics.median(value(r) * r.scale for r in rs)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(environment())
    print(f"rounds={len(plain)}+{len(traced)} traced, 1 warm-up; "
          f"ops/round={ops_per_round} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6f}")
    print(f"host speed: reference slice median "
          f"{statistics.median(speed.samples) * 1e3:.3f} ms over "
          f"{len(speed.samples)} samples; round times are scaled by "
          f"{min(r.scale for r in rounds[1:]):.3f}..{max(r.scale for r in rounds[1:]):.3f}")

    metrics = {}
    if rec is None:
        p50, blocks = block_percentile(plain, 0.50)
        p99, _ = block_percentile(plain, 0.99)
        gc.collect()
        retained = wl.retained_bytes_per_op()
        values = {
            "ops_per_s": rate(plain),
            "op_us.p50": p50 / 1e3,
            "op_us.p99": p99 / 1e3,
            "verdict_s": scaled(lambda r: r.verdict_s, plain),
            "setup_s": scaled(lambda r: r.setup_s, plain),
            "retained_bytes_per_op": retained,
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        print(f"samples: op_us over {sum(len(r.op_ns) for r in plain)} ops in "
              f"{blocks} blocks; rounds={len(plain)}")
    else:
        ops = ops_per_round * len(traced)
        verdicts = ops if args.workload == "adversary" else len(traced)
        values = spans.layer_metrics(rec, ops, verdicts,
                                     sum(r.log_lines for r in traced))
        values["trace.overhead"] = rate(traced) / rate(plain)
        scale = statistics.median(r.scale for r in traced)
        for name, value in values.items():
            unit = layer_unit(name)
            if unit in ("us", "ms", "us/block"):
                value *= scale
            metrics[name] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{args.workload}.tsv", last_traced)
        print(f"spans={len(rec)} overhead_ns={rec.overhead_ns} per span; the "
              f"last traced round's {len(rec) - last_traced} written to "
              f"perfbench/out/spans-{args.workload}.tsv")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    # zero whenever the run is correct, so it is carried by attempted/failed
    # in the JSON line rather than as a metric
    print(f"{'failed_ratio':36s} {failed / attempted:14.6g} ratio")
    for p in problems[:20]:
        print(f"problem {p}")

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l2ai" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'l2ai'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
