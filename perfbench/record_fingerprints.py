"""Regenerate perfbench/fingerprints.json.

    python3 perfbench/record_fingerprints.py

For every workload and every seed 0..99 (run.FINGERPRINT_SEEDS, the seeds
run.py looks up), this runs one round untimed and records the SHA-256 of its
simulated statistics: the round's report (session outcomes, per-phase op
counts, wire histogram, event digest) or, for `adversary`, every generated
script with the report it must produce. A seed whose round fails a check
is not recorded. Run it only when a change of simulated behaviour is
intended; the benchmark fails on any difference from the recorded values.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    table: dict[str, dict[str, str]] = {}
    try:
        for name in run.WORKLOADS:
            table[name] = {}
            for seed in range(run.FINGERPRINT_SEEDS):
                wl = run.make_workload(workloads, name, seed, workdir)
                if name == "adversary":
                    text, problems = wl.fingerprint_text, wl.problems
                else:
                    result = wl.run_round()
                    text, problems = result.report, result.problems
                if problems:
                    print(f"{name} seed={seed}: not recorded: {problems[:3]}",
                          file=sys.stderr)
                    return 1
                table[name][str(seed)] = workloads.digest(text)
            print(f"{name}: {run.FINGERPRINT_SEEDS} seeds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
