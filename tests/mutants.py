"""Statement-deletion census: which statements of src/l2ai/ no test pins.

Each mutant replaces one statement of a package module with `pass` and runs
`pytest -x -q` on a copy of the repository, with Hypothesis seeded. A mutant
the tests still pass on survives: nothing in the suite notices that
statement gone. Skipped, as deleting them only breaks the import:
docstrings, imports, function and class definitions, a class's annotated
fields, and module-level assignments (the constants); `pass` itself is
skipped too. Everything else is a mutant, compound statements (`if`, `for`,
`try`, `with`) as a whole and each statement inside them.

    python tests/mutants.py [--workers N]

Every module under src/l2ai/ is mutated. Each worker owns one copy of the
repository under a temporary directory and runs one mutant at a time in it,
and there are at most as many workers as cores. A test run longer than
TIMEOUT seconds counts as a timeout: `_keystream` without its `out += ...`
never ends. Prints one line per survivor and timeout, then the counts.
Needs only the standard library and pytest; the test suite never runs it.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "l2ai"
SKIPPED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
           ast.ClassDef, ast.Pass)
# a fixed Hypothesis seed, and no example database kept between runs, so a
# mutant's verdict depends neither on the draws nor on the mutants before it
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0")
TIMEOUT = 120.0                         # seconds one test run may take


def mutants(path: Path) -> list[tuple[int, int, int, str]]:
    """(start, end, line, text) of every statement to delete: its source
    span as character offsets, its first line and that line's text."""
    source = path.read_text(encoding="utf-8")
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        module, cls = isinstance(node, ast.Module), isinstance(node, ast.ClassDef)
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue                # a lambda's or a conditional's expression
            for stmt in body:
                if isinstance(stmt, SKIPPED):
                    continue
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                        and isinstance(stmt.value.value, str):
                    continue            # a docstring
                if module and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue            # a module-level constant
                if cls and isinstance(stmt, ast.AnnAssign):
                    continue            # a field definition
                start = starts[stmt.lineno - 1] + _byte_col(lines[stmt.lineno - 1],
                                                            stmt.col_offset)
                end = starts[stmt.end_lineno - 1] + _byte_col(lines[stmt.end_lineno - 1],
                                                              stmt.end_col_offset)
                found.append((start, end, stmt.lineno, lines[stmt.lineno - 1].strip()))
    return sorted(found)


def _byte_col(line: str, col: int) -> int:
    """The character index of a UTF-8 byte column, as ast reports columns."""
    return len(line.encode("utf-8")[:col].decode("utf-8"))


def run_tests(copy: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        done = subprocess.run(PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def worker(jobs: queue.Queue, results: list) -> None:
    with tempfile.TemporaryDirectory(prefix="l2ai-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "*.egg-info"))
        baseline = run_tests(copy)
        if baseline != "survived":
            results.append(("baseline", None, 0,
                            "times out" if baseline == "timeout" else "fails"))
            return
        while True:
            try:
                rel, source, (start, end, line, text) = jobs.get_nowait()
            except queue.Empty:
                return
            target = copy / rel
            target.write_text(source[:start] + "pass" + source[end:], encoding="utf-8")
            try:
                results.append((run_tests(copy), rel, line, text))
            finally:
                target.write_text(source, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args(argv)
    names = sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    jobs: queue.Queue = queue.Queue()
    total = 0
    for name in names:
        rel = PACKAGE / name
        source = (ROOT / rel).read_text(encoding="utf-8")
        for mutant in mutants(ROOT / rel):
            jobs.put((rel, source, mutant))
            total += 1
    workers = max(1, min(args.workers, os.cpu_count() or 1))
    print(f"{total} mutants in {len(names)} modules, {workers} workers", flush=True)
    results: list = []
    began = time.monotonic()
    threads = [threading.Thread(target=worker, args=(jobs, results))
               for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for verdict, _, _, text in results:
        if verdict == "baseline":
            print(f"the unmutated suite {text}; no census", file=sys.stderr)
            return 2
    for verdict, rel, line, text in sorted(results, key=lambda r: (str(r[1]), r[2])):
        if verdict != "killed":
            print(f"{verdict} {rel}:{line}: {text}")
    counts = {v: sum(1 for r in results if r[0] == v)
              for v in ("killed", "survived", "timeout")}
    print(f"{total} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['timeout']} timeout, in {time.monotonic() - began:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
