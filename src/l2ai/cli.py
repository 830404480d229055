"""Command-line front end.

    l2ai run <scenario> [--seed N] [--delta-t MS] [--perm-table FILE]
                        [--report FILE] [--trace FILE]
    l2ai suite {honest,attacks,metrics,fuzz} [--seed N]
    l2ai export <scenario> --out DIR [--seed N] [--delta-t MS] [--perm-table FILE]

Exit status: 0 when the run or suite holds up, 1 when an invariant or suite
check fails, 2 for unusable input (bad scenario text, bad permission table,
unreadable files, adversary script errors).

The argument parser is built once, when the module is imported, and `main`
only parses with it, so `main` may be called any number of times in one
process (the tests and the benchmark do) and each call pays only for its
own command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channel import ChannelError, ParseError, parse_scenario
from .harness import SUITES, World, run_scenario
from .permissions import PermissionTable
from .protocol import DEFAULT_DELTA_T


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="world seed (default 42)")
    parser.add_argument("--delta-t", type=int, default=DEFAULT_DELTA_T,
                        metavar="MS", help="freshness window in simulated ms "
                        f"(default {DEFAULT_DELTA_T})")
    parser.add_argument("--perm-table", type=Path, metavar="FILE",
                        help="permission table file (default: built-in table)")


def _build_world(args: argparse.Namespace) -> World:
    table = None
    if args.perm_table is not None:
        table = PermissionTable.parse(args.perm_table.read_text())
    return World(seed=args.seed, delta_t=args.delta_t, perm_table=table)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario.read_text())
    world = _build_world(args)
    result = run_scenario(world, scenario)
    report = "\n".join(result.report_lines()) + "\n"
    sys.stdout.write(report)
    if args.report is not None:
        args.report.write_text(report)
    if args.trace is not None:
        args.trace.write_text("\n".join(world.channel.log) + "\n")
    return 0 if result.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario.read_text())
    world = _build_world(args)
    result = run_scenario(world, scenario)
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "report.txt"
    trace_path = args.out / "trace.txt"
    report_path.write_text("\n".join(result.report_lines()) + "\n")
    trace_path.write_text("\n".join(world.channel.log) + "\n")
    print(f"wrote {report_path} and {trace_path}")
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2ai",
        description="Simulator for a ledger-backed three-factor "
                    "authentication protocol.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and print its report")
    run_p.add_argument("scenario", type=Path, help="scenario script")
    _add_world_args(run_p)
    run_p.add_argument("--report", type=Path, metavar="FILE",
                       help="also write the report to this file")
    run_p.add_argument("--trace", type=Path, metavar="FILE",
                       help="write the channel event log to this file")

    suite_p = sub.add_parser("suite", help="run a named check suite")
    suite_p.add_argument("name", choices=sorted(SUITES))
    suite_p.add_argument("--seed", type=int, default=42,
                         help="base seed (default 42)")

    export_p = sub.add_parser("export",
                              help="run a scenario and write report + trace files")
    export_p.add_argument("scenario", type=Path, help="scenario script")
    _add_world_args(export_p)
    export_p.add_argument("--out", type=Path, required=True, metavar="DIR",
                          help="output directory")
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return 0 if SUITES[args.name](seed=args.seed) else 1
        return _cmd_export(args)
    except (ParseError, ChannelError, ValueError, OSError) as exc:
        print(f"l2ai: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
