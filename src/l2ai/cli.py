"""Command-line front end.

    l2ai run <scenario> [--seed N] [--delta-t MS] [--perm-table FILE]
                        [--report FILE] [--trace FILE]
    l2ai suite {honest,attacks,metrics,fuzz} [--seed N]
    l2ai export <scenario> --out DIR [--seed N] [--delta-t MS] [--perm-table FILE]

Exit status: 0 when the run or suite holds up, 1 when an invariant or suite
check fails, 2 for unusable input (bad scenario text, bad permission table,
unreadable files or output files that cannot be written, adversary script
errors); `run` writes its --report and --trace files before the report goes
to stdout, so exit 2 always leaves stdout empty.

The argument parsers are built once, when the module is imported, and `main`
only parses with them, so `main` may be called any number of times in one
process (the tests and the benchmark do) and each call pays only for its
own command. Each call parses its arguments once: when the first word names
a command, that command's own parser reads the rest; any other command line
(`--help`, no words, an unknown command) goes to the top-level parser.

Input files (the scenario and --perm-table) are read as bytes and decoded
as UTF-8 whatever the locale, and their lines may end in LF, CRLF or CR;
output files (--report, --trace, export's report.txt and trace.txt) are
written as UTF-8.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channel import Channel, ChannelError, ParseError, parse_scenario
from .harness import SUITES, World, run_scenario
from .permissions import PermissionTable
from .protocol import DEFAULT_DELTA_T


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="world seed (default 42)")
    parser.add_argument("--delta-t", type=int, default=DEFAULT_DELTA_T,
                        metavar="MS", help="freshness window in simulated ms "
                        f"(default {DEFAULT_DELTA_T})")
    parser.add_argument("--perm-table", metavar="FILE",
                        help="permission table file (default: built-in table)")


def _read_utf8(path: str) -> str:
    # bytes.decode, not a text-mode file: no per-file incremental decoder,
    # and the parsers' splitlines() takes any line ending
    with open(path, "rb") as f:
        return f.read().decode("utf-8")


def _run_scenario_file(args: argparse.Namespace) -> tuple[str, Channel, bool]:
    """Run the scenario file in a world built from the options; returns the
    report text, the channel whose trace a caller may write, and whether the
    run held up."""
    scenario = parse_scenario(_read_utf8(args.scenario))
    table = None
    if args.perm_table is not None:
        table = PermissionTable.parse(_read_utf8(args.perm_table))
    world = World(seed=args.seed, delta_t=args.delta_t, perm_table=table)
    result = run_scenario(world, scenario)
    report = "\n".join(result.report_lines()) + "\n"
    return report, world.channel, result.ok


def _cmd_run(args: argparse.Namespace) -> int:
    report, channel, ok = _run_scenario_file(args)
    # files first: a path that cannot be written exits 2 with stdout empty
    if args.report is not None:
        args.report.write_text(report, encoding="utf-8")
    if args.trace is not None:
        args.trace.write_text(channel.trace + "\n", encoding="utf-8")
    sys.stdout.write(report)
    return 0 if ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    report, channel, ok = _run_scenario_file(args)
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "report.txt"
    trace_path = args.out / "trace.txt"
    report_path.write_text(report, encoding="utf-8")
    trace_path.write_text(channel.trace + "\n", encoding="utf-8")
    print(f"wrote {report_path} and {trace_path}")
    return 0 if ok else 1


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="l2ai",
        description="Simulator for a ledger-backed three-factor "
                    "authentication protocol.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and print its report")
    run_p.add_argument("scenario", help="scenario script")
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
    export_p.add_argument("scenario", help="scenario script")
    _add_world_args(export_p)
    export_p.add_argument("--out", type=Path, required=True, metavar="DIR",
                          help="output directory")
    return parser, {"run": run_p, "suite": suite_p, "export": export_p}


_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """What `_PARSER.parse_args(argv)` returns, parsing the words once: the
    top-level parser would hand everything after the command to that
    command's parser, and report the words it leaves over."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
