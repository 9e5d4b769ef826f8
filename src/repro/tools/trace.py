"""``star-trace``: generate, inspect and convert workload traces.

Examples::

    star-trace generate --workload btree --operations 500 -o b.trace
    star-trace generate --workload hash --threads 4 -o h.trace.gz
    star-trace info b.trace
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.characterize import characterize
from repro.errors import AllocationError, ConfigError, ReproError
from repro.tools import int_at_least, output_error, path_error
from repro.workloads.capture import load_trace, save_trace
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-trace",
        description="Generate and inspect memory-reference traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="emit a workload's trace to a file"
    )
    generate.add_argument("--workload", choices=ALL_WORKLOADS,
                          required=True)
    generate.add_argument("--operations", type=int_at_least(1),
                          default=1000)
    generate.add_argument("--lines", type=int_at_least(1),
                          default=1024 * 1024,
                          help="data lines in the address space")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--threads", type=int_at_least(1), default=1)
    generate.add_argument("-o", "--output", required=True)

    info = commands.add_parser(
        "info", help="summarize a trace file"
    )
    info.add_argument("path")
    return parser


def _generate(args) -> int:
    status = output_error("star-trace", args.output)
    if status:
        return status
    try:
        ops = TraceSpec(args.workload, args.lines, args.operations,
                        args.seed, args.threads).ops()
    except (ConfigError, AllocationError) as exc:
        return path_error("star-trace", "--lines", exc)
    header = "workload=%s operations=%d seed=%d threads=%d lines=%d" % (
        args.workload, args.operations, args.seed, args.threads,
        args.lines,
    )
    try:
        count = save_trace(ops, args.output, header=header)
    except AllocationError as exc:  # tree workloads allocate as they go
        return path_error("star-trace", "--lines", exc)
    print("wrote %d ops to %s" % (count, args.output))
    return 0


def _info(args) -> int:
    try:
        stats = characterize(load_trace(args.path))
    except (ReproError, OSError, ValueError) as exc:
        return path_error("star-trace", args.path, exc)
    if not stats["ops"]:
        print("empty trace")
        return 1
    print("trace: %s" % args.path)
    print("  ops           %d" % stats["ops"])
    print("  reads         %d" % stats["reads"])
    print("  writes        %d" % stats["writes"])
    print("  persists      %d" % stats["persists"])
    print("  instructions  %d" % stats["instructions"])
    print("  unique lines  %d" % stats["lines"])
    if stats["line_range"] is not None:
        print("  address range [%d, %d]" % stats["line_range"])
    print("  footprint     %.1f KB" % stats["footprint_kb"])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _generate(args)
    return _info(args)


if __name__ == "__main__":
    sys.exit(main())
