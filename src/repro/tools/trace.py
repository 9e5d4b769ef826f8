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

from repro.errors import ReproError
from repro.tools import int_at_least, output_error, path_error
from repro.workloads.capture import load_trace, save_trace
from repro.workloads.registry import (
    ALL_WORKLOADS,
    make_threaded_trace,
    make_workload,
)
from repro.workloads.trace import OpKind, count_kinds


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
    if args.threads > 1:
        ops = make_threaded_trace(
            args.workload, args.lines, threads=args.threads,
            operations=args.operations, seed=args.seed,
        )
    else:
        ops = make_workload(
            args.workload, args.lines,
            operations=args.operations, seed=args.seed,
        ).ops()
    header = "workload=%s operations=%d seed=%d threads=%d lines=%d" % (
        args.workload, args.operations, args.seed, args.threads,
        args.lines,
    )
    count = save_trace(ops, args.output, header=header)
    print("wrote %d ops to %s" % (count, args.output))
    return 0


def _info(args) -> int:
    try:
        ops = list(load_trace(args.path))
    except (ReproError, OSError, ValueError) as exc:
        return path_error("star-trace", args.path, exc)
    if not ops:
        print("empty trace")
        return 1
    kinds = count_kinds(ops)
    touched = {op.addr for op in ops if op.kind is not OpKind.PERSIST}
    instructions = sum(op.instructions for op in ops)
    print("trace: %s" % args.path)
    print("  ops           %d" % len(ops))
    print("  reads         %d" % kinds[OpKind.READ])
    print("  writes        %d" % kinds[OpKind.WRITE])
    print("  persists      %d" % kinds[OpKind.PERSIST])
    print("  instructions  %d" % instructions)
    print("  unique lines  %d" % len(touched))
    print("  address range [%d, %d]" % (min(touched), max(touched)))
    footprint_kb = len(touched) * 64 / 1024
    print("  footprint     %.1f KB" % footprint_kb)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _generate(args)
    return _info(args)


if __name__ == "__main__":
    sys.exit(main())
