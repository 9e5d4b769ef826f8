"""``star-run``: run one workload under one scheme and report.

The single-run counterpart of ``star-bench``: pick a workload, a
scheme and a machine size; optionally interleave threads, enable
start-gap wear leveling, replay a captured trace, crash + recover at
the end, and audit the machine's invariants.

Examples::

    star-run --workload btree --scheme star --operations 1000 --crash
    star-run --workload hash --scheme anubis --threads 4
    star-run --trace mytrace.txt.gz --scheme star --wear-level 100
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import sim_config
from repro.errors import AllocationError, ConfigError, ReproError
from repro.schemes import SIT_SCHEMES
from repro.sim.endurance import wear_report
from repro.sim.machine import Machine
from repro.sim.validate import audit_machine
from repro.tools import int_at_least, path_error
from repro.workloads.capture import load_trace
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-run",
        description="Run one workload under one persistence scheme.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", choices=ALL_WORKLOADS,
                        default="hash")
    source.add_argument("--trace", metavar="FILE",
                        help="replay a captured trace instead")
    parser.add_argument("--scheme", choices=sorted(SIT_SCHEMES),
                        default="star")
    parser.add_argument("--operations", type=int_at_least(1),
                        default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int_at_least(1), default=1,
                        help="interleave N workload threads")
    parser.add_argument("--memory-mb", type=int_at_least(1), default=64)
    parser.add_argument("--cache-kb", type=int_at_least(1), default=64,
                        help="metadata cache size")
    parser.add_argument("--wear-level", type=int_at_least(0),
                        metavar="INTERVAL", default=0,
                        help="enable start-gap wear leveling with the "
                             "given gap-write interval (0: off)")
    parser.add_argument("--crash", action="store_true",
                        help="crash at the end and run recovery")
    parser.add_argument("--audit", action="store_true",
                        help="audit machine invariants after the run")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.crash and not SIT_SCHEMES[args.scheme].supports_sit_recovery:
        return path_error("star-run", "--crash",
                          "scheme %s cannot recover; run it without "
                          "--crash" % args.scheme)
    try:
        config = sim_config(
            memory_bytes=args.memory_mb * 1024 ** 2,
            metadata_cache_bytes=args.cache_kb * 1024,
        )
    except ConfigError as exc:  # every --memory-mb builds
        return path_error("star-run", "--cache-kb", exc)
    if args.trace:
        try:
            ops = list(load_trace(args.trace))
        except (ReproError, OSError, ValueError) as exc:
            return path_error("star-run", args.trace, exc)
        source = "trace %s" % args.trace
    else:
        try:
            ops = TraceSpec(args.workload, config.num_data_lines,
                            args.operations, args.seed, args.threads).ops()
        except (ConfigError, AllocationError) as exc:
            return path_error("star-run", "--memory-mb", exc)
        source = args.workload
        if args.threads > 1:
            source += " x%d threads" % args.threads
    nvm = None
    if args.wear_level:
        from repro.mem.wearlevel import WearLevelingNVM

        nvm = WearLevelingNVM(config.num_data_lines, args.wear_level)
    machine = Machine(config, scheme=args.scheme, nvm=nvm)
    machine.run(ops)

    if args.audit:
        findings = audit_machine(machine)
        if findings:
            for finding in findings:
                print("AUDIT:", finding)
            return 1
        print("audit: all invariants hold")

    recovery = None
    if args.crash:
        machine.crash()
        recovery = machine.recover()

    result = machine.result(source, recovery=recovery)
    print("run: %s under %s" % (source, args.scheme))
    print("  instructions        %d" % result.instructions)
    print("  IPC                 %.3f" % result.ipc)
    print("  NVM writes          %d (data %d, meta %d, ra %d, st %d)"
          % (result.nvm_writes,
             result.stats.get("nvm.data_writes", 0),
             result.stats.get("nvm.meta_writes", 0),
             result.stats.get("nvm.ra_writes", 0),
             result.stats.get("nvm.st_writes", 0)))
    print("  NVM reads           %d" % result.nvm_reads)
    print("  energy              %.1f uJ" % (result.energy_nj / 1000))
    print("  dirty metadata      %.0f%%" % (100 * result.dirty_fraction))
    if result.adr_hit_ratio:
        print("  ADR hit ratio       %.1f%%"
              % (100 * result.adr_hit_ratio))
    wear = wear_report(machine.nvm)
    if wear.total_writes:
        print("  max line wear       %d (imbalance %.1fx, region %s)"
              % (wear.max_wear, wear.imbalance, wear.hottest_line[0]))
    if recovery is not None:
        print("  recovery            %d lines, %d reads + %d writes, "
              "%.1f us, verified=%s, exact=%s"
              % (recovery.restored_lines, recovery.nvm_reads,
                 recovery.nvm_writes, recovery.recovery_time_ns / 1000,
                 recovery.verified, machine.oracle_check(recovery)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
