#!/usr/bin/env python
"""Paired perf gate: this checkout against a base revision.

Usage (from any directory of a git checkout)::

    python benchmarks/perf_gate.py BASE

``BASE`` is any revision ``git archive`` accepts (CI passes the merge
base). The gate extracts ``git archive BASE`` into a temporary
directory and copies this checkout's ``perfbench/`` over the base's, so
one instrument measures both trees, and both import from one fresh
bytecode cache there; it leaves no file in the checkout.
For each workload of ``BENCHMARK.json`` in turn, it runs
``perfbench/run.py --size small`` on both trees in :data:`PAIRS`
pairs. The order flips every pair, so the two sides of a pair run back
to back on a host whose speed drifts.

A (workload, metric) of ``BENCHMARK.json``'s ``end_to_end`` list fails
when both hold:

* the change's median is worse than the base's by more than the
  metric's ``bound``, as a fraction of the base median, in the
  direction ``better`` names;
* the change lost at least ``PAIRS - 1`` of the pairs (ties count for
  neither side).

A single run spreads by 14-47% on a two-CPU host, more than the bounds,
so neither the median nor the pair count alone makes a verdict. The
gate also fails when the change has more failed cells than the base.

Exit status: 0 pass, 1 regression, 2 when ``BASE`` cannot be archived
or a run prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 5
SEED = 42
SIZE = "small"
SECONDS = 30
"""``run.py``'s default run length. It fixes the number of units a run
makes (3 for paper_tables, 16 for fuzz_crash, 14 for farm_churn), so a
whole gate took about 8 minutes on a two-CPU x86_64 host."""

Pair = Tuple[Dict, Dict]
"""One (base, change) pair of ``run.py`` result lines."""


class GateError(Exception):
    """The gate could not measure: exit 2 with one line."""


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def extract_base(base: str, tree: Path) -> None:
    """``git archive BASE`` into ``tree``, with this checkout's
    ``perfbench/`` in place of the base's."""
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", base],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError as exc:
        raise GateError("cannot run git: %s" % exc) from None
    if archive.returncode != 0:
        reason = archive.stderr.decode(errors="replace").strip()
        raise GateError("cannot archive %r: %s"
                        % (base, reason.splitlines()[0] if reason
                           else "git exited %d" % archive.returncode))
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                   check=True)
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.tmp"))


def parse_result(stdout: str) -> Optional[Dict]:
    """The result line ``run.py`` prints last, or ``None``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return result


def run_once(tree: Path, workload: str, env: Dict[str, str]) -> Dict:
    command = [sys.executable, str(tree / "perfbench" / "run.py"),
               "--workload", workload, "--size", SIZE,
               "--seed", str(SEED), "--seconds", str(SECONDS),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=str(tree), env=env,
                               stdout=subprocess.PIPE, text=True)
    result = parse_result(completed.stdout)
    if result is None:
        raise GateError("%s: run in %s printed no result line (exit %d)"
                        % (workload, tree, completed.returncode))
    return result


def measure(trees: Dict[str, Path], workload: str,
            env: Dict[str, str]) -> List[Pair]:
    pairs: List[Pair] = []
    for index in range(PAIRS):
        order = ("base", "change") if index % 2 == 0 else ("change",
                                                           "base")
        sides = {side: run_once(trees[side], workload, env)
                 for side in order}
        print("  pair %d/%d (%s first): base %s  change %s"
              % (index + 1, PAIRS, order[0], _brief(sides["base"]),
                 _brief(sides["change"])), flush=True)
        pairs.append((sides["base"], sides["change"]))
    return pairs


def _brief(result: Dict) -> str:
    return " ".join("%s=%.4g" % (name, entry["value"])
                    for name, entry in sorted(result["metrics"].items())
                    ) + " failed=%d" % result["failed"]


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------
def load_benchmark() -> Dict:
    """This checkout's ``BENCHMARK.json``: its workloads and its
    ``end_to_end`` metrics (name, better, bound)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Q1, median and Q3, as ``perfbench/sweep.py`` computes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(workload: str, pairs: Sequence[Pair],
          bounds: Sequence[Dict]) -> Tuple[List[str], List[str]]:
    """Report lines and failures for one workload's (base, change)
    pairs of ``run.py`` result lines."""
    lines: List[str] = []
    failures: List[str] = []
    for metric in bounds:
        name = metric["name"]
        # sign * (change - base) > 0 means the change did worse
        sign = 1 if metric["better"] == "lower" else -1
        base = [b["metrics"][name]["value"] for b, _c in pairs]
        change = [c["metrics"][name]["value"] for _b, c in pairs]
        won = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
        lost = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        base_q, change_q = quartiles(base), quartiles(change)
        worse = sign * (change_q[1] - base_q[1]) / base_q[1]
        regressed = worse > metric["bound"] and lost >= len(pairs) - 1
        lines.append(
            "%-12s %-12s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]"
            "  %+.1f%% worse (bound %.0f%%)  won %d/%d%s"
            % (workload, name, base_q[1], base_q[0], base_q[2],
               change_q[1], change_q[0], change_q[2], worse * 100,
               metric["bound"] * 100, won, len(pairs),
               "  REGRESSION" if regressed else ""))
        if regressed:
            failures.append("%s %s" % (workload, name))
    base_failed = sum(b["failed"] for b, _c in pairs)
    change_failed = sum(c["failed"] for _b, c in pairs)
    lines.append("%-12s %-12s base %d  change %d%s"
                 % (workload, "failed", base_failed, change_failed,
                    "  REGRESSION" if change_failed > base_failed
                    else ""))
    if change_failed > base_failed:
        failures.append("%s failed cells" % workload)
    return lines, failures


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base revision to compare against")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    report: List[str] = []
    failures: List[str] = []
    try:
        with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
            trees = {"base": Path(scratch) / "base", "change": ROOT}
            extract_base(args.base, trees["base"])
            # Both trees compile into one fresh bytecode cache, so the
            # checkout's own __pycache__ (stale or not) cannot make one
            # side's imports cheaper; with PYTHONDONTWRITEBYTECODE set,
            # the fresh base tree would recompile in every process.
            env = dict(os.environ,
                       PYTHONPYCACHEPREFIX=str(Path(scratch) / "pycache"))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            for entry in benchmark["workloads"]:
                workload = entry["name"]
                print("%s: %d pairs against %s" % (workload, PAIRS,
                                                   args.base), flush=True)
                lines, failed = judge(workload,
                                      measure(trees, workload, env),
                                      benchmark["end_to_end"])
                report += lines
                failures += failed
    except GateError as exc:
        print("perf_gate: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(report))
    if failures:
        print("perf gate: REGRESSION in %s" % ", ".join(failures))
        return 1
    print("perf gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
