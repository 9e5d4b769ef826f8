"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --workload fuzz_crash --seeds 1-10
    python3 perfbench/sweep.py --workload paper_tables --seeds 42 --trace 1

Each run is a fresh ``run.py`` process. For every metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, the figure each end-to-end bound in
``BENCHMARK.json`` is checked against. ``--record`` stores the summary
in ``baseline.json`` under the workload, next to the traced per-layer
shares, so a later change can quote "layer X went from a% to b%,
``wall_s`` from s to t" from committed numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"
SHARE_EXCLUDED = ("unattributed.self_s",)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(args: argparse.Namespace, seed: int) -> Dict:
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    completed = subprocess.run(command, cwd=str(HERE.parent),
                               stdout=subprocess.PIPE, text=True,
                               check=True)
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("  " + line)
    return json.loads(lines[-1])


def summarize(results: List[Dict]) -> Dict[str, Dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (median, median, median))
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def shares(metrics: Dict[str, Dict]) -> Dict[str, float]:
    """Each layer's calibrated self time over all layers' self time."""
    self_times = {name[: -len(".self_s")]: entry["median"]
                  for name, entry in metrics.items()
                  if name.endswith(".self_s")
                  and name not in SHARE_EXCLUDED}
    total = sum(self_times.values())
    return {layer: value / total if total else 0.0
            for layer, value in self_times.items()}


def record(args: argparse.Namespace, seeds: List[int],
           summary: Dict[str, Dict]) -> None:
    baseline = {}
    if BASELINE_PATH.is_file():
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
    entry = baseline.setdefault("workloads", {}).setdefault(
        args.workload, {})
    key = "per_layer" if args.trace else "end_to_end"
    entry[key] = {
        "seeds": seeds,
        "seconds": args.seconds,
        "host": "%s, %d CPUs, Python %s" % (
            platform.processor() or platform.machine(), os.cpu_count(),
            platform.python_version()),
        "metrics": summary,
    }
    if args.trace:
        entry[key]["shares"] = shares(summary)
    tmp = BASELINE_PATH.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, BASELINE_PATH)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="comma list of seeds or ranges, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the summary in baseline.json")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        result = run_once(args, seed)
        if not result["correct"]:
            print("seed %d: output check failed (%d of %d cells)"
                  % (seed, result["failed"], result["attempted"]))
            return 1
        results.append(result)
    summary = summarize(results)
    print("%s, %d runs (seeds %s), trace %d"
          % (args.workload, len(results), args.seeds, args.trace))
    for name, entry in summary.items():
        print("  %-30s median %14.6f %-6s spread %6.2f%%"
              % (name, entry["median"], entry["unit"],
                 entry["spread"] * 100))
    if args.trace:
        for layer, share in sorted(shares(summary).items(),
                                   key=lambda item: -item[1]):
            print("  share %-24s %6.1f%%" % (layer, share * 100))
    if args.record:
        record(args, seeds, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
