"""Self-check of the benchmark at reduced size.

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` keeps to its format, that every
workload at ``--size small`` emits every named metric with its unit in
both trace modes and passes its output checks, that no layer's
calibrated self time is below zero, that a perturbed pinned
digest shows up as failed cells, and that a directory holding only the
benchmark (no program) makes ``run.py`` fail without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        print("selfcheck: FAILED: %s" % message)
        sys.exit(1)


def check_manifest(manifest: Dict) -> None:
    check(set(manifest) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(1 <= manifest["run_seconds"] <= 60
          and isinstance(manifest["run_seconds"], int), "run_seconds")
    check(2 <= len(manifest["workloads"]) <= 8, "workload count")
    names = set()
    for entry in manifest["workloads"]:
        check(set(entry) == {"name", "why"}, "workload keys")
        check(len(entry["why"]) <= 200 and "\n" not in entry["why"],
              "why of %s" % entry["name"])
        names.add(entry["name"])
    for key, limit in (("end_to_end", 16), ("per_layer", 128)):
        check(1 <= len(manifest[key]) <= limit, "%s count" % key)
        for entry in manifest[key]:
            expected = {"name", "unit", "better"}
            if key == "end_to_end":
                expected.add("bound")
                check(0 < entry["bound"] <= 0.25, "bound of %s"
                      % entry["name"])
            check(set(entry) == expected, "keys of %s" % entry["name"])
            check(entry["better"] in ("lower", "higher"),
                  "better of %s" % entry["name"])
            check(UNIT.match(entry["unit"]) is not None,
                  "unit of %s" % entry["name"])
            names.add(entry["name"])
    check(all(NAME.match(name) for name in names), "metric/workload names")
    count = (len(manifest["workloads"]) + len(manifest["end_to_end"])
             + len(manifest["per_layer"]))
    check(len(names) == count, "names are used once")
    check(any(entry["name"] == "setup_s" and entry["unit"] == "s"
              and entry["better"] == "lower"
              for entry in manifest["end_to_end"]), "setup_s present")


def run(command: List[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(completed: subprocess.CompletedProcess) -> Dict:
    check(completed.returncode == 0,
          "exit code %d: %s" % (completed.returncode, completed.stderr))
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), "attempted/failed")
    return result


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        manifest = json.load(handle)
    check_manifest(manifest)
    command = list(manifest["command"])
    for workload in manifest["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(run(command + [
                "--workload", name, "--seed", "42", "--seconds", "1",
                "--trace", str(trace), "--size", "small"], ROOT))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace %d output checks" % (name, trace))
            expected = {entry["name"]: entry["unit"]
                        for entry in manifest[key]}
            got = {metric: entry["unit"]
                   for metric, entry in result["metrics"].items()}
            check(got == expected, "%s trace %d metrics and units"
                  % (name, trace))
            negative = [metric for metric, entry in result["metrics"].items()
                        if metric.endswith(".self_s") and entry["value"] < 0]
            check(not negative, "%s: negative self time in %s"
                  % (name, negative))
            print("selfcheck: %s trace %d: %d metrics, %d cells ok"
                  % (name, trace, len(got), result["attempted"]))
        result = result_of(run(command + [
            "--workload", name, "--seed", "42", "--seconds", "1",
            "--trace", "0", "--size", "small", "--perturb-pin"], ROOT))
        check(not result["correct"] and result["failed"] > 0,
              "%s: a perturbed pin must fail cells" % name)
        print("selfcheck: %s perturbed pin: failed_frac %.4f"
              % (name, result["failed"] / result["attempted"]))
    bare = ROOT / ".perfbench" / ("bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = run(command + ["--workload", "paper_tables", "--seed",
                                   "42", "--seconds", "1", "--trace", "0"],
                        bare)
        check(completed.returncode != 0 and not completed.stdout.strip(),
              "a directory without the program must fail with no result")
        print("selfcheck: benchmark alone exits %d with no result"
              % completed.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
