"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 42 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload's unit in a closed loop, as many times
as nominal units fit in ``--seconds`` and at least three, and reports
the end-to-end metrics. ``wall_s`` is the fastest whole unit and
``setup_s`` the fastest of several fresh processes that only import and
build inputs (see :func:`end_to_end` for why the fastest).
``--trace 1`` runs one untraced unit, then one unit under the layer
tracer, and reports the per-layer metrics. ``--workload all`` runs
every workload, each in its own process. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

Every cell's output is checked: seed-independent invariants always,
and for the seeds pinned in ``pins.json`` a digest of each cell's
simulated output and, on traced runs, the simulated counts. A cell
whose check fails counts in ``failed``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"

DEFAULT_SEED = 42
"""Pinned with the held-out seed 1729 (see ``baseline.json``)."""

MIN_UNITS = 3
"""Every run makes at least three units, whatever ``--seconds`` says (a
``paper_tables`` unit takes 11-17 s on a two-CPU host)."""
SETUP_PROBES = 9
"""Set-up is measured in this many fresh processes, spread over the
run's units."""

SIM_METRICS = [
    "workloads.refs", "mem.hierarchy.hit_ratio", "meta_cache.hit_ratio",
    "meta_cache.evictions", "meta_cache.persists", "mem.nvm.reads",
    "mem.nvm.writes", "sim.timing.wpq_stalls", "sim.timing.cycles",
    "schemes.adr_hit_ratio", "recovery.stale_lines",
    "recovery.line_accesses", "lab.lease.stolen",
]
"""Simulated (or protocol) counts: identical between runs of a seed."""


def _prepare_imports() -> bool:
    """Put the checkout's ``src`` first on the path; ``False`` when the
    checkout holds no program to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # the lab's provenance lookup runs git; stop its search for a
    # repository at the checkout instead of walking up past it
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return True


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def load_pins(size: str, workload: str, seed: int,
              perturb: bool) -> Optional[Dict]:
    if not PINS_PATH.is_file():
        return None
    with open(PINS_PATH) as handle:
        pins = json.load(handle)
    entry = pins.get(size, {}).get(workload, {}).get(str(seed))
    if entry is not None and perturb:
        entry["cells"][0] = "perturbed-" + entry["cells"][0]
    return entry


def failed_cells(unit, reference, pins: Optional[Dict]) -> Set[int]:
    """Cells of ``unit`` that broke an invariant, differ from the run's
    first unit (exact repeat) or from the pinned digests."""
    failed = set(unit.failed)
    expected = [reference.digests]
    if pins is not None:
        expected.append(pins["cells"])
        for key in ("paper_err", "export_digest"):
            if key in pins and unit.extra.get(key) != pins[key]:
                failed.add(0)
    for digests in expected:
        if len(digests) != unit.cells:
            failed.update(range(unit.cells))
        failed.update(index for index, (ours, theirs)
                      in enumerate(zip(unit.digests, digests))
                      if ours != theirs)
    return failed


def record_pins(args: argparse.Namespace, unit, sim: Dict) -> None:
    """Pin this seed's cell digests and simulated counts."""
    pins = {}
    if PINS_PATH.is_file():
        with open(PINS_PATH) as handle:
            pins = json.load(handle)
    entry = {"cells": unit.digests, "sim": sim}
    for key in ("paper_err", "export_digest"):
        if key in unit.extra:
            entry[key] = unit.extra[key]
    pins.setdefault(args.size, {}).setdefault(args.workload, {})[
        str(args.seed)] = entry
    tmp = PINS_PATH.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, PINS_PATH)


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def timed_unit(workload) -> Tuple[object, float]:
    start = time.perf_counter()
    unit = workload.run_unit()
    return unit, time.perf_counter() - start


def setup_probe_s(args: argparse.Namespace) -> float:
    """Wall time of a fresh process that only sets up, then exits."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=str(ROOT),
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def units_per_run(seconds: float, workload) -> int:
    """How many units a run makes: the nominal units that fit in
    ``seconds``, at least :data:`MIN_UNITS`. It depends on the arguments
    only, never on how fast the units turn out to be."""
    return max(MIN_UNITS, int(seconds / workload.unit_s))


def end_to_end(args, workload, pins) -> Dict:
    """Time a fixed number of whole units and of set-up processes and
    report the fastest of each.

    The two-CPU development host runs at one of two speeds about 50%
    apart and switches every one to four seconds (a fixed pure-Python
    loop timed every 0.1 s reads 0.10 s or 0.155 s), so each repeat's
    time depends on how much of it fell in slow stretches. The median
    of a run's repeats drifts with that share from run to run; the
    fastest repeat is the host's quiet speed and drifts much less. A
    whole unit keeps every cost the unit pays, wherever in the unit it
    lands (collections, heartbeats, provenance lookups).
    """
    count = units_per_run(args.seconds, workload)
    # the set-up probes are spread over the run, so they sample the
    # host's fast and slow stretches as the units do
    probes_before = collections.Counter(
        probe * count // SETUP_PROBES for probe in range(SETUP_PROBES))
    probes: List[float] = []
    units: List[Tuple[object, float]] = []
    for index in range(count):
        probes += [setup_probe_s(args) for _ in range(probes_before[index])]
        units.append(timed_unit(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = units[0][0]
    attempted = sum(unit.cells for unit, _seconds in units)
    failed = sum(len(failed_cells(unit, reference, pins))
                 for unit, _seconds in units)
    wall = [seconds for _unit, seconds in units]
    wall_s = min(wall)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cells_per_s": (reference.cells / wall_s, "1/s"),
        "setup_s": (min(probes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print("%s seed %d: %d units of %d cells, unit seconds %s"
          % (args.workload, args.seed, len(units), reference.cells,
             " ".join("%.3f" % seconds for seconds in wall)))
    print("  setup probe seconds %s"
          % " ".join("%.3f" % seconds for seconds in probes))
    print("  failed_frac %.6f (%d/%d)" % (failed / attempted, failed,
                                          attempted))
    if "paper_err" in reference.extra:
        print("  paper_err %.12f" % reference.extra["paper_err"])
    return {"attempted": attempted, "failed": failed, "errors": [],
            "metrics": metrics}


def per_layer(args, workload, pins) -> Dict:
    from tracer import Tracer

    base, base_s = timed_unit(workload)
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        start = time.perf_counter()
        unit = workload.run_unit()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics, breakdown = layer_metrics(tracer, unit, traced_s, base_s)
    errors = []
    if pins is not None and "sim" in pins:
        drift = {name: (metrics[name][0], pins["sim"].get(name))
                 for name in SIM_METRICS
                 if metrics[name][0] != pins["sim"].get(name)}
        if drift:
            errors.append("simulated counts drifted from the pins for "
                          "seed %d: %s" % (args.seed, drift))
    failed = (len(failed_cells(base, base, pins))
              + len(failed_cells(unit, base, pins)))
    print_breakdown(args, breakdown, tracer, traced_s, base_s)
    if args.record_pins and not failed:
        record_pins(args, base, {name: metrics[name][0]
                                 for name in SIM_METRICS})
    return {"attempted": base.cells + unit.cells, "failed": failed,
            "errors": errors, "metrics": metrics,
            "sim": {name: metrics[name][0] for name in SIM_METRICS}}


def layer_metrics(tracer, unit, traced_s: float, base_s: float):
    from tracer import UNATTRIBUTED

    layers = tracer.breakdown(traced_s)
    counts = tracer.counts
    tags = tracer.tags

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, names in (
            ("workloads", ["self_s"]),
            ("sim.machine", ["self_s"]),
            ("mem.hierarchy", ["calls", "self_s"]),
            ("sim.controller.write", ["calls", "self_s"]),
            ("sim.controller.read", ["calls", "self_s"]),
            ("meta_cache", ["calls", "self_s"]),
            ("tree.sit", ["calls", "self_s"]),
            ("crypto.otp", ["calls", "self_s"]),
            ("mem.nvm", ["calls", "self_s"]),
            ("sim.timing", ["calls", "self_s"]),
            ("schemes", ["calls", "self_s"]),
            ("obs", ["calls", "self_s"]),
            ("recovery", ["calls", "self_s"]),
            ("fuzz.oracle", ["calls", "self_s"]),
            ("lab.scheduler", ["calls", "self_s"]),
            ("lab.store", ["calls", "self_s"]),
            ("lab.lease", ["calls", "self_s"])):
        for name in names:
            metrics["%s.%s" % (layer, name)] = (
                layers[layer][name], "count" if name == "calls" else "s")
    stale = count("recovery.stale_lines")
    extra = {
        "workloads.refs": (count("workloads.refs"), "count"),
        "mem.hierarchy.hit_ratio": (ratio(
            count("cpu_hits"), count("cpu_hits") + count("cpu_misses")),
            "ratio"),
        "meta_cache.hit_ratio": (ratio(
            count("meta_hits"), count("meta_hits") + count("meta_misses")),
            "ratio"),
        "meta_cache.evictions": (count("meta_evictions"), "count"),
        "meta_cache.persists": (count("meta_persists"), "count"),
        "mem.nvm.reads": (count("mem.nvm.reads"), "count"),
        "mem.nvm.writes": (count("mem.nvm.writes"), "count"),
        "sim.timing.wpq_stalls": (count("wpq_stalls"), "count"),
        "sim.timing.cycles": (count("sim.timing.cycles"), "cycles"),
        "schemes.adr_hit_ratio": (ratio(
            count("adr_accesses") - count("adr_misses"),
            count("adr_accesses")), "ratio"),
        "recovery.stale_lines": (stale, "count"),
        "recovery.line_accesses": (count("recovery.line_accesses"),
                                   "count"),
        "recovery.us_per_stale_line": (ratio(
            layers["recovery"]["self_s"] * 1e6, stale), "us"),
        "lab.scheduler.journal_writes": (
            count("lab.scheduler.journal_writes"), "count"),
        "lab.store.provenance_s": (tags.get("lab.store.provenance_s", 0.0),
                                   "s"),
        "lab.store.merge_s": (tags.get("lab.store.merge_s", 0.0), "s"),
        "lab.lease.stolen": (unit.extra.get("stolen", 0), "count"),
        "lab.lease.idle_s": (unit.extra.get("idle_s", 0.0), "s"),
        "unattributed.self_s": (layers[UNATTRIBUTED]["self_s"], "s"),
        # the calibration samples taken during the unit are not tracing
        # cost; the breakdown already keeps them out of every self time
        "trace.overhead_x": ((traced_s - tracer.sampling_s) / base_s, "x"),
    }
    metrics.update(extra)
    return metrics, layers


def print_breakdown(args, layers, tracer, traced_s: float,
                    base_s: float) -> None:
    from tracer import UNATTRIBUTED

    attributed = sum(row["self_s"] for layer, row in layers.items()
                     if layer != UNATTRIBUTED)
    spans, nested = tracer.spans()
    print("%s seed %d: untraced unit %.3f s, traced unit %.3f s (%.3f s "
          "of it calibrating); %d spans, %d pass-throughs at %.0f ns inner "
          "+ %.0f ns outer per span (%d calibration samples): %.3f s "
          "estimated tracer cost, %.3f s measured"
          % (args.workload, args.seed, base_s, traced_s, tracer.sampling_s,
             spans, nested,
             tracer.cost["inner"] * 1e9, tracer.cost["outer"] * 1e9,
             len(tracer._samples), tracer.overhead_s(),
             traced_s - tracer.sampling_s - base_s))
    print("  %-22s %12s %12s %8s" % ("layer", "calls", "self_s",
                                     "share"))
    for layer, row in layers.items():
        share = row["self_s"] / attributed if attributed else 0.0
        if layer == UNATTRIBUTED:
            share = float("nan")
        print("  %-22s %12d %12.4f %7.1f%%"
              % (layer, row["calls"], row["self_s"], share * 100))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def remove_workdir(workdir: Path) -> None:
    """Delete the run's scratch files and commit the deletion, so the
    filesystem's discards are paid here and not by the next run."""
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.parent.is_dir():
        handle = os.open(str(workdir.parent), os.O_RDONLY)
        try:
            os.fsync(handle)
        finally:
            os.close(handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_tables", "fuzz_crash",
                                 "farm_churn", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length; the end-to-end loop runs the "
                        "nominal units (unit_s in workloads.py) that fit")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"],
                        default="full",
                        help="small: the self-check's reduced size")
    parser.add_argument("--perturb-pin", action="store_true",
                        help="corrupt one pinned digest (self-check)")
    parser.add_argument("--record-pins", action="store_true",
                        help="with --trace 1: pin this seed's outputs")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every metric."""
    from workloads import WORKLOADS

    summary = {}
    ok = True
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        if args.perturb_pin:
            command.append("--perturb-pin")
        completed = subprocess.run(command, cwd=str(ROOT),
                                   stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print("%s: exited with code %d" % (name,
                                                completed.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary[name] = result
        for metric, entry in sorted(result["metrics"].items()):
            print("  %-32s %18.6f %s" % (metric, entry["value"],
                                          entry["unit"]))
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not _prepare_imports():
        print("perfbench: no src/repro under %s; run from a checkout of "
              "the repository" % ROOT, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    workload.setup()
    if args.setup_probe:
        return 0
    pins = (None if args.record_pins else
            load_pins(args.size, args.workload, args.seed, args.perturb_pin))
    try:
        result = (per_layer if args.trace else end_to_end)(
            args, workload, pins)
    finally:
        remove_workdir(workdir)
    for error in result["errors"]:
        print("perfbench: error: %s" % error, file=sys.stderr)
    line = {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"] + len(result["errors"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    if "sim" in result:
        print("sim %s" % json.dumps(result["sim"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
