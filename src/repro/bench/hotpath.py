"""Hot-path micro-benchmarks and the perf-regression gate.

The simulator's credibility rests on running the paper's grids fast
enough to iterate on; this module pins that property. It times three
scenarios that cover the per-access hot paths:

* ``write_mix_scalar`` — the scheme x workload runtime path
  (counter-mode encryption, SIT persists, bitmap maintenance, WPQ
  timing) through the per-reference loop with telemetry enabled, the
  configuration every sweep runs,
* ``telemetry_off`` — the same loop with ``telemetry=False``,
  guarding the zero-cost disabled fast path of the Stats facade,
* ``recovery`` — repeated crash + STAR recovery (locate walk, counter
  reconstruction, MAC recomputation, counted RA clearing).

Raw seconds are meaningless across machines, so every run first times a
fixed pure-Python **calibration loop** (dict churn, integer mixing,
BLAKE2b digests — the same primitive mix the simulator spends its time
in) and reports each scenario as a *normalized score* =
``scenario_seconds / calibration_seconds``. Scores are stable across
hosts to within a few percent, which is what makes a committed baseline
(``BENCH_hotpath.json``) meaningful in CI.

The gate (:func:`check_regression`) fails when any scenario's score
exceeds the baseline score by more than the threshold (default 15%).
``star-bench --perf`` appends trajectory entries to the same JSON so the
history of the repo's performance rides along with the code.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, List, Optional

DEFAULT_THRESHOLD = 0.15
"""Maximum tolerated relative slowdown before the gate fails."""

DEFAULT_REPEATS = 3
"""Scenarios report the best of this many runs (min is the standard
noise-robust estimator for micro-benchmarks)."""


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(repeats: int = DEFAULT_REPEATS) -> float:
    """Seconds for a fixed pure-Python workload on this interpreter.

    The loop mixes the primitives the simulator hot paths are made of:
    dict lookups/stores, integer arithmetic and keyed BLAKE2b digests.
    Dividing scenario times by this value cancels host speed.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        accumulator = 0
        table: Dict[int, int] = {}
        for i in range(50000):
            table[i & 1023] = accumulator
            accumulator = (accumulator + i) ^ (accumulator >> 3)
            if not i & 63:
                hashlib.blake2b(
                    accumulator.to_bytes(8, "big"),
                    key=b"calibration", digest_size=8,
                ).digest()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def bench_write_mix_scalar() -> float:
    """The runtime hot path: the scheme x workload grid.

    The op streams are generated *outside* the timed window: the
    scenario pins the machine's execution hot path, not the workload
    generator (which is exercised by its own tests). Telemetry stays
    on, matching the sweep configuration the score is meant to protect.
    """
    from repro.bench.runner import config_for_scale
    from repro.sim.machine import Machine
    from repro.workloads.registry import make_workload

    config = config_for_scale("smoke")
    streams = {
        name: list(
            make_workload(
                name, config.num_data_lines, operations=300, seed=11
            ).ops()
        )
        for name in ("hash", "array")
    }
    start = time.perf_counter()
    for scheme in ("wb", "anubis", "star"):
        for name in ("hash", "array"):
            machine = Machine(config, scheme=scheme, telemetry=True)
            machine.run(streams[name])
            machine.result(name)
    return time.perf_counter() - start


def bench_telemetry_off() -> float:
    """The overhead-sensitive sweep path (telemetry=False)."""
    from repro.bench.runner import config_for_scale, run_one

    config = config_for_scale("smoke")
    start = time.perf_counter()
    for workload in ("hash", "array"):
        run_one(config, "star", workload, operations=400, seed=11,
                crash_and_recover=False, telemetry=False)
    return time.perf_counter() - start


def bench_recovery() -> float:
    """Crash + STAR recovery, repeated: the Fig. 14(b) code path."""
    from repro.config import small_config
    from repro.sim.machine import Machine
    from repro.workloads.registry import make_workload

    config = small_config()
    start = time.perf_counter()
    for seed in (3, 5, 7):
        machine = Machine(config, scheme="star")
        workload = make_workload(
            "hash", config.num_data_lines, operations=250, seed=seed
        )
        machine.run(workload.ops())
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert report.verified
    return time.perf_counter() - start


SCENARIOS: Dict[str, Callable[[], float]] = {
    "write_mix_scalar": bench_write_mix_scalar,
    "telemetry_off": bench_telemetry_off,
    "recovery": bench_recovery,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def run_hotpath(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time every scenario; report raw seconds and normalized scores."""
    calibration_s = calibrate(repeats)
    seconds: Dict[str, float] = {}
    for name, scenario in SCENARIOS.items():
        scenario()  # warm-up: imports, memo caches, branch predictors
        seconds[name] = min(scenario() for _ in range(repeats))
    return {
        "calibration_s": round(calibration_s, 6),
        "seconds": {
            name: round(value, 6) for name, value in seconds.items()
        },
        "scores": {
            name: round(value / calibration_s, 4)
            for name, value in seconds.items()
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def check_regression(result: dict, baseline: dict,
                     threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Failures where ``result`` is slower than ``baseline`` + threshold.

    Compares normalized scores scenario by scenario; a scenario missing
    from the baseline is skipped (it has nothing to regress against).
    Returns human-readable failure lines (empty = gate passes).
    """
    failures: List[str] = []
    base_scores = baseline.get("scores", {})
    for name, score in result.get("scores", {}).items():
        base = base_scores.get(name)
        if base is None or base <= 0:
            continue
        ratio = score / base
        if ratio > 1.0 + threshold:
            failures.append(
                "%s: score %.4f vs baseline %.4f (%.1f%% slower, "
                "threshold %.0f%%)"
                % (name, score, base, (ratio - 1.0) * 100.0,
                   threshold * 100.0)
            )
    return failures


# ----------------------------------------------------------------------
# the BENCH_hotpath.json file
# ----------------------------------------------------------------------
def load_bench_file(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def save_bench_file(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def update_baseline(path: str, result: dict) -> dict:
    """Make ``result`` the committed baseline (trajectory preserved)."""
    payload = load_bench_file(path) or {}
    payload["baseline"] = result
    payload.setdefault("trajectory", [])
    save_bench_file(path, payload)
    return payload


def append_trajectory(path: str, result: dict,
                      note: str = "") -> dict:
    """Append a measurement to the perf trajectory (CI history)."""
    payload = load_bench_file(path) or {"baseline": None,
                                        "trajectory": []}
    entry = dict(result)
    if note:
        entry["note"] = note
    payload.setdefault("trajectory", []).append(entry)
    if payload.get("baseline") is None:
        # first measurement seeds the baseline
        payload["baseline"] = result
    save_bench_file(path, payload)
    return payload
