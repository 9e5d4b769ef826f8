"""Failure minimization: crash-point binary search + trace delta-debug.

A failing case arrives as (workload-derived op list, crash point,
attack). Minimization shrinks it to the smallest op list that still
produces the *same failure signature* (the set of oracle violation
kinds), in two stages:

1. **Crash-point binary search** — find the shortest failing trace
   prefix. Crash-consistency failures are usually monotone in the
   prefix (once the problematic persist pattern exists, later ops
   rarely fix it), so a binary search gets within one op cheaply; if
   the final probe disagrees (non-monotone case), fall back to the full
   prefix.
2. **ddmin** — Zeller's delta debugging over the surviving ops, with
   doubling granularity, under a global re-execution budget.

The result is written as a ``<case>.trace.gz`` + ``<case>.json``
sidecar pair that :func:`replay_artifact` re-executes single-process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.corpus import CorpusFormatError
from repro.fuzz.executor import materialize_trace, run_case
from repro.fuzz.sampling import FuzzCase
from repro.workloads.capture import load_trace, save_trace
from repro.workloads.trace import Op

ARTIFACT_VERSION = 1


@dataclass
class MinimizationResult:
    """Outcome of minimizing one failing case."""

    case: FuzzCase
    signature: tuple
    ops: List[Op]
    original_ops: int
    runs: int
    defect: Optional[str] = None
    events_tail: Optional[List[Dict]] = None
    """Flight-recorder tail of the minimized repro (the last events
    before the oracle fired), shipped in the ``.json`` sidecar."""

    @property
    def minimized_ops(self) -> int:
        return len(self.ops)


class _Budget:
    def __init__(self, max_runs: int) -> None:
        self.max_runs = max_runs
        self.runs = 0

    def spend(self) -> bool:
        if self.runs >= self.max_runs:
            return False
        self.runs += 1
        return True


def _fails_like(case: FuzzCase, ops: Sequence[Op], target: tuple,
                defect: Optional[str], budget: _Budget) -> bool:
    if not budget.spend():
        return False
    return run_case(case, ops=ops, defect=defect).signature == target


def _minimal_failing_prefix(case: FuzzCase, ops: List[Op], target: tuple,
                            defect: Optional[str],
                            budget: _Budget) -> List[Op]:
    """Binary-search the crash point (stage 1)."""
    low, high = 1, len(ops)
    while low < high:
        mid = (low + high) // 2
        if _fails_like(case, ops[:mid], target, defect, budget):
            high = mid
        else:
            low = mid + 1
    prefix = ops[:low]
    if _fails_like(case, prefix, target, defect, budget):
        return prefix
    return ops  # non-monotone failure: keep the full prefix


def _ddmin(case: FuzzCase, ops: List[Op], target: tuple,
           defect: Optional[str], budget: _Budget) -> List[Op]:
    """Classic ddmin over the op list (stage 2)."""
    granularity = 2
    while len(ops) >= 2:
        chunk = max(1, len(ops) // granularity)
        chunks = [ops[i:i + chunk] for i in range(0, len(ops), chunk)]
        reduced = False
        for index in range(len(chunks)):
            complement = [
                op for j, piece in enumerate(chunks) if j != index
                for op in piece
            ]
            if complement and _fails_like(case, complement, target,
                                          defect, budget):
                ops = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(ops):
                break
            granularity = min(len(ops), granularity * 2)
        if budget.runs >= budget.max_runs:
            break
    return ops


def minimize_failure(case: FuzzCase, defect: Optional[str] = None,
                     max_runs: int = 200
                     ) -> Optional[MinimizationResult]:
    """Shrink a failing case; ``None`` if it no longer fails."""
    trace = materialize_trace(case)
    crash_at = case.crash_index(len(trace))
    ops = trace[:crash_at]
    original = run_case(case, ops=ops, defect=defect)
    if not original.failed:
        return None
    target = original.signature
    budget = _Budget(max_runs)
    ops = _minimal_failing_prefix(case, ops, target, defect, budget)
    ops = _ddmin(case, ops, target, defect, budget)
    # one extra run of the final minimized trace captures the flight-
    # recorder tail that belongs to the artifact being written (the
    # original tail describes the unminimized trace)
    final = run_case(case, ops=ops, defect=defect)
    return MinimizationResult(
        case=case, signature=target, ops=ops,
        original_ops=crash_at, runs=budget.runs, defect=defect,
        events_tail=final.events_tail,
    )


# ----------------------------------------------------------------------
# repro artifacts
# ----------------------------------------------------------------------
def write_artifacts(result: MinimizationResult,
                    directory) -> Tuple[Path, Path]:
    """Persist a minimized failure as ``.trace.gz`` + ``.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / ("%s.trace.gz" % result.case.case_id)
    meta_path = directory / ("%s.json" % result.case.case_id)
    save_trace(
        result.ops, trace_path,
        header="minimized repro for %s\nsignature: %s"
               % (result.case.case_id, ", ".join(result.signature)),
    )
    meta = {
        "type": "artifact",
        "version": ARTIFACT_VERSION,
        "case": result.case.to_dict(),
        "trace": trace_path.name,
        "crash_at": len(result.ops),
        "original_ops": result.original_ops,
        "minimized_ops": len(result.ops),
        "signature": list(result.signature),
        "defect": result.defect,
        "runs": result.runs,
        "events_tail": result.events_tail or [],
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True)
                         + "\n", encoding="ascii")
    return trace_path, meta_path


def load_artifact(meta_path) -> Tuple[FuzzCase, List[Op], Optional[str],
                                      tuple]:
    """Read back a minimized-failure artifact pair.

    A meta file that is not JSON, lacks a field or names a trace that
    cannot be read raises :class:`CorpusFormatError` as ``PATH: reason``.
    """
    meta_path = Path(meta_path)
    try:
        meta = json.loads(meta_path.read_text(encoding="ascii"))
        case = FuzzCase.from_dict(meta["case"])
        ops = list(load_trace(meta_path.parent / meta["trace"]))
        return case, ops, meta.get("defect"), tuple(meta["signature"])
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise CorpusFormatError(
            "%s: not a replayable artifact (%s: %s)"
            % (meta_path, type(exc).__name__, exc)
        ) from None


def replay_artifact(meta_path) -> Tuple[bool, tuple]:
    """Re-execute an artifact single-process.

    Returns (reproduced the recorded signature?, observed signature).
    """
    case, ops, defect, signature = load_artifact(meta_path)
    result = run_case(case, ops=ops, defect=defect)
    return result.signature == signature, result.signature
