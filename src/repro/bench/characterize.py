"""Workload characterization (the evaluation-setup companion table).

Papers in this space typically tabulate their benchmarks' reference
behaviour; the paper describes its seven workloads only qualitatively
(hash/array are write-heavy, macros have higher locality). This
experiment makes those properties measurable: per-operation reference
mix, persist frequency, footprint, and locality — the fraction of
accesses whose line falls in the same page (counter block) as the
previous access.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench.runner import SCALES, config_for_scale
from repro.bench.tables import ExperimentTable
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec
from repro.workloads.trace import Op, OpKind


def characterize(ops: Iterable[Op]) -> dict:
    """Reference-stream statistics of any op stream: a generated
    trace or a loaded trace file."""
    reads = writes = persists = instructions = 0
    same_page = transitions = 0
    lines = set()
    previous_page: Optional[int] = None
    for op in ops:
        instructions += op.instructions
        if op.kind is OpKind.PERSIST:
            persists += 1
            continue
        if op.kind is OpKind.READ:
            reads += 1
        else:
            writes += 1
        page = op.addr // 8  # a counter block covers 8 lines (SIT)
        lines.add(op.addr)
        if previous_page is not None:
            transitions += 1
            if page == previous_page:
                same_page += 1
        previous_page = page
    accesses = reads + writes
    return {
        "ops": accesses + persists,
        "reads": reads,
        "writes": writes,
        "persists": persists,
        "instructions": instructions,
        "lines": len(lines),
        "line_range": (min(lines), max(lines)) if lines else None,
        "write_share": writes / accesses if accesses else 0.0,
        "instr_per_access": instructions / accesses if accesses else 0.0,
        "footprint_kb": len(lines) * 64 / 1024,
        "page_locality": same_page / transitions if transitions else 0.0,
    }


def experiment_characterization(
    scale: str = "default",
    workloads: Optional[Iterable[str]] = None,
    seed: int = 42,
) -> ExperimentTable:
    """One row of reference statistics per workload."""
    spec = SCALES[scale]
    config = config_for_scale(scale)
    workloads = (
        list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    )
    table = ExperimentTable(
        experiment_id="Char.",
        title="workload reference-stream characterization",
        columns=["workload", "reads", "writes", "persists",
                 "write_share", "instr_per_access", "footprint_kb",
                 "page_locality"],
        notes=[
            "page_locality = share of consecutive accesses landing in "
            "the same counter-block page; the paper's qualitative "
            "claims (hash is write-heavy and scattered, queue/array "
            "are local) made measurable",
        ],
    )
    for name in workloads:
        stats = characterize(TraceSpec(
            name, config.num_data_lines, spec.operations_for(name), seed,
        ).ops())
        table.add_row(workload=name, **{
            column: stats[column] for column in table.columns[1:]
        })
    return table
