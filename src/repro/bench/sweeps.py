"""Sensitivity sweeps beyond the paper's headline figures.

The paper varies the ADR line budget (Table II) and the metadata cache
size (Fig. 14b); these sweeps extend the same methodology to the other
design parameters DESIGN.md calls out:

* **metadata cache size** — how traffic/IPC/dirty-fraction respond,
* **Phoenix persist stride** — the write-traffic vs recovery-probing
  trade-off of the Osiris relaxation,
* **bitmap fanout** — coverage per bitmap line vs ADR pressure (the
  knob used to scale the simulated machine; this sweep documents its
  effect explicitly).
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.runner import SCALES, config_for_scale, run_one
from repro.bench.tables import ExperimentTable
from repro.sim.machine import Machine
from repro.workloads.registry import TraceSpec


def sweep_metadata_cache(
    scale: str = "default",
    cache_sizes_bytes: Sequence[int] = (8 * 1024, 16 * 1024,
                                        32 * 1024, 64 * 1024),
    workload: str = "hash",
    seed: int = 42,
) -> ExperimentTable:
    """Scheme behaviour as the metadata cache grows."""
    spec = SCALES[scale]
    table = ExperimentTable(
        experiment_id="Sweep A",
        title="metadata cache size sensitivity (%s)" % workload,
        columns=["cache_kb", "wb_writes", "star_norm_writes",
                 "star_norm_ipc", "dirty_fraction"],
        notes=[
            "a larger cache absorbs evictions: write-back traffic "
            "falls and STAR's overhead shrinks toward zero",
        ],
    )
    for size in cache_sizes_bytes:
        config = config_for_scale(scale).with_metadata_cache_bytes(size)
        operations = spec.operations_for(workload)
        wb = run_one(config, "wb", workload, operations, seed=seed)
        star = run_one(config, "star", workload, operations, seed=seed)
        table.add_row(
            cache_kb=size // 1024,
            wb_writes=wb.nvm_writes,
            star_norm_writes=star.normalized_writes(wb),
            star_norm_ipc=star.normalized_ipc(wb),
            dirty_fraction=star.dirty_fraction,
        )
    return table


def sweep_phoenix_stride(
    strides: Sequence[int] = (1, 2, 4, 8, 16),
    workload: str = "hash",
    operations: int = 400,
    seed: int = 42,
) -> ExperimentTable:
    """Phoenix's persist stride: writes vs recovery cost."""
    from repro.config import small_config
    from repro.schemes.phoenix import PhoenixScheme

    table = ExperimentTable(
        experiment_id="Sweep B",
        title="Phoenix persist-stride trade-off (%s)" % workload,
        columns=["stride", "nvm_writes", "periodic_persists",
                 "recovery_reads", "recovery_exact"],
        notes=[
            "longer strides cut periodic counter-block persists but "
            "lengthen the recovery probe window — the Osiris dial",
        ],
    )
    config = small_config()
    for stride in strides:
        machine = Machine(config,
                          scheme=PhoenixScheme(persist_stride=stride))
        machine.run(TraceSpec(workload, config.num_data_lines,
                              operations, seed).ops())
        writes = machine.nvm.total_writes()
        persists = machine.stats["phoenix.periodic_persists"]
        machine.crash()
        report = machine.recover()
        table.add_row(
            stride=stride,
            nvm_writes=writes,
            periodic_persists=persists,
            recovery_reads=report.nvm_reads,
            recovery_exact=machine.oracle_check(report),
        )
    return table


def sweep_bitmap_fanout(
    scale: str = "default",
    fanouts: Sequence[int] = (32, 64, 128, 256, 512),
    workload: str = "hash",
    adr_lines: int = 16,
    seed: int = 42,
) -> ExperimentTable:
    """Coverage per bitmap line vs ADR pressure."""
    spec = SCALES[scale]
    table = ExperimentTable(
        experiment_id="Sweep C",
        title="bitmap-line fanout sensitivity (%s)" % workload,
        columns=["fanout", "bitmap_writes", "adr_hit_ratio",
                 "star_extra_write_pct"],
        notes=[
            "hardware uses 512 bits/line; at scaled machines a smaller "
            "fanout reproduces the paper's ADR pressure (DESIGN.md)",
        ],
    )
    for fanout in fanouts:
        config = config_for_scale(scale, adr_bitmap_lines=adr_lines,
                                  bitmap_fanout=fanout)
        operations = spec.operations_for(workload)
        wb = run_one(config, "wb", workload, operations, seed=seed)
        star = run_one(config, "star", workload, operations, seed=seed)
        extra = star.nvm_writes - wb.nvm_writes
        table.add_row(
            fanout=fanout,
            bitmap_writes=star.bitmap_writes,
            adr_hit_ratio=star.adr_hit_ratio,
            star_extra_write_pct=100.0 * extra / wb.nvm_writes,
        )
    return table
