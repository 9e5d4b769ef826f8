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

The cache and fanout sweeps run the ``sweep-cache`` and
``sweep-fanout`` grids of :data:`repro.bench.runner.GRIDS`, so
``star-lab`` can run them as campaigns; Phoenix's persist stride is no
spec key, so that sweep builds its machines itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.bench.runner import GRIDS, run_points
from repro.bench.tables import ExperimentTable
from repro.sim.machine import Machine
from repro.workloads.registry import TraceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lab.bridge import LabCache


def sweep_metadata_cache(scale: str = "default", seed: int = 42,
                         lab: Optional["LabCache"] = None
                         ) -> ExperimentTable:
    """Scheme behaviour as the metadata cache grows."""
    (workload,) = GRIDS["sweep-cache"]["workloads"]
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
    for config, results in run_points("sweep-cache", scale, seed, lab):
        wb = results[("wb", workload)]
        star = results[("star", workload)]
        table.add_row(
            cache_kb=config.metadata_cache.size_bytes // 1024,
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


def sweep_bitmap_fanout(scale: str = "default", seed: int = 42,
                        lab: Optional["LabCache"] = None
                        ) -> ExperimentTable:
    """Coverage per bitmap line vs ADR pressure."""
    (workload,) = GRIDS["sweep-fanout"]["workloads"]
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
    for config, results in run_points("sweep-fanout", scale, seed, lab):
        wb = results[("wb", workload)]
        star = results[("star", workload)]
        extra = star.nvm_writes - wb.nvm_writes
        table.add_row(
            fanout=config.star.bitmap_fanout,
            bitmap_writes=star.bitmap_writes,
            adr_hit_ratio=star.adr_hit_ratio,
            star_extra_write_pct=100.0 * extra / wb.nvm_writes,
        )
    return table
