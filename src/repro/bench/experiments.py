"""Reproductions of every table and figure in the paper's evaluation.

Each ``experiment_*`` function regenerates the rows/series of one paper
result as an :class:`~repro.bench.tables.ExperimentTable`, with the
paper's reported values attached as notes so the shape comparison is
explicit. ``run_all`` produces the complete set (the content of
EXPERIMENTS.md).

================  ====================================================
experiment        paper result
================  ====================================================
``fig10``         bitmap-line writes vs WB writes (avg ~1/461)
``fig11``         write traffic normalized to WB (STAR 1.08x, Anubis 2x)
``fig12``         IPC normalized to WB (STAR ~0.98, Anubis ~0.90)
``fig13``         energy normalized to WB (STAR +4%, Anubis +46%)
``table2``        ADR bitmap-line hit ratio vs #lines in ADR
``fig14a``        dirty fraction of the metadata cache (~78%)
``fig14b``        recovery time vs metadata cache size
================  ====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bench.runner import (
    GRIDS,
    GridKey,
    PAPER_SCHEMES,
    geometric_mean,
    run_points,
)
from repro.bench.tables import ExperimentTable
from repro.config import LINE_SIZE
from repro.sim.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lab.bridge import LabCache

PAPER_TABLE2 = {2: 0.3285, 4: 0.4744, 8: 0.6437, 16: 0.7475, 32: 0.8219}
PAPER_FIG11 = {"star": 1.08, "anubis": 2.0}
PAPER_FIG12 = {"star": 0.98, "anubis": 0.90}
PAPER_FIG13 = {"star": 1.04, "anubis": 1.46}
PAPER_FIG14A_DIRTY = 0.78
PAPER_FIG14B = {"star_4mb_s": 0.05, "anubis_4mb_s": 0.02}
PAPER_CACHE_MBYTES = (0.5, 1.0, 2.0, 4.0)
"""The metadata cache sizes Fig. 14(b) projects to."""


def paper_grid(scale: str = "default", seed: int = 42,
               lab: Optional["LabCache"] = None
               ) -> Dict[GridKey, RunResult]:
    """The scheme x workload grid shared by Figs. 10-13 and 14(a).

    ``lab`` serves cells from (and commits misses to) a lab store —
    see :mod:`repro.lab` and ``star-bench --lab DIR``.
    """
    ((_config, grid),) = run_points("paper", scale, seed, lab)
    return grid


def _workloads_of(grid: Dict[GridKey, RunResult]) -> List[str]:
    ordered: List[str] = []
    for _scheme, workload in grid:
        if workload not in ordered:
            ordered.append(workload)
    return ordered


# ----------------------------------------------------------------------
# Fig. 10 — bitmap-line write traffic vs WB write traffic
# ----------------------------------------------------------------------
def experiment_fig10(scale: str = "default",
                     grid: Optional[Dict[GridKey, RunResult]] = None,
                     seed: int = 42,
                     lab: Optional["LabCache"] = None
                     ) -> ExperimentTable:
    if grid is None:
        grid = paper_grid(scale, seed, lab)
    table = ExperimentTable(
        experiment_id="Fig. 10",
        title="bitmap-line writes of STAR vs WB write traffic",
        columns=["workload", "wb_writes", "bitmap_writes",
                 "wb_to_bitmap_ratio"],
        notes=[
            "paper: WB issues on average 461x more writes than STAR "
            "writes bitmap lines; the ratio depends on workload locality",
        ],
    )
    ratios = []
    for workload in _workloads_of(grid):
        star = grid[("star", workload)]
        wb = grid[("wb", workload)]
        bitmap_writes = star.bitmap_writes
        ratio = (
            wb.nvm_writes / bitmap_writes if bitmap_writes else float("inf")
        )
        if bitmap_writes:
            ratios.append(ratio)
        table.add_row(
            workload=workload,
            wb_writes=wb.nvm_writes,
            bitmap_writes=bitmap_writes,
            wb_to_bitmap_ratio=ratio,
        )
    if ratios:
        table.add_row(
            workload="average",
            wb_writes="",
            bitmap_writes="",
            wb_to_bitmap_ratio=sum(ratios) / len(ratios),
        )
    return table


# ----------------------------------------------------------------------
# Figs. 11/12/13 — normalized traffic / IPC / energy
# ----------------------------------------------------------------------
def _normalized_experiment(grid: Dict[GridKey, RunResult],
                           experiment_id: str, title: str, metric: str,
                           notes: List[str]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        columns=["workload"] + PAPER_SCHEMES,
        notes=notes,
    )
    sums: Dict[str, List[float]] = {scheme: [] for scheme in PAPER_SCHEMES}
    for workload in _workloads_of(grid):
        wb = grid[("wb", workload)]
        row: Dict[str, object] = {"workload": workload}
        for scheme in PAPER_SCHEMES:
            result = grid[(scheme, workload)]
            value = getattr(result, metric)(wb)
            row[scheme] = value
            sums[scheme].append(value)
        table.add_row(**row)
    mean_row: Dict[str, object] = {"workload": "gmean"}
    for scheme in PAPER_SCHEMES:
        mean_row[scheme] = geometric_mean(sums[scheme])
    table.add_row(**mean_row)
    return table


def experiment_fig11(scale: str = "default",
                     grid: Optional[Dict[GridKey, RunResult]] = None,
                     seed: int = 42,
                     lab: Optional["LabCache"] = None
                     ) -> ExperimentTable:
    if grid is None:
        grid = paper_grid(scale, seed, lab)
    return _normalized_experiment(
        grid, "Fig. 11", "NVM write traffic normalized to WB",
        "normalized_writes",
        [
            "paper: STAR 1.08x (array 1.21x, hash 1.34x), Anubis 2x, "
            "strict persistence up to ~9x in theory (less in practice "
            "because WB itself evicts tree nodes)",
        ],
    )


def experiment_fig12(scale: str = "default",
                     grid: Optional[Dict[GridKey, RunResult]] = None,
                     seed: int = 42,
                     lab: Optional["LabCache"] = None
                     ) -> ExperimentTable:
    if grid is None:
        grid = paper_grid(scale, seed, lab)
    return _normalized_experiment(
        grid, "Fig. 12", "IPC normalized to WB", "normalized_ipc",
        [
            "paper: STAR ~98% of WB, Anubis ~90%; the hash workload "
            "shows the largest degradation (8% for STAR)",
        ],
    )


def experiment_fig13(scale: str = "default",
                     grid: Optional[Dict[GridKey, RunResult]] = None,
                     seed: int = 42,
                     lab: Optional["LabCache"] = None
                     ) -> ExperimentTable:
    if grid is None:
        grid = paper_grid(scale, seed, lab)
    return _normalized_experiment(
        grid, "Fig. 13", "NVM energy normalized to WB",
        "normalized_energy",
        ["paper: STAR +4% over WB on average, Anubis +46%"],
    )


# ----------------------------------------------------------------------
# Table II — ADR bitmap-line hit ratio vs number of lines in ADR
# ----------------------------------------------------------------------
def experiment_table2(scale: str = "default", seed: int = 42,
                      lab: Optional["LabCache"] = None) -> ExperimentTable:
    """ADR pressure depends on how many bitmap lines the touched
    metadata spans: the ``table2`` grid's tighter fanout keeps the
    span-to-ADR ratio at the paper's scale."""
    table = ExperimentTable(
        experiment_id="Table II",
        title="bitmap-line hit ratio vs lines held in ADR",
        columns=["adr_lines", "hit_ratio", "paper_hit_ratio"],
        notes=[
            "hit ratio averaged over all workloads; more ADR lines "
            "cover more metadata, with diminishing returns (the paper "
            "picks 16)",
        ],
    )
    for config, results in run_points("table2", scale, seed, lab):
        lines = config.star.adr_bitmap_lines
        ratios = [result.adr_hit_ratio for result in results.values()]
        table.add_row(
            adr_lines=lines,
            hit_ratio=sum(ratios) / len(ratios),
            paper_hit_ratio=PAPER_TABLE2.get(lines, ""),
        )
    return table


# ----------------------------------------------------------------------
# Fig. 14(a) — dirty fraction of the metadata cache
# ----------------------------------------------------------------------
def experiment_fig14a(scale: str = "default",
                      grid: Optional[Dict[GridKey, RunResult]] = None,
                      seed: int = 42,
                      lab: Optional["LabCache"] = None
                      ) -> ExperimentTable:
    if grid is None:
        grid = paper_grid(scale, seed, lab)
    table = ExperimentTable(
        experiment_id="Fig. 14(a)",
        title="dirty share of the metadata cache at crash time",
        columns=["workload", "dirty_fraction"],
        notes=["paper: ~78% of cached metadata are dirty on average; "
               "STAR only restores those, Anubis restores 100%"],
    )
    fractions = []
    for workload in _workloads_of(grid):
        star = grid[("star", workload)]
        fractions.append(star.dirty_fraction)
        table.add_row(workload=workload, dirty_fraction=star.dirty_fraction)
    if fractions:
        table.add_row(
            workload="average",
            dirty_fraction=sum(fractions) / len(fractions),
        )
    return table


# ----------------------------------------------------------------------
# Fig. 14(b) — recovery time vs metadata cache size
# ----------------------------------------------------------------------
def experiment_fig14b(scale: str = "default", seed: int = 42,
                      lab: Optional["LabCache"] = None) -> ExperimentTable:
    """Measured recovery time on sim-scale caches, plus the projection
    to the paper's cache sizes using the measured per-line costs."""
    table = ExperimentTable(
        experiment_id="Fig. 14(b)",
        title="recovery time after a crash vs metadata cache size",
        columns=["kind", "cache", "star_seconds", "anubis_seconds"],
        notes=[
            "paper: STAR 0.05s vs Anubis 0.02s for a 4MB cache; both "
            "are negligible next to the 10-100s platform self-test",
            "projection uses the measured dirty fraction and per-line "
            "access counts at the 100ns/line cost the paper assumes",
        ],
    )
    from repro.sim.projection import (
        ANUBIS_ACCESSES_PER_CACHE_LINE,
        STAR_ACCESSES_PER_STALE_LINE,
        project,
    )
    star_per_stale = STAR_ACCESSES_PER_STALE_LINE
    anubis_per_slot = ANUBIS_ACCESSES_PER_CACHE_LINE
    dirty_fraction = PAPER_FIG14A_DIRTY
    (workload,) = GRIDS["fig14b"]["workloads"]
    for config, results in run_points("fig14b", scale, seed, lab):
        size = config.metadata_cache.size_bytes
        star = results[("star", workload)]
        anubis = results[("anubis", workload)]
        assert star.recovery is not None and anubis.recovery is not None
        if star.recovery.stale_lines:
            star_per_stale = (
                star.recovery.line_accesses / star.recovery.stale_lines
            )
            dirty_fraction = star.dirty_fraction
        anubis_per_slot = (
            anubis.recovery.line_accesses
            / (size // LINE_SIZE)
        )
        table.add_row(
            kind="measured",
            cache="%dKB" % (size // 1024),
            star_seconds=star.recovery.recovery_time_s,
            anubis_seconds=anubis.recovery.recovery_time_s,
        )
    for mbytes in PAPER_CACHE_MBYTES:
        projection = project(
            cache_bytes=int(mbytes * 1024 * 1024),
            dirty_fraction=dirty_fraction,
            star_accesses_per_stale=star_per_stale,
            anubis_accesses_per_line=anubis_per_slot,
        )
        table.add_row(
            kind="projected",
            cache="%.1fMB" % mbytes,
            star_seconds=projection.star_seconds,
            anubis_seconds=projection.anubis_seconds,
        )
    return table


# ----------------------------------------------------------------------
# everything
# ----------------------------------------------------------------------
def run_all(scale: str = "default", seed: int = 42,
            lab: Optional["LabCache"] = None) -> List[ExperimentTable]:
    """Regenerate every table and figure of the paper's evaluation."""
    grid = paper_grid(scale, seed, lab)
    return [
        experiment_fig10(scale, grid),
        experiment_fig11(scale, grid),
        experiment_fig12(scale, grid),
        experiment_fig13(scale, grid),
        experiment_table2(scale, seed, lab),
        experiment_fig14a(scale, grid),
        experiment_fig14b(scale, seed, lab),
    ]
