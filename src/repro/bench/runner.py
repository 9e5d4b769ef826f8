"""Bench runner: the grid table, its cells and the cell runner.

Every bench table's cells are one grid of :data:`GRIDS`: a cartesian
product of schemes x workloads x structural axes that
:func:`expand_cells` turns into an ordered cell list. The figure and
sweep reproductions in :mod:`repro.bench.experiments` and
:mod:`repro.bench.sweeps` run those cells with :func:`run_points`, and
``star-lab`` runs the same grids as campaigns
(:mod:`repro.lab.gridfile`), so a campaign's cells are exactly a
table's cells. The default experiment scale is a 1/256-scale machine
(64 MB NVM, 64 KB metadata cache — see :func:`repro.config.sim_config`
for the scaling argument); ``scale`` picks smaller/larger grids for
quick smoke runs or higher fidelity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.config import SystemConfig, require_int, sim_config
from repro.errors import ConfigError
from repro.schemes import SIT_SCHEMES
from repro.sim.machine import Machine
from repro.sim.results import RunResult
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lab.bridge import LabCache

GridKey = Tuple[str, str]
"""(scheme name, workload name)."""


@dataclass(frozen=True)
class BenchScale:
    """One experiment scale: machine size + per-workload op counts."""

    memory_bytes: int
    metadata_cache_bytes: int
    llc_bytes: int
    micro_operations: int
    macro_operations: int

    def operations_for(self, workload: str) -> int:
        if workload in ("tpcc",):
            return self.macro_operations
        return self.micro_operations


SCALES: Dict[str, BenchScale] = {
    "smoke": BenchScale(
        memory_bytes=8 * 1024 ** 2,
        metadata_cache_bytes=4 * 1024,
        llc_bytes=32 * 1024,
        micro_operations=300,
        macro_operations=60,
    ),
    "default": BenchScale(
        memory_bytes=32 * 1024 ** 2,
        metadata_cache_bytes=64 * 1024,
        llc_bytes=64 * 1024,
        micro_operations=1500,
        macro_operations=250,
    ),
    "large": BenchScale(
        memory_bytes=128 * 1024 ** 2,
        metadata_cache_bytes=32 * 1024,
        llc_bytes=256 * 1024,
        micro_operations=6000,
        macro_operations=1000,
    ),
}

PAPER_SCHEMES: List[str] = ["wb", "strict", "anubis", "star"]


def config_for_scale(scale: str = "default",
                     adr_bitmap_lines: int = 16,
                     bitmap_fanout: int = 128) -> SystemConfig:
    """The machine configuration used by the named experiment scale."""
    try:
        spec = SCALES[scale]
    except KeyError:
        raise ValueError(
            "unknown scale %r (choose from %s)"
            % (scale, ", ".join(sorted(SCALES)))
        ) from None
    return sim_config(
        memory_bytes=spec.memory_bytes,
        metadata_cache_bytes=spec.metadata_cache_bytes,
        llc_bytes=spec.llc_bytes,
        adr_bitmap_lines=adr_bitmap_lines,
        bitmap_fanout=bitmap_fanout,
    )


def run_one(config: SystemConfig, scheme: str, workload: str,
            operations: int, seed: int = 42,
            crash_and_recover: bool = False,
            telemetry: bool = True,
            events_jsonl: Optional[str] = None,
            lab: Optional["LabCache"] = None) -> RunResult:
    """Run one workload under one scheme; optionally crash + recover.

    Telemetry (histograms, spans, the structured event log) is on by
    default and lands in ``RunResult.extras["telemetry"]``;
    ``events_jsonl`` additionally streams the event log to a JSONL file
    while the run executes.

    ``lab`` routes the cell through a :class:`repro.lab.LabCache`: a
    cell already in the store is deserialized instead of re-simulated,
    a missing one is computed once and committed. Lab cells carry the
    counter snapshot but no live telemetry objects, so ``telemetry``
    and ``events_jsonl`` are ignored on that path.
    """
    if lab is not None:
        return lab.run_one(
            config, scheme, workload, operations, seed=seed,
            crash_and_recover=crash_and_recover,
        )
    machine = Machine(config, scheme=scheme, telemetry=telemetry)
    if events_jsonl is not None:
        machine.stats.registry.events.open_sink(events_jsonl)
    try:
        machine.run(TraceSpec(workload, config.num_data_lines,
                              operations, seed).ops())
        recovery = None
        if crash_and_recover:
            machine.crash()
            recovery = machine.recover()
    finally:
        machine.stats.registry.events.close_sink()
    return machine.result(workload, recovery=recovery)


# ----------------------------------------------------------------------
# the bench grids: every table's cells, written once
# ----------------------------------------------------------------------
BENCH_AXES = ("adr_bitmap_lines", "bitmap_fanout",
              "metadata_cache_bytes")
"""The structural sweeps a grid can take as ``axes``."""


def _grid(name: str, schemes: List[str], workloads: List[str],
          scale: str = "default", **keys: object) -> Dict:
    return dict(name=name, kind="bench", scale=scale,
                schemes=list(schemes), workloads=list(workloads),
                seed=42, **keys)


GRIDS: Dict[str, Dict] = {
    # the shared scheme x workload grid behind Figs. 10-13 and 14(a)
    "paper": _grid("paper-default", PAPER_SCHEMES, ALL_WORKLOADS),
    "paper-smoke": _grid(
        "paper-smoke", PAPER_SCHEMES, ALL_WORKLOADS, scale="smoke",
    ),
    # Table II: ADR bitmap-line hit ratio vs lines held in ADR; the
    # tighter fanout keeps the span-to-ADR ratio at the paper's scale
    # (see ``sim_config``'s scaling note)
    "table2": _grid(
        "table2", ["star"], ALL_WORKLOADS, bitmap_fanout=64,
        axes={"adr_bitmap_lines": [2, 4, 8, 16, 32]},
    ),
    # Fig. 14(b): recovery time vs metadata cache size
    "fig14b": _grid(
        "fig14b", ["star", "anubis"], ["hash"], crash_and_recover=True,
        axes={"metadata_cache_bytes": [4096, 8192, 16384, 32768]},
    ),
    # Sweep A: scheme behaviour as the metadata cache grows
    "sweep-cache": _grid(
        "sweep-cache", ["wb", "star"], ["hash"],
        axes={"metadata_cache_bytes": [8192, 16384, 32768, 65536]},
    ),
    # Sweep C: coverage per bitmap line vs ADR pressure
    "sweep-fanout": _grid(
        "sweep-fanout", ["wb", "star"], ["hash"],
        axes={"bitmap_fanout": [32, 64, 128, 256, 512]},
    ),
}
"""The built-in bench grids by name. ``star-bench`` expands them at its
``--scale`` and ``--seed``; ``star-lab run --grid NAME`` runs them as
written."""


class Cell(NamedTuple):
    """One bench cell: the arguments of :func:`run_one`."""

    config: SystemConfig
    scheme: str
    workload: str
    operations: int
    seed: int
    crash_and_recover: bool


def grid_names(grid: Dict, key: str, known: Iterable[str],
               default: List[str]) -> List[str]:
    """A grid's list of registered names; an empty list means
    ``default``."""
    names = grid.get(key, default)
    if not isinstance(names, list):
        raise ConfigError("%s must be a list, got %r" % (key, names))
    known = sorted(known)
    for name in names:
        if name not in known:
            raise ConfigError("unknown %s %r (choose from %s)"
                              % (key[:-1], name, ", ".join(known)))
    return names or default


def expand_cells(grid: Dict) -> List[Cell]:
    """A bench grid's ordered cells: axis points, then workloads, then
    schemes. Cells of one axis point share one config.

    Every value is checked here, before any cell runs; a bad one is a
    :class:`~repro.errors.ConfigError`.
    """
    scale = grid.get("scale", "default")
    if scale not in SCALES:
        raise ConfigError("unknown scale %r" % (scale,))
    schemes = grid_names(grid, "schemes", SIT_SCHEMES, ["star"])
    workloads = grid_names(grid, "workloads", ALL_WORKLOADS, ["hash"])
    seed = grid.get("seed", 42)
    crash = grid.get("crash_and_recover", False)
    if not isinstance(crash, bool):
        raise ConfigError("crash_and_recover must be true or false, "
                          "got %r" % (crash,))
    for key in ("adr_bitmap_lines", "bitmap_fanout"):
        if key in grid:
            require_int(key, grid[key], 1)
    axes = grid.get("axes", {})
    if not isinstance(axes, dict):
        raise ConfigError("axes must map an axis to its values, got %r"
                          % (axes,))
    for key, values in axes.items():
        if key not in BENCH_AXES:
            raise ConfigError("unknown axis %r (choose from %s)"
                              % (key, ", ".join(BENCH_AXES)))
        if not isinstance(values, list):
            raise ConfigError("axis %s must be a list, got %r"
                              % (key, values))
        for value in values:
            require_int(key, value, 1)
    axis_keys = sorted(axes)

    cells: List[Cell] = []
    for combo in itertools.product(*(axes[key] for key in axis_keys)):
        point = dict(zip(axis_keys, combo))
        config = config_for_scale(
            scale,
            adr_bitmap_lines=point.get(
                "adr_bitmap_lines", grid.get("adr_bitmap_lines", 16)
            ),
            bitmap_fanout=point.get(
                "bitmap_fanout", grid.get("bitmap_fanout", 128)
            ),
        )
        if "metadata_cache_bytes" in point:
            config = config.with_metadata_cache_bytes(
                point["metadata_cache_bytes"]
            )
        for workload in workloads:
            operations = grid.get(
                "operations", SCALES[scale].operations_for(workload)
            )
            # the cell's trace, checked before any cell runs
            TraceSpec(workload, config.num_data_lines, operations, seed)
            for scheme in schemes:
                cells.append(Cell(config, scheme, workload, operations,
                                  seed, crash))
    return cells


def run_points(name: str, scale: str = "default", seed: int = 42,
               lab: Optional["LabCache"] = None
               ) -> List[Tuple[SystemConfig, Dict[GridKey, RunResult]]]:
    """Run the built-in grid ``name`` at ``scale`` and ``seed``.

    One ``(config, {(scheme, workload): result})`` per axis point, in
    grid order; ``lab`` serves cells from (and commits misses to) a lab
    store.
    """
    points: List[Tuple[SystemConfig, Dict[GridKey, RunResult]]] = []
    for cell in expand_cells(dict(GRIDS[name], scale=scale, seed=seed)):
        if not points or points[-1][0] is not cell.config:
            points.append((cell.config, {}))
        points[-1][1][(cell.scheme, cell.workload)] = run_one(
            *cell, lab=lab
        )
    return points


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for normalized ratios)."""
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
