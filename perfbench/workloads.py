"""The benchmark's three workloads, each driven through public entry
points of the ``repro`` package at a given seed.

Every workload is a closed loop with one client: a *unit* is one
complete job (regenerate the paper's tables, run a fuzz campaign, run a
farm campaign), its cells run back to back, and the next unit starts
when the previous one ends. Each cell starts with empty modelled caches,
as ``run_one`` and ``run_case`` build them.

``setup()`` does the imports and builds the inputs (case sampling, grid
expansion); ``run_unit()`` is the timed job and returns a :class:`Unit`
with one digest per cell and the cells that broke a seed-independent
output invariant. ``unit_s`` is a unit's nominal host time on the
two-CPU development host at the seed commit; it only sets how many
units a run of a given length makes, so the count never depends on how
fast the code under test is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Set

NIGHTLY_GRID = Path(__file__).resolve().parent.parent / "grids" / \
    "fuzz_nightly.json"

SIZES = {
    # cells per unit; "small" is the self-check's reduced size
    "paper_tables": {"full": "default", "small": "smoke"},
    "fuzz_crash": {"full": 240, "small": 48},
    "farm_churn": {"full": 96, "small": 32},
}

FUZZ_ATTACK_RATE = 0.6
FARM_DEAD_SHARE = 8
"""A dead owner holds 1/8 of the farm's cells."""
FARM_DEAD_LEASE_S = 1.0
"""Short enough to expire while the worker is still busy with the other
7/8, so every unit steals without idle waiting."""


@dataclasses.dataclass
class Unit:
    """What one timed job produced."""

    digests: List[str]
    failed: Set[int] = dataclasses.field(default_factory=set)
    """Indices of cells whose output broke an invariant."""
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.digests)


def digest(payload: object) -> str:
    """A short content hash of a JSON-serializable cell output."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()[:16]


class PaperTables:
    """``run_all`` on the default scalar pipeline, telemetry on."""

    name = "paper_tables"
    unit_s = 11.5

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = SIZES[self.name][size]

    def setup(self) -> None:
        from repro.bench import runner

        runner.config_for_scale(self.scale)

    def run_unit(self) -> Unit:
        from repro.bench import experiments, runner

        results = []
        original = runner.run_one

        # record every cell's RunResult; run_grid reads the runner's
        # global, Table II and Fig. 14(b) the name experiments imported
        def run_one(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        runner.run_one = experiments.run_one = run_one
        try:
            tables = experiments.run_all(scale=self.scale, seed=self.seed)
        finally:
            runner.run_one = experiments.run_one = original
        unit = Unit(digests=[digest(_run_result_output(result))
                             for result in results])
        unit.failed = {
            index for index, result in enumerate(results)
            if result.recovery is not None and not result.recovery.verified
        }
        unit.extra["paper_err"] = paper_err(tables)
        return unit


def _run_result_output(result) -> Dict:
    recovery = None
    if result.recovery is not None:
        recovery = dataclasses.asdict(result.recovery)
        recovery.pop("restored")
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "stats": result.stats,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "recovery": recovery,
    }


def paper_err(tables) -> float:
    """Mean relative error of the reproduced values against the paper
    values ``repro.bench.experiments`` carries (the model's only
    reference: it is checked against the paper, never hardware)."""
    from repro.bench import experiments

    by_id = {table.experiment_id: table for table in tables}
    pairs = []
    for table_id, paper in (("Fig. 11", experiments.PAPER_FIG11),
                            ("Fig. 12", experiments.PAPER_FIG12),
                            ("Fig. 13", experiments.PAPER_FIG13)):
        gmean = _row(by_id[table_id], "workload", "gmean")
        pairs += [(gmean[scheme], value) for scheme, value in paper.items()]
    for row in by_id["Table II"].rows:
        pairs.append((row["hit_ratio"],
                      experiments.PAPER_TABLE2[row["adr_lines"]]))
    average = _row(by_id["Fig. 14(a)"], "workload", "average")
    pairs.append((average["dirty_fraction"],
                  experiments.PAPER_FIG14A_DIRTY))
    return sum(abs(ours - paper) / paper for ours, paper in pairs) / len(pairs)


def _row(table, column: str, value: str) -> Dict:
    return next(row for row in table.rows if row[column] == value)


class FuzzCrash:
    """A serial ``star-fuzz run`` campaign over all five schemes."""

    name = "fuzz_crash"
    unit_s = 1.8

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cases = SIZES[self.name][size]

    def setup(self) -> None:
        # imported in set-up so the first timed unit does not pay for it
        from repro.fuzz import executor  # noqa: F401
        from repro.fuzz.sampling import CampaignSpec, sample_cases

        self.spec = CampaignSpec(cases=self.cases, seed=self.seed,
                                 attack_rate=FUZZ_ATTACK_RATE)
        sample_cases(self.spec)

    def run_unit(self) -> Unit:
        from repro.fuzz.executor import run_campaign

        results = run_campaign(self.spec, jobs=1).results
        unit = Unit(digests=[digest(result.to_dict())
                             for result in results])
        unit.failed = {index for index, result in enumerate(results)
                       if result.failed}
        return unit


class FarmChurn:
    """An in-process farm campaign with ``star-lab work`` defaults.

    A coordinator seeds a fresh board and store with
    ``grids/fuzz_nightly.json`` at the run's seed and this workload's
    case count; a dead owner holds 1/8 of the cells on a short lease;
    one worker (one inline shard, heartbeats on, file transport) works
    the board until it is empty, stealing the dead owner's cells; the
    coordinator merges and exports.
    """

    name = "farm_churn"
    unit_s = 2.1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cases = SIZES[self.name][size]
        self.workdir = workdir
        self._units = 0

    def setup(self) -> None:
        # imported in set-up so the first timed unit does not pay for it
        from repro.lab import farm  # noqa: F401
        from repro.lab.gridfile import expand, load_grid

        self.grid = load_grid(NIGHTLY_GRID)
        self.grid.update(name="perfbench-farm", cases=self.cases,
                         seed=self.seed)
        self.specs = expand(self.grid)

    def run_unit(self) -> Unit:
        from repro.lab import farm
        from repro.lab.lease import LeaseBoard
        from repro.lab.store import ResultStore
        from repro.util.stats import Stats

        specs = self.specs
        # every unit gets fresh directories; they are removed when the
        # run ends, because deleting files between units made the next
        # unit's SQLite commits wait on the filesystem's discards
        unit_dir = self.workdir / ("farm-%d" % self._units)
        self._units += 1
        farm_dir = unit_dir / "farm"
        store = ResultStore(unit_dir / "store",
                            stats=Stats(enabled=True))
        coordinator = farm.Coordinator(store, farm_dir)
        try:
            coordinator.prepare(specs, name=self.grid["name"])
            with LeaseBoard(farm.board_path(farm_dir)) as board:
                board.claim("dead-worker", FARM_DEAD_LEASE_S,
                            limit=len(specs) // FARM_DEAD_SHARE)
            clock = _idle_clock()
            summary = farm.Worker(farm_dir, "w0", clock=clock).run()
            coordinator.run(specs, name=self.grid["name"])
            states = {row["spec_hash"]: row["state"]
                      for row in coordinator.board.rows()}
        finally:
            coordinator.close()
        try:
            entries = store.export()
        finally:
            store.close()
        export = json.dumps(entries, indent=2, sort_keys=True) + "\n"
        exported = {entry["spec_hash"]: entry for entry in entries}
        hashes = sorted(spec.spec_hash for spec in specs)
        unit = Unit(digests=[digest(exported.get(spec_hash))
                             for spec_hash in hashes])
        unit.failed = {
            index for index, spec_hash in enumerate(hashes)
            if states.get(spec_hash) != "done"
            or spec_hash not in exported
            or exported[spec_hash]["result"]["failed"]
        }
        unit.extra["export_digest"] = hashlib.sha256(
            export.encode("ascii")).hexdigest()[:16]
        unit.extra["stolen"] = summary["stolen"]
        unit.extra["idle_s"] = clock.idle_s
        return unit


def _idle_clock():
    """A real clock that adds up the worker's idle sleeps. (Lab classes
    are subclassed on first use so the other workloads' set-up does not
    import the lab.)"""
    from repro.lab.clock import Clock

    class IdleClock(Clock):
        idle_s = 0.0

        def sleep(self, seconds: float) -> None:
            start = self.now()
            super().sleep(seconds)
            self.idle_s += self.now() - start

    return IdleClock()


WORKLOADS = {cls.name: cls for cls in (PaperTables, FuzzCrash, FarmChurn)}
