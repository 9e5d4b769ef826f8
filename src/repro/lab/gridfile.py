"""Grid files: declarative campaign definitions over spec axes.

A grid is a small JSON document describing a cartesian product of lab
cells. The built-in bench grids are the cells of the paper's
evaluation (Figs. 10-14, Table II of EXPERIMENTS.md) and of the grid
sweeps: :data:`repro.bench.runner.GRIDS`, which ``star-bench`` expands
through the same :func:`~repro.bench.runner.expand_cells`, so a
campaign caches exactly a table's cells. Fuzz grids express a seeded
crash-consistency campaign as individually resumable jobs.

Bench grid::

    {"name": "table2", "kind": "bench", "scale": "default",
     "schemes": ["star"], "workloads": ["array", "hash"],
     "seed": 42, "crash_and_recover": false,
     "axes": {"adr_bitmap_lines": [2, 4, 8, 16, 32]},
     "bitmap_fanout": 64}

Recognized axes: ``adr_bitmap_lines``, ``bitmap_fanout`` and
``metadata_cache_bytes`` — the three structural sweeps the paper
performs. ``operations`` defaults to the scale's per-workload count.
Schemes and workloads must be registered names.

Fuzz grid::

    {"name": "fuzz-nightly", "kind": "fuzz", "cases": 64, "seed": 3,
     "schemes": ["star", "anubis"], "workloads": ["array", "hash"],
     "min_operations": 40, "max_operations": 160, "attack_rate": 0.5}

``expand`` turns either into an ordered, deterministic
:class:`~repro.lab.spec.RunSpec` list; ``campaign_id`` derives the
stable checkpoint identity of that list. A key the grid's kind never
reads is a :class:`~repro.errors.ConfigError`, so a misspelt key fails
before any cell runs instead of falling back to a default.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.bench.runner import GRIDS, expand_cells, grid_names
from repro.errors import ConfigError
from repro.lab.spec import RunSpec, bench_spec, canonical_json, fuzz_spec
from repro.schemes import SIT_SCHEMES
from repro.workloads.registry import ALL_WORKLOADS

PathLike = Union[str, Path]

GRID_KEYS = {
    "bench": frozenset({
        "name", "kind", "scale", "schemes", "workloads", "seed",
        "crash_and_recover", "metrics", "axes", "operations",
        "adr_bitmap_lines", "bitmap_fanout",
    }),
    "fuzz": frozenset({
        "name", "kind", "cases", "seed", "schemes", "workloads",
        "min_operations", "max_operations", "attack_rate",
    }),
}
"""The keys each kind of grid reads."""


BUILTIN_GRIDS: Dict[str, Dict] = {
    # every bench table's grid (:data:`repro.bench.runner.GRIDS`)
    **GRIDS,
    # a seeded fuzz campaign as resumable lab jobs
    "fuzz-smoke": {
        "name": "fuzz-smoke",
        "kind": "fuzz",
        "cases": 16,
        "seed": 1,
        "schemes": ["anubis", "phoenix", "star"],
        "workloads": ["array", "hash", "queue"],
        "attack_rate": 0.5,
    },
}


def load_grid(name_or_path: PathLike) -> Dict:
    """A grid by built-in name or JSON file path."""
    key = str(name_or_path)
    if key in BUILTIN_GRIDS:
        return dict(BUILTIN_GRIDS[key])
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(
            "no grid named %r (built-ins: %s) and no such file"
            % (key, ", ".join(sorted(BUILTIN_GRIDS)))
        )
    with open(path) as handle:
        try:
            grid = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("grid %s: %s" % (path, exc)) from None
    if not isinstance(grid, dict):
        raise ConfigError("grid %s: not a JSON object" % path)
    grid.setdefault("name", path.stem)
    return grid


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
def _expand_bench(grid: Dict) -> List[RunSpec]:
    metrics = grid.get("metrics", [])
    if not (isinstance(metrics, list)
            and all(isinstance(prefix, str) for prefix in metrics)):
        raise ConfigError("metrics must be a list of counter-name "
                          "prefixes, got %r" % (metrics,))
    return [bench_spec(*cell, metrics=tuple(metrics))
            for cell in expand_cells(grid)]


def _expand_fuzz(grid: Dict) -> List[RunSpec]:
    from repro.fuzz.sampling import CampaignSpec, sample_cases

    defaults = CampaignSpec()
    campaign = CampaignSpec(
        cases=grid.get("cases", defaults.cases),
        seed=grid.get("seed", defaults.seed),
        schemes=grid_names(grid, "schemes", SIT_SCHEMES,
                           defaults.schemes),
        workloads=grid_names(grid, "workloads", ALL_WORKLOADS,
                             defaults.workloads),
        min_operations=grid.get("min_operations",
                                defaults.min_operations),
        max_operations=grid.get("max_operations",
                                defaults.max_operations),
        attack_rate=grid.get("attack_rate", defaults.attack_rate),
    )
    return [fuzz_spec(case) for case in sample_cases(campaign)]


def expand(grid: Dict) -> List[RunSpec]:
    """The grid's ordered, deterministic spec list.

    Every value is checked here, before any cell runs; a bad one is a
    :class:`ConfigError` naming the grid.
    """
    kind = grid.get("kind", "bench")
    if kind not in GRID_KEYS:
        raise ConfigError("grid %r: unknown kind %r"
                          % (grid.get("name"), kind))
    unknown = sorted(set(grid) - GRID_KEYS[kind])
    if unknown:
        raise ConfigError(
            "grid %r: unknown key %s (a %s grid reads %s)"
            % (grid.get("name"), ", ".join(map(repr, unknown)), kind,
               ", ".join(sorted(GRID_KEYS[kind])))
        )
    try:
        if kind == "bench":
            return _expand_bench(grid)
        return _expand_fuzz(grid)
    except ConfigError as exc:
        raise ConfigError("grid %r: %s" % (grid.get("name"), exc)) from None


def campaign_id(specs: List[RunSpec]) -> str:
    """Stable identity of a spec list (the checkpoint/journal key)."""
    encoded = canonical_json(
        sorted(spec.spec_hash for spec in specs)
    ).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:12]


def resolve_specs(grid_names: List[PathLike]) -> List[RunSpec]:
    """Expand several grids into one deduplicated spec list."""
    specs: List[RunSpec] = []
    seen = set()
    for name in grid_names:
        for spec in expand(load_grid(name)):
            if spec.spec_hash in seen:
                continue
            seen.add(spec.spec_hash)
            specs.append(spec)
    return specs
