"""Grid files: declarative campaign definitions over spec axes.

A grid is a small JSON document describing a cartesian product of lab
cells. The bench grids re-express the paper's evaluation sweeps
(Figs. 10-14, Table II of EXPERIMENTS.md) as cacheable cell sets; fuzz
grids express a seeded crash-consistency campaign as individually
resumable jobs.

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
import itertools
import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.config import require_int
from repro.errors import ConfigError
from repro.lab.spec import RunSpec, bench_spec, canonical_json, fuzz_spec
from repro.schemes import SIT_SCHEMES
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec

PathLike = Union[str, Path]

BENCH_AXES = ("adr_bitmap_lines", "bitmap_fanout",
              "metadata_cache_bytes")

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


# ----------------------------------------------------------------------
# built-in grids (the paper's sweeps as lab campaigns)
# ----------------------------------------------------------------------
def _paper_grid(scale: str) -> Dict:
    return {
        "name": "paper-%s" % scale,
        "kind": "bench",
        "scale": scale,
        "schemes": ["wb", "strict", "anubis", "star"],
        "workloads": list(ALL_WORKLOADS),
        "seed": 42,
    }


BUILTIN_GRIDS: Dict[str, Dict] = {
    # the shared scheme x workload grid behind Figs. 10-13 and 14(a)
    "paper": _paper_grid("default"),
    "paper-smoke": _paper_grid("smoke"),
    # Table II: ADR bitmap-line hit ratio vs lines held in ADR
    "table2": {
        "name": "table2",
        "kind": "bench",
        "scale": "default",
        "schemes": ["star"],
        "workloads": list(ALL_WORKLOADS),
        "seed": 42,
        "bitmap_fanout": 64,
        "axes": {"adr_bitmap_lines": [2, 4, 8, 16, 32]},
    },
    # Fig. 14(b): recovery time vs metadata cache size
    "fig14b": {
        "name": "fig14b",
        "kind": "bench",
        "scale": "default",
        "schemes": ["star", "anubis"],
        "workloads": ["hash"],
        "seed": 42,
        "crash_and_recover": True,
        "axes": {"metadata_cache_bytes": [4096, 8192, 16384, 32768]},
    },
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
def _names(grid: Dict, key: str, known: Iterable[str],
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


def _expand_bench(grid: Dict) -> List[RunSpec]:
    from repro.bench.runner import SCALES, config_for_scale

    scale = grid.get("scale", "default")
    if scale not in SCALES:
        raise ConfigError("unknown scale %r" % (scale,))
    spec_scale = SCALES[scale]
    schemes = _names(grid, "schemes", SIT_SCHEMES, ["star"])
    workloads = _names(grid, "workloads", ALL_WORKLOADS, ["hash"])
    seed = grid.get("seed", 42)
    crash = grid.get("crash_and_recover", False)
    if not isinstance(crash, bool):
        raise ConfigError("crash_and_recover must be true or false, "
                          "got %r" % (crash,))
    metrics = grid.get("metrics", [])
    if not (isinstance(metrics, list)
            and all(isinstance(prefix, str) for prefix in metrics)):
        raise ConfigError("metrics must be a list of counter-name "
                          "prefixes, got %r" % (metrics,))
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
    axis_values = [axes[key] for key in axis_keys]
    combos = (
        list(itertools.product(*axis_values)) if axis_keys else [()]
    )

    specs: List[RunSpec] = []
    for combo in combos:
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
                "operations", spec_scale.operations_for(workload)
            )
            # the cell's trace, checked before any cell runs
            TraceSpec(workload, config.num_data_lines, operations, seed)
            for scheme in schemes:
                specs.append(bench_spec(
                    config, scheme, workload, operations, seed=seed,
                    crash_and_recover=crash, metrics=tuple(metrics),
                ))
    return specs


def _expand_fuzz(grid: Dict) -> List[RunSpec]:
    from repro.fuzz.sampling import CampaignSpec, sample_cases

    defaults = CampaignSpec()
    campaign = CampaignSpec(
        cases=grid.get("cases", defaults.cases),
        seed=grid.get("seed", defaults.seed),
        schemes=_names(grid, "schemes", SIT_SCHEMES, defaults.schemes),
        workloads=_names(grid, "workloads", ALL_WORKLOADS,
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
