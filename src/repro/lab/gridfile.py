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
from typing import Dict, List, Union

from repro.errors import ConfigError
from repro.lab.spec import RunSpec, bench_spec, canonical_json, fuzz_spec
from repro.schemes import SIT_SCHEMES
from repro.workloads.registry import ALL_WORKLOADS

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
def _expand_bench(grid: Dict) -> List[RunSpec]:
    from repro.bench.runner import SCALES, config_for_scale

    scale = grid.get("scale", "default")
    if scale not in SCALES:
        raise ConfigError("grid %r: unknown scale %r"
                          % (grid.get("name"), scale))
    spec_scale = SCALES[scale]
    schemes = grid.get("schemes") or ["star"]
    workloads = grid.get("workloads") or ["hash"]
    for label, names, known in (("scheme", schemes, SIT_SCHEMES),
                                ("workload", workloads, ALL_WORKLOADS)):
        for name in sorted(set(names) - set(known)):
            raise ConfigError("grid %r: unknown %s %r (choose from %s)"
                              % (grid.get("name"), label, name,
                                 ", ".join(sorted(known))))
    seed = grid.get("seed", 42)
    crash = bool(grid.get("crash_and_recover", False))
    metrics = tuple(grid.get("metrics", ()))
    axes = dict(grid.get("axes", {}))
    for key in axes:
        if key not in BENCH_AXES:
            raise ConfigError(
                "grid %r: unknown axis %r (choose from %s)"
                % (grid.get("name"), key, ", ".join(BENCH_AXES))
            )
    axis_keys = sorted(axes)
    axis_values = [list(axes[key]) for key in axis_keys]
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
            for scheme in schemes:
                specs.append(bench_spec(
                    config, scheme, workload, operations, seed=seed,
                    crash_and_recover=crash, metrics=metrics,
                ))
    return specs


def _expand_fuzz(grid: Dict) -> List[RunSpec]:
    from repro.fuzz.sampling import CampaignSpec, sample_cases

    campaign = CampaignSpec(
        cases=grid.get("cases", 32),
        seed=grid.get("seed", 0),
        schemes=list(grid.get("schemes")
                     or CampaignSpec().schemes),
        workloads=list(grid.get("workloads")
                       or CampaignSpec().workloads),
        min_operations=grid.get("min_operations", 40),
        max_operations=grid.get("max_operations", 160),
        attack_rate=grid.get("attack_rate", 0.5),
    )
    return [fuzz_spec(case) for case in sample_cases(campaign)]


def expand(grid: Dict) -> List[RunSpec]:
    """The grid's ordered, deterministic spec list."""
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
    if kind == "bench":
        return _expand_bench(grid)
    return _expand_fuzz(grid)


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
