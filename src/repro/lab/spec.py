"""Declarative run specifications with canonical content hashes.

A :class:`RunSpec` fully determines one lab cell: the machine
configuration, the persistence scheme, the workload and its seed, the
crash behaviour and (for fuzz jobs) the sampled case parameters. Its
``spec_hash`` is a SHA-256 over a canonical JSON encoding — sorted
keys, no whitespace variance, schema-versioned — so the same
computation always lands on the same store key, across processes and
platforms, and *any* semantic change (one more operation, a different
ADR budget) lands on a different one.

``canonical_config`` / ``config_from_canonical`` round-trip a full
:class:`~repro.config.SystemConfig` through plain JSON data, which
keeps specs self-contained: a resumed campaign rebuilds its machines
from the journal alone. Canonical configs also carry the retired keys
(:data:`RETIRED_CONFIG_KEYS`): settings that became model constants,
held at the values every spec was hashed with.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.config import CacheConfig, StarConfig, SystemConfig
from repro.errors import ConfigError
from repro.workloads.registry import check_trace_fields

if TYPE_CHECKING:
    from repro.fuzz.sampling import FuzzCase

SCHEMA_VERSION = 1
"""Bumping this invalidates every cached cell (the version is hashed)."""

_RETIRED_CACHE_KEYS = {"line_size": 64}

RETIRED_CONFIG_KEYS: Dict[str, Any] = {
    "device_timing": False,
    "device_banks": 8,
    "device_row_lines": 32,
    "recovery_line_access_ns": 100.0,
    "nvm": {
        "t_rcd_ns": 48.0, "t_cl_ns": 15.0, "t_cwd_ns": 13.0,
        "t_faw_ns": 50.0, "t_wtr_ns": 7.5, "t_wr_ns": 300.0,
        "read_energy_nj": 0.5, "write_energy_nj": 2.5,
        "static_power_w": 0.002,
    },
    "cpu": {
        "cores": 8, "freq_ghz": 2.0, "base_cpi": 1.0,
        "write_queue_entries": 32, "write_ports": 1, "sfence_ns": 10.0,
    },
    "star": {
        "cache_tree_arity": 8, "lsb_bits": 10,
        "counter_flush_threshold": 1023,
    },
    "metadata_cache": _RETIRED_CACHE_KEYS,
    "llc": _RETIRED_CACHE_KEYS,
    "l2": _RETIRED_CACHE_KEYS,
    "l1": _RETIRED_CACHE_KEYS,
}
"""Config keys that are gone, at the value and JSON type every
canonical config was hashed with, so no spec hash moves: the deleted
bank-level timing model's, and the settings that became model
constants (PCM and core timings, PCM energies, LSB width, cache-tree
arity, flush threshold, line size, recovery line-access cost). A
nested table fills its section; an absent L1 or L2 carries none."""

KINDS = ("bench", "fuzz")


def canonical_json(payload: object) -> str:
    """The one true JSON encoding used for hashing and digests."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_config(config: SystemConfig) -> Dict:
    """A ``SystemConfig`` as plain, JSON-safe, order-stable data."""
    payload = asdict(config)
    payload["crypto_key"] = config.crypto_key.hex()
    for key, value in RETIRED_CONFIG_KEYS.items():
        if not isinstance(value, dict):
            payload[key] = value
        elif key not in payload:
            payload[key] = dict(value)
        elif payload[key] is not None:
            payload[key].update(value)
    return payload


def _require_equal(expected: Dict, found: Dict, prefix: str = "") -> None:
    """Refuse ``found`` unless it equals ``expected`` key for key, at
    the same JSON types, naming the first key that differs."""
    for key in sorted(set(expected) | set(found)):
        name = prefix + key
        if key not in found:
            raise ConfigError("canonical config lacks %s" % name)
        if key not in expected:
            raise ConfigError("canonical config has unknown key %s" % name)
        want, got = expected[key], found[key]
        if isinstance(want, dict) and isinstance(got, dict):
            _require_equal(want, got, name + ".")
        elif type(want) is not type(got) or want != got:
            raise ConfigError(
                "canonical config %s is %r; only %r can be rebuilt"
                % (name, got, want)
            )


def config_from_canonical(payload: Dict) -> SystemConfig:
    """Rebuild the exact ``SystemConfig`` a canonical dict came from.

    A payload that is not exactly that config's canonical form is
    refused: above all, a retired key at another value describes a
    machine the model no longer builds.
    """

    def build(cls: Any, entry: Dict) -> Any:
        return cls(**{name: entry[name]
                      for name in cls.__dataclass_fields__})

    def cache(entry: Optional[Dict]) -> Optional[CacheConfig]:
        return None if entry is None else build(CacheConfig, entry)

    try:
        config = SystemConfig(
            memory_bytes=payload["memory_bytes"],
            metadata_cache=build(CacheConfig, payload["metadata_cache"]),
            llc=build(CacheConfig, payload["llc"]),
            l2=cache(payload.get("l2")),
            l1=cache(payload.get("l1")),
            star=build(StarConfig, payload["star"]),
            crypto_key=bytes.fromhex(payload["crypto_key"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            "malformed canonical config: %s" % exc
        ) from None
    _require_equal(canonical_config(config), payload)
    return config


def _copy_data(value: Any) -> Any:
    """Deep copy of JSON-shaped data, keeping container types as
    :func:`dataclasses.asdict` does (scalars are immutable)."""
    if isinstance(value, dict):
        return type(value)((key, _copy_data(item))
                           for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return type(value)(_copy_data(item) for item in value)
    if isinstance(value, (str, int, float, type(None))):
        return value
    return copy.deepcopy(value)


def config_digest(config: SystemConfig) -> str:
    """Short content digest of a configuration (provenance field)."""
    encoded = canonical_json(canonical_config(config)).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined lab cell.

    ``kind`` selects the executor: ``"bench"`` runs one scheme/workload
    simulation (optionally crash + recover), ``"fuzz"`` runs one
    crash-consistency fuzz case whose sampled parameters live in
    ``params``. ``metrics`` optionally narrows which stats counters the
    result record keeps (empty tuple = all of them).
    """

    kind: str
    scheme: str
    workload: str
    operations: int
    seed: int
    config: Dict
    crash_and_recover: bool = False
    params: Dict = field(default_factory=dict)
    metrics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                "unknown spec kind %r (choose from %s)"
                % (self.kind, ", ".join(KINDS))
            )
        check_trace_fields(self.workload, self.operations, self.seed)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical(self) -> Dict:
        """The hashed identity of this spec (includes the schema)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "operations": self.operations,
            "seed": self.seed,
            "config": self.config,
            "crash_and_recover": self.crash_and_recover,
            "params": self.params,
            "metrics": list(self.metrics),
        }

    @property
    def spec_hash(self) -> str:
        encoded = canonical_json(self.canonical()).encode("ascii")
        return hashlib.sha256(encoded).hexdigest()

    @property
    def label(self) -> str:
        """Short human handle used in tables and progress lines."""
        return "%s:%s/%s@%d" % (
            self.kind, self.scheme, self.workload, self.seed
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The spec as plain data: the :func:`dataclasses.asdict` keys
        and values (``metrics`` as a list), deep-copied, built directly
        because journals and blobs serialize every spec they hold."""
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "operations": self.operations,
            "seed": self.seed,
            "config": _copy_data(self.config),
            "crash_and_recover": self.crash_and_recover,
            "params": _copy_data(self.params),
            "metrics": list(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        fields = {
            key: payload[key]
            for key in cls.__dataclass_fields__
            if key in payload
        }
        fields["metrics"] = tuple(fields.get("metrics", ()))
        return cls(**fields)

    def system_config(self) -> SystemConfig:
        return config_from_canonical(self.config)


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def bench_spec(config: SystemConfig, scheme: str, workload: str,
               operations: int, seed: int = 42,
               crash_and_recover: bool = False,
               metrics: Tuple[str, ...] = ()) -> RunSpec:
    """The spec of one figure/table cell (`repro.bench.runner.run_one`)."""
    return RunSpec(
        kind="bench",
        scheme=scheme,
        workload=workload,
        operations=operations,
        seed=seed,
        config=canonical_config(config),
        crash_and_recover=crash_and_recover,
        metrics=tuple(metrics),
    )


def fuzz_spec(case: "FuzzCase",
              config: Optional[SystemConfig] = None) -> RunSpec:
    """The spec of one fuzz case (crash fractions ride in ``params``).

    ``case`` is a :class:`repro.fuzz.sampling.FuzzCase`; the machine is
    the fixed campaign config
    (:func:`repro.fuzz.executor.campaign_config`) unless overridden.
    """
    if config is None:
        from repro.fuzz.executor import campaign_config

        config = campaign_config()
    return RunSpec(
        kind="fuzz",
        scheme=case.scheme,
        workload=case.workload,
        operations=case.operations,
        seed=case.seed,
        config=canonical_config(config),
        crash_and_recover=True,
        params={
            "index": case.index,
            "crash_frac": case.crash_frac,
            "prepare_frac": case.prepare_frac,
            "attack": case.attack,
            "attack_seed": case.attack_seed,
        },
    )
