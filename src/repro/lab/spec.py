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
from the journal alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.config import (
    CacheConfig,
    CPUConfig,
    NVMTimings,
    StarConfig,
    SystemConfig,
)
from repro.errors import ConfigError
from repro.workloads.registry import check_trace_fields

if TYPE_CHECKING:
    from repro.fuzz.sampling import FuzzCase

SCHEMA_VERSION = 1
"""Bumping this invalidates every cached cell (the version is hashed)."""

RETIRED_CONFIG_KEYS = {
    "device_timing": False,
    "device_banks": 8,
    "device_row_lines": 32,
}
"""Keys of the deleted bank-level timing model, held at the defaults
every canonical config was hashed with, so no spec hash moves. A
config with other values described a banked machine, which can no
longer be rebuilt."""

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
    payload.update(RETIRED_CONFIG_KEYS)
    return payload


def config_from_canonical(payload: Dict) -> SystemConfig:
    """Rebuild the exact ``SystemConfig`` a canonical dict came from."""
    data = dict(payload)
    for key, value in RETIRED_CONFIG_KEYS.items():
        found = data.get(key)
        if found != value:
            raise ConfigError(
                "canonical config %s is %r; only %r can be rebuilt "
                "(the bank-level timing model is gone)"
                % (key, found, value)
            )

    def cache(entry: Optional[Dict]) -> Optional[CacheConfig]:
        return None if entry is None else CacheConfig(**entry)

    try:
        return SystemConfig(
            memory_bytes=data["memory_bytes"],
            metadata_cache=cache(data["metadata_cache"]),
            llc=cache(data["llc"]),
            l2=cache(data.get("l2")),
            l1=cache(data.get("l1")),
            nvm=NVMTimings(**data["nvm"]),
            cpu=CPUConfig(**data["cpu"]),
            star=StarConfig(**data["star"]),
            recovery_line_access_ns=data["recovery_line_access_ns"],
            crypto_key=bytes.fromhex(data["crypto_key"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            "malformed canonical config: %s" % exc
        ) from None


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
