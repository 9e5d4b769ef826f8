"""System configuration (the paper's Table I, made programmable).

A :class:`SystemConfig` holds what a run varies: NVM capacity, the CPU
cache and security-metadata cache geometries, and STAR's ADR budget and
bitmap fanout. What the paper fixes is a constant: the line size, SIT
arity and MAC/LSB bit widths here, the PCM and core timings in
:mod:`repro.sim.timing` and the PCM energies in :mod:`repro.sim.energy`.

Two factory functions cover the common cases:

* :func:`paper_config` — the configuration of Table I (16 GB PCM, 512 KB
  metadata cache, 16 bitmap lines). Structural parameters are exact; the
  simulated *touched* footprint is sparse so this is cheap to hold.
* :func:`small_config` — a scaled-down machine for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError

LINE_SIZE = 64
"""Bytes per memory line; everything in the paper is 64B-granular."""

TREE_ARITY = 8
"""SIT fanout: 8 counters per node, 8 children per node."""

COUNTER_BITS = 56
"""Width of each of the eight per-node counters."""

MAC_FIELD_BITS = 64
"""Total MAC field width in a node or data line."""

MAC_BITS = 54
"""Effective MAC width; 54-bit MACs are safe (Morphable Counters)."""

LSB_BITS = MAC_FIELD_BITS - MAC_BITS
"""Spare bits in the MAC field used for the parent-counter LSBs (10)."""

BITMAP_FANOUT = LINE_SIZE * 8
"""Lines covered by one bitmap line: 512 bits -> 512 metadata lines."""

LINE_ACCESS_NS = 100.0
"""The per-64B-line NVM access cost the paper assumes for recovery time
(Section IV-F): measured and projected recovery both charge it."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def require_int(name: str, value: object,
                minimum: Optional[int] = None) -> int:
    """``value`` if it is an ``int`` (never a ``bool``) no smaller than
    ``minimum``; anything else is a :class:`ConfigError` naming ``name``.

    JSON grids and journals carry numbers untyped: ``2.5``, ``"many"``
    or ``true`` must fail here, not deep in the simulator or under a
    spec hash of their own.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if minimum is not None and value < minimum:
        raise ConfigError("%s must be at least %d, got %d"
                          % (name, minimum, value))
    return value


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    ways: int

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache must have at least one way")
        _require(
            self.size_bytes % (self.ways * LINE_SIZE) == 0,
            "cache size must be a multiple of ways * line size",
        )
        _require(
            _is_power_of_two(self.num_sets),
            "number of cache sets must be a power of two, got %d"
            % self.num_sets,
        )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_SIZE

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * LINE_SIZE)


@dataclass(frozen=True)
class StarConfig:
    """Parameters specific to the STAR mechanisms."""

    adr_bitmap_lines: int = 16
    bitmap_fanout: int = BITMAP_FANOUT

    def __post_init__(self) -> None:
        _require(self.adr_bitmap_lines >= 1, "need at least one ADR line")
        _require(self.bitmap_fanout > 1, "bitmap fanout must exceed 1")


@dataclass(frozen=True)
class SystemConfig:
    """The full machine: NVM, CPU caches, metadata cache and STAR knobs."""

    memory_bytes: int
    metadata_cache: CacheConfig
    llc: CacheConfig
    l2: CacheConfig = None  # type: ignore[assignment]
    l1: CacheConfig = None  # type: ignore[assignment]
    star: StarConfig = field(default_factory=StarConfig)
    crypto_key: bytes = b"star-reproduction-key"

    def __post_init__(self) -> None:
        _require(self.memory_bytes >= LINE_SIZE * TREE_ARITY,
                 "memory must hold at least one counter block of data")
        _require(self.memory_bytes % LINE_SIZE == 0,
                 "memory size must be line aligned")

    @property
    def num_data_lines(self) -> int:
        return self.memory_bytes // LINE_SIZE

    def with_metadata_cache_bytes(self, size_bytes: int) -> "SystemConfig":
        """A copy with a resized metadata cache (for sweeps, Fig. 14)."""
        new_cache = replace(self.metadata_cache, size_bytes=size_bytes)
        return replace(self, metadata_cache=new_cache)

    def with_adr_lines(self, lines: int) -> "SystemConfig":
        """A copy with a different ADR bitmap-line budget (Table II)."""
        return replace(self, star=replace(self.star, adr_bitmap_lines=lines))


def paper_config() -> SystemConfig:
    """The Table I configuration of the paper.

    16 GB PCM main memory, 64 KB/512 KB/4 MB L1/L2/L3, a 512 KB 8-way
    metadata cache in the memory controller and 16 bitmap lines in ADR.
    """
    return SystemConfig(
        memory_bytes=16 * 1024 ** 3,
        metadata_cache=CacheConfig(size_bytes=512 * 1024, ways=8),
        llc=CacheConfig(size_bytes=4 * 1024 ** 2, ways=8),
        l2=CacheConfig(size_bytes=512 * 1024, ways=8),
        l1=CacheConfig(size_bytes=64 * 1024, ways=2),
    )


def sim_config(
    memory_bytes: int = 64 * 1024 ** 2,
    metadata_cache_bytes: int = 64 * 1024,
    llc_bytes: int = 512 * 1024,
    adr_bitmap_lines: int = 16,
    bitmap_fanout: int = 64,
) -> SystemConfig:
    """A scaled machine whose *ratios* match the paper.

    The paper simulates 16 GB of PCM with a 512 KB metadata cache. Holding
    a trace that pressures a 512 KB metadata cache is slow in pure Python,
    so experiments default to a proportionally scaled machine. All
    mechanisms (tree height, bitmap layers, ADR pressure) are derived from
    these sizes, and the reported metrics are ratios, which are preserved
    under scaling.

    ``bitmap_fanout`` scales with the machine: hardware bitmap lines hold
    512 bits, covering 32 KB of metadata each; at 1/256-scale memory a
    64-bit coverage per line reproduces the same ratio of bitmap lines to
    live metadata, hence the same ADR pressure as the paper's Table II.
    """
    return SystemConfig(
        memory_bytes=memory_bytes,
        metadata_cache=CacheConfig(size_bytes=metadata_cache_bytes, ways=8),
        llc=CacheConfig(size_bytes=llc_bytes, ways=8),
        star=StarConfig(
            adr_bitmap_lines=adr_bitmap_lines,
            bitmap_fanout=bitmap_fanout,
        ),
    )


def small_config(
    memory_bytes: int = 1024 * 1024,
    metadata_cache_bytes: int = 4 * 1024,
    llc_bytes: int = 16 * 1024,
    adr_bitmap_lines: int = 4,
) -> SystemConfig:
    """A tiny machine for unit tests: deep evictions with short traces."""
    return SystemConfig(
        memory_bytes=memory_bytes,
        metadata_cache=CacheConfig(size_bytes=metadata_cache_bytes, ways=4),
        llc=CacheConfig(size_bytes=llc_bytes, ways=4),
        star=StarConfig(adr_bitmap_lines=adr_bitmap_lines),
    )
