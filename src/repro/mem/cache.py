"""A generic set-associative, write-back cache model.

One implementation serves three users:

* the CPU cache hierarchy (L1/L2/L3) — payloads are ``None``; only
  presence and dirtiness matter,
* the security-metadata cache in the memory controller — payloads are
  :class:`~repro.tree.node.CachedNode` objects,
* unit tests, which exercise it directly against a reference model.

Replacement is LRU within a set. Lines can be *pinned* for the duration
of a controller operation: evicting a dirty metadata node requires its
parent to be fetched, and the fetch must not evict any node involved in
the ongoing cascade (Section III-B's persist path).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.config import CacheConfig
from repro.errors import ReproError


class CacheLine:
    """One resident line: its address, payload and dirty bit."""

    __slots__ = ("addr", "payload", "dirty")

    def __init__(self, addr: int, payload: object, dirty: bool) -> None:
        self.addr = addr
        self.payload = payload
        self.dirty = dirty

    def __repr__(self) -> str:
        return "CacheLine(addr=%d, dirty=%r)" % (self.addr, self.dirty)


class EvictionDeadlock(ReproError):
    """Every way of a set is pinned; the cascade cannot make progress."""


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address."""

    __slots__ = ("config", "name", "num_sets", "ways", "_sets",
                 "_pinned", "stats", "_resident", "_resident_gauge")

    def __init__(self, config: CacheConfig, name: str = "cache",
                 stats=None) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._pinned: Dict[int, int] = {}
        self.stats = stats
        """Optional :class:`~repro.util.stats.Stats`; when set, the
        ``<name>.resident_lines`` gauge tracks occupancy."""
        self._resident = 0
        # bound once: insert/remove run on every fill and eviction
        self._resident_gauge = (
            stats.registry.gauge("%s.resident_lines" % name)
            if stats is not None and stats.enabled else None
        )

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def set_index(self, addr: int) -> int:
        """The set an address maps to (line-granular modulo mapping).

        The methods below inline it: they run on every CPU and
        metadata-cache access."""
        return addr % self.num_sets

    # ------------------------------------------------------------------
    # lookup / insert / remove
    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or ``None``; refresh LRU on hit."""
        bucket = self._sets[addr % self.num_sets]
        line = bucket.get(addr)
        if line is not None and touch:
            bucket.move_to_end(addr)
        return line

    def __contains__(self, addr: int) -> bool:
        return addr in self._sets[addr % self.num_sets]

    def insert(self, addr: int, payload: object = None,
               dirty: bool = False) -> None:
        """Install a line. The set must have room (use ``victim_for``)."""
        bucket = self._sets[addr % self.num_sets]
        if addr in bucket:
            raise ReproError(
                "%s: line %d already resident" % (self.name, addr)
            )
        if len(bucket) >= self.ways:
            raise ReproError(
                "%s: inserting %d into a full set" % (self.name, addr)
            )
        bucket[addr] = CacheLine(addr, payload, dirty)
        self._resident += 1
        if self._resident_gauge is not None:
            self._resident_gauge.set(self._resident)

    def remove(self, addr: int) -> CacheLine:
        """Remove and return a resident line."""
        bucket = self._sets[addr % self.num_sets]
        line = bucket.pop(addr, None)
        if line is None:
            raise KeyError("%s: line %d not resident" % (self.name, addr))
        self._resident -= 1
        if self._resident_gauge is not None:
            self._resident_gauge.set(self._resident)
        return line

    def victim_for(self, addr: int) -> Optional[CacheLine]:
        """The line that must be evicted before ``addr`` can be inserted.

        Returns ``None`` when the set has a free way. Skips pinned lines;
        raises :class:`EvictionDeadlock` when all ways are pinned.
        """
        bucket = self._sets[addr % self.num_sets]
        if len(bucket) < self.ways:
            return None
        for line in bucket.values():  # LRU order: oldest first
            if line.addr not in self._pinned:
                return line
        raise EvictionDeadlock(
            "%s: all %d ways of set %d are pinned"
            % (self.name, self.ways, self.set_index(addr))
        )

    # ------------------------------------------------------------------
    # dirty-state management
    # ------------------------------------------------------------------
    def mark_dirty(self, addr: int) -> bool:
        """Set the dirty bit; returns True when the state *changed*."""
        line = self.lookup(addr, touch=False)
        if line is None:
            raise KeyError("%s: line %d not resident" % (self.name, addr))
        changed = not line.dirty
        line.dirty = True
        return changed

    def mark_clean(self, addr: int) -> bool:
        """Clear the dirty bit; returns True when the state *changed*."""
        line = self.lookup(addr, touch=False)
        if line is None:
            raise KeyError("%s: line %d not resident" % (self.name, addr))
        changed = line.dirty
        line.dirty = False
        return changed

    # ------------------------------------------------------------------
    # pinning (persist-cascade safety; refcounted so nested scopes can
    # pin the same line independently)
    # ------------------------------------------------------------------
    def pin(self, addr: int) -> None:
        self._pinned[addr] = self._pinned.get(addr, 0) + 1

    def unpin(self, addr: int) -> None:
        count = self._pinned.get(addr, 0)
        if count <= 1:
            self._pinned.pop(addr, None)
        else:
            self._pinned[addr] = count - 1

    def pinned(self) -> Set[int]:
        return set(self._pinned)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def lines(self) -> Iterator[CacheLine]:
        """All resident lines, set by set."""
        for bucket in self._sets:
            for line in bucket.values():
                yield line

    def dirty_lines(self) -> Iterator[CacheLine]:
        for line in self.lines():
            if line.dirty:
                yield line

    def dirty_count(self) -> int:
        return sum(1 for _ in self.dirty_lines())

    def lines_by_set(self) -> Dict[int, List[CacheLine]]:
        """Resident lines grouped by set index (cache-tree input)."""
        return {
            index: list(bucket.values())
            for index, bucket in enumerate(self._sets)
            if bucket
        }

    def occupancy(self) -> Tuple[int, int]:
        """(resident lines, capacity in lines)."""
        return len(self), self.num_sets * self.ways

    def clear(self) -> None:
        """Drop every line (a crash wipes volatile caches)."""
        for bucket in self._sets:
            bucket.clear()
        self._pinned.clear()
        self._resident = 0
        if self._resident_gauge is not None:
            self._resident_gauge.set(0)
