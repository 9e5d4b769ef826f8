"""The CPU-side cache hierarchy (L1 / L2 / LLC).

The hierarchy filters the workload's reference stream: only LLC misses
and write-backs reach the secure memory controller. Persistent workloads
(the paper's micro-benchmarks) write durable data with ``clwb``-style
semantics — the store is installed clean and immediately forwarded to the
memory controller — while scratch stores stay dirty in cache and reach
memory only through LLC evictions.

``access`` returns a :class:`MemoryEvent` describing what the memory
controller must do (nothing, a line fill, a line write-back, or both),
plus the hit level for the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import CacheConfig
from repro.mem.cache import SetAssociativeCache
from repro.util.stats import Stats


@dataclass
class MemoryEvent:
    """What one CPU access asks of the memory controller."""

    hit_level: Optional[int]
    """0-based cache level that hit, or ``None`` for a memory access."""

    fills: int = 0
    """Line fills required from memory (LLC read misses)."""

    writebacks: List[int] = field(default_factory=list)
    """Dirty line addresses evicted from the LLC toward memory."""

    persists: List[int] = field(default_factory=list)
    """Line addresses written through to memory (persistent stores)."""


_NOTHING: List[int] = []
"""The one empty ``writebacks``/``persists`` list shared by every access
that has none to report. Nothing may append to it: the hierarchy fills
a fresh list for each access that can evict toward memory and builds
the event only afterwards."""


class CacheHierarchy:
    """An inclusive-fill, write-back, write-allocate hierarchy."""

    def __init__(self, levels: Sequence[CacheConfig],
                 stats: Optional[Stats] = None) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        self.stats = stats if stats is not None else Stats()
        self._levels = [
            SetAssociativeCache(config, name="L%d" % (index + 1))
            for index, config in enumerate(levels)
        ]

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def access(self, addr: int, is_write: bool,
               persistent: bool = True) -> MemoryEvent:
        """Run one CPU reference through the hierarchy."""
        if is_write and persistent:
            return self._persistent_write(addr)
        if is_write:
            return self._scratch_write(addr)
        return self._read(addr)

    # ------------------------------------------------------------------
    # access kinds
    # ------------------------------------------------------------------
    def _read(self, addr: int) -> MemoryEvent:
        hit_level = self._probe(addr)
        if hit_level == 0:
            self.stats.add("cpu.read_hits")
            return MemoryEvent(0, 0, _NOTHING, _NOTHING)
        if hit_level is None:
            self.stats.add("cpu.read_misses")
            upto, fills = self.num_levels, 1
        else:
            self.stats.add("cpu.read_hits")
            upto, fills = hit_level, 0
        # refilling the levels above a lower-level hit can push a dirty
        # line out of the LLC too, and memory must still receive it
        writebacks: List[int] = []
        self._fill_through(addr, upto=upto, dirty=False,
                           writebacks=writebacks)
        return MemoryEvent(hit_level, fills, writebacks, _NOTHING)

    def _persistent_write(self, addr: int) -> MemoryEvent:
        """A durable store: install clean everywhere, write through."""
        hit_level = self._probe(addr)
        if hit_level is not None:
            self.stats.add("cpu.write_hits")
        else:
            self.stats.add("cpu.write_misses")
        upto = hit_level if hit_level is not None else self.num_levels
        writebacks = _NOTHING
        if upto:
            writebacks = []
            self._fill_through(addr, upto=upto, dirty=False,
                               writebacks=writebacks)
        # the write-through clears any stale dirtiness of this line
        for level in self._levels:
            line = level.lookup(addr, touch=False)
            if line is not None:
                line.dirty = False
        return MemoryEvent(hit_level, 0, writebacks, [addr])

    def _scratch_write(self, addr: int) -> MemoryEvent:
        """A non-durable store: dirty in L1, written back on eviction."""
        hit_level = self._probe(addr)
        if hit_level is not None:
            self.stats.add("cpu.write_hits")
        else:
            self.stats.add("cpu.write_misses")
        if hit_level is None:
            fills = 1
            upto = self.num_levels
        else:
            fills = 0
            upto = hit_level
        writebacks = _NOTHING
        if upto:
            writebacks = []
            self._fill_through(addr, upto=upto, dirty=False,
                               writebacks=writebacks)
        line = self._levels[0].lookup(addr, touch=False)
        assert line is not None
        line.dirty = True
        return MemoryEvent(hit_level, fills, writebacks, _NOTHING)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _probe(self, addr: int) -> Optional[int]:
        for index, level in enumerate(self._levels):
            if level.lookup(addr, touch=True) is not None:
                return index
        return None

    def _fill_through(self, addr: int, upto: int, dirty: bool,
                      writebacks: List[int]) -> None:
        """Install ``addr`` into levels [0, upto), evicting as needed;
        LLC write-backs go to ``writebacks``."""
        for index in range(min(upto, self.num_levels)):
            level = self._levels[index]
            if level.lookup(addr, touch=True) is not None:
                continue
            victim = level.victim_for(addr)
            if victim is not None:
                level.remove(victim.addr)
                if victim.dirty:
                    self._spill(index, victim.addr, writebacks)
            level.insert(addr, dirty=dirty)

    def _spill(self, from_level: int, addr: int,
               writebacks: List[int]) -> None:
        """Write a dirty evicted line back toward memory."""
        next_index = from_level + 1
        if next_index >= self.num_levels:
            self.stats.add("cpu.llc_writebacks")
            writebacks.append(addr)
            return
        level = self._levels[next_index]
        line = level.lookup(addr, touch=False)
        if line is not None:
            line.dirty = True
            return
        victim = level.victim_for(addr)
        if victim is not None:
            level.remove(victim.addr)
            if victim.dirty:
                self._spill(next_index, victim.addr, writebacks)
        level.insert(addr, dirty=True)

    def drop(self) -> None:
        """Lose all cached state (a crash)."""
        for level in self._levels:
            level.clear()
