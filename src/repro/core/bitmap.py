"""Bitmap lines in ADR: tracking the locations of stale metadata.

One bit per security-metadata line (Section III-C): the bit is 1 while
the cached copy is dirty (so the NVM copy is *stale*) and 0 once the line
is persisted. Bits are touched only on dirty-state *transitions*, which
is why the bitmap traffic of Fig. 10 is tiny.

The working set of bitmap lines lives in the battery-backed ADR region
and spills to the Recovery Area by LRU; the single top-layer line of the
multi-layer index lives in an on-chip register (Section III-D) that the
manager reads and writes through the supplied ``registers`` object.

After a crash, :func:`iter_stale_lines` walks the index top-down reading
only non-zero lines from the RA — the recovery-time side of Fig. 14.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.index import MultiLayerIndex
from repro.mem.adr import AdrRegion
from repro.mem.nvm import NVM
from repro.util.bitfield import iter_set_bits, test_bit
from repro.util.stats import Stats


class BitmapLineManager:
    """Runtime maintenance of the multi-layer stale-metadata bitmap."""

    def __init__(self, index: MultiLayerIndex, nvm: NVM, registers,
                 adr_capacity: int, stats: Optional[Stats] = None) -> None:
        self.index = index
        self._nvm = nvm
        self._registers = registers
        self.stats = stats if stats is not None else nvm.stats
        self.adr = AdrRegion(adr_capacity, nvm, stats=self.stats)
        # the update walk runs on every dirty-state transition of a
        # cached metadata line; pin the geometry and the per-layer
        # counter names here instead of re-deriving them per call
        self._fanout = index.fanout
        self._top_layer = index.top_layer
        self._total = index.total_meta_lines
        self._update_names = ["bitmap.line_updates.l%d" % layer
                              for layer in range(index.top_layer + 1)]

    # ------------------------------------------------------------------
    # the two runtime events (Section III-C)
    # ------------------------------------------------------------------
    def mark_stale(self, meta_line: int) -> None:
        """A cached metadata line went clean -> dirty."""
        self.stats.add("bitmap.mark_stale")
        if not 0 <= meta_line < self._total:
            raise ValueError("metadata line %d out of range" % meta_line)
        fanout = self._fanout
        line = meta_line // fanout
        self._update_bit(1, line, meta_line - line * fanout, True)

    def mark_fresh(self, meta_line: int) -> None:
        """A dirty metadata line was persisted (dirty -> clean)."""
        self.stats.add("bitmap.mark_fresh")
        if not 0 <= meta_line < self._total:
            raise ValueError("metadata line %d out of range" % meta_line)
        fanout = self._fanout
        line = meta_line // fanout
        self._update_bit(1, line, meta_line - line * fanout, False)

    def _update_bit(self, layer: int, line: int, bit: int,
                    value: bool) -> None:
        # iterative bottom-up walk; the recursion this replaces spent
        # more time on call frames, property lookups and name
        # formatting than on the bit math
        registers = self._registers
        adr_load = self.adr.load
        adr_store = self.adr.store
        stats_add = self.stats.add
        names = self._update_names
        fanout = self._fanout
        top = self._top_layer
        while True:
            if layer == top:
                word = registers.index_top_line
                new_word = (word | (1 << bit)) if value \
                    else (word & ~(1 << bit))
                if new_word == word:
                    return
                stats_add(names[layer])
                registers.index_top_line = new_word
                return
            key = (layer, line)
            word = adr_load(key)
            new_word = (word | (1 << bit)) if value \
                else (word & ~(1 << bit))
            if new_word == word:
                return
            stats_add(names[layer])
            adr_store(key, new_word)
            # propagate zero/non-zero transitions into the layer above:
            # setting a bit makes the parent bit 1 only when this word
            # was all-zero; clearing one makes it 0 only when the word
            # just became all-zero
            if (word == 0) if value else (new_word == 0):
                layer += 1
                bit = line % fanout
                line = line // fanout
                continue
            return

    # ------------------------------------------------------------------
    # line storage: on-chip register for the top layer, ADR otherwise
    # ------------------------------------------------------------------
    def _load(self, layer: int, line: int) -> int:
        if self.index.is_on_chip(layer):
            return self._registers.index_top_line
        return self.adr.load((layer, line))

    def _store(self, layer: int, line: int, value: int) -> None:
        if self.index.is_on_chip(layer):
            self._registers.index_top_line = value
        else:
            self.adr.store((layer, line), value)

    # ------------------------------------------------------------------
    # inspection and crash behaviour
    # ------------------------------------------------------------------
    def is_stale(self, meta_line: int) -> bool:
        """Current bit for ``meta_line`` (no traffic counted: debug/test)."""
        line, bit = self.index.l1_position(meta_line)
        if self.index.is_on_chip(1):
            return test_bit(self._registers.index_top_line, bit)
        key = (1, line)
        if key in self.adr:
            return test_bit(self.adr.peek(key), bit)
        return test_bit(self._nvm.peek_ra(key), bit)

    def flush_on_power_failure(self) -> None:
        """Battery flush of ADR-resident lines at a crash."""
        self.adr.flush_on_power_failure()

    def hit_ratio(self) -> float:
        return self.adr.hit_ratio()


def iter_stale_lines(index: MultiLayerIndex, nvm: NVM,
                     top_line: int) -> Iterator[int]:
    """Yield stale metadata line indices after a crash, ascending.

    Walks the multi-layer index top-down, reading only non-zero lines
    from the recovery area (each counted as an NVM read — this is part of
    the recovery time).
    """
    def walk(layer: int, line: int) -> Iterator[int]:
        if index.is_on_chip(layer):
            word = top_line
        else:
            word = nvm.read_ra((layer, line))
        base = line * index.fanout
        for bit in iter_set_bits(word):
            if layer == 1:
                yield base + bit
            else:
                yield from walk(layer - 1, base + bit)

    yield from walk(index.top_layer, 0)


def stale_lines_list(index: MultiLayerIndex, nvm: NVM,
                     top_line: int) -> List[int]:
    """Materialized, sorted result of :func:`iter_stale_lines`."""
    return list(iter_stale_lines(index, nvm, top_line))


def locate_stale_lines(
    index: MultiLayerIndex, nvm: NVM, top_line: int,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The recovery locate phase: stale lines *and* the RA lines read.

    Returns ``(stale_metadata_lines, nonzero_ra_keys)``. The second list
    holds every in-NVM recovery-area line the walk read with a non-zero
    word — exactly the lines recovery must zero afterwards so a later
    crash does not claim the restored nodes again. Restricting the
    clearing pass to this list (instead of sweeping the whole index) is
    what keeps recovery cost proportional to the stale-line count
    (Section III-F / Fig. 14b).
    """
    stale: List[int] = []
    nonzero_ra: List[Tuple[int, int]] = []

    def walk(layer: int, line: int) -> None:
        if index.is_on_chip(layer):
            word = top_line
        else:
            word = nvm.read_ra((layer, line))
            if word:
                nonzero_ra.append((layer, line))
        base = line * index.fanout
        for bit in iter_set_bits(word):
            if layer == 1:
                stale.append(base + bit)
            else:
                walk(layer - 1, base + bit)

    walk(index.top_layer, 0)
    return stale, nonzero_ra
