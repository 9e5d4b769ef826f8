"""The asynchronous-DRAM-refresh (ADR) domain in the memory controller.

ADR is a small battery-backed region: whatever resides in it when power
fails is flushed to NVM by the residual battery energy (Section III-C).
STAR
keeps its working set of bitmap lines here. This module models exactly
that contract:

* a bounded set of lines managed with LRU,
* overflow spills the LRU line to the NVM recovery area (counted as a
  runtime NVM write),
* at a crash, :meth:`AdrRegion.flush_on_power_failure` copies every
  resident line to the recovery area *without* counting runtime traffic.

Traffic accounting (Table II / Fig. 10): only accesses that actually
touch NVM count as misses. The *first* touch of a bitmap line — one the
LRU never spilled, so the recovery area holds no copy — materializes as
an all-zero line inside ADR for free; charging it an ``nvm.ra_reads``
would invent traffic the hardware never issues. Those first touches are
tallied under ``adr.cold_misses`` instead of ``adr.misses``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.mem.nvm import NVM, BitmapLineKey
from repro.util.lru import LRUCache
from repro.util.stats import Stats

_ABSENT = object()
"""Miss sentinel: bitmap lines are ints, so ``None`` is not safe."""


class AdrRegion:
    """Battery-backed storage for bitmap lines, spilled by LRU."""

    __slots__ = ("_lines", "_nvm", "stats", "spilled",
                 "_c_accesses", "_c_hits", "_resident_gauge")

    def __init__(self, capacity_lines: int, nvm: NVM,
                 stats: Optional[Stats] = None) -> None:
        self._lines: LRUCache[BitmapLineKey, int] = LRUCache(capacity_lines)
        self._nvm = nvm
        self.stats = stats if stats is not None else nvm.stats
        self.spilled: Set[BitmapLineKey] = set()
        """Lines whose *live* copy sits in the recovery area right now
        (spilled by LRU and not since reloaded). A line must never be
        both resident and spilled — the recovery-area copy of a resident
        line is stale by design, and a spilled line claimed resident
        would make the crash flush double-write it. Audited by
        :func:`repro.sim.validate.audit_machine` (§III-C state)."""
        # bound once: load() fires on every bitmap-line access
        registry = self.stats.registry
        self._c_accesses = registry.counter("adr.accesses")
        self._c_hits = registry.counter("adr.hits")
        self._resident_gauge = (
            registry.gauge("adr.resident_lines")
            if registry.enabled else None
        )

    @property
    def capacity(self) -> int:
        return self._lines.capacity

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: BitmapLineKey) -> bool:
        return key in self._lines

    def load(self, key: BitmapLineKey) -> int:
        """Bring a bitmap line into ADR, spilling by LRU if needed.

        A hit costs nothing; a miss reads the line from the recovery area
        and may write the spilled LRU line back — both counted as NVM
        traffic (this is the traffic of Fig. 10 / the hit ratio of
        Table II). A *cold* miss — the line was never spilled, so no
        recovery-area copy exists — materializes as zero with no NVM
        traffic and counts under ``adr.cold_misses``.
        """
        self._c_accesses.value += 1
        # hit fast path: one dict probe + the LRU touch (load() fires on
        # every bitmap-line access, so the double lookup and a gauge set
        # per hit were the hottest lines of the STAR hook chain)
        entries = self._lines._entries
        value = entries.get(key, _ABSENT)
        if value is not _ABSENT:
            self._c_hits.value += 1
            entries.move_to_end(key)
            return value
        if self._nvm.ra_is_touched(key):
            self.stats.add("adr.misses")
            value = self._nvm.read_ra(key)
            self.spilled.discard(key)
        else:
            # first touch: the hardware allocates a zeroed ADR line;
            # there is nothing in the recovery area to read
            self.stats.add("adr.cold_misses")
            value = 0
        evicted = self._lines.put(key, value)
        if evicted is not None:
            spilled_key, spilled_value = evicted
            self.stats.add("adr.spills")
            self.stats.event("ra_spill", layer=spilled_key[0],
                             index=spilled_key[1])
            self._nvm.write_ra(spilled_key, spilled_value)
            self.spilled.add(spilled_key)
        # residency only changes on a miss (the insert above), so the
        # gauge's value and high-watermark are maintained exactly by
        # setting it here alone
        if self._resident_gauge is not None:
            self._resident_gauge.set(len(self._lines))
        return value

    def store(self, key: BitmapLineKey, value: int) -> None:
        """Update a line that is already resident in ADR.

        A store **refreshes recency** — it routes through
        :meth:`LRUCache.put`, so the updated line becomes the most
        recently used and is the last candidate for an LRU spill. That
        is deliberate: the bitmap-line manager always ``load``s a line
        immediately before storing it, so writes are touches in the
        recency order exactly like the hardware's ADR, and a hot line
        being rewritten must not age toward eviction. ``peek`` is the
        deliberate opposite — a recency-neutral read for audits and
        telemetry. *Load and store refresh, peek does not* is pinned by
        ``TestAdrStoreRecency`` in ``tests/test_machine_lifecycle.py``.
        """
        entries = self._lines._entries
        if key not in entries:
            raise KeyError("bitmap line %r not resident in ADR" % (key,))
        entries[key] = value
        entries.move_to_end(key)

    def peek(self, key: BitmapLineKey) -> int:
        """Read a resident line without traffic or recency effects."""
        return self._lines.peek(key)

    def items(self) -> Iterator[Tuple[BitmapLineKey, int]]:
        return self._lines.items()

    def flush_on_power_failure(self) -> None:
        """Battery flush at a crash: persist residents, free of charge.

        After the flush the *live* copy of every formerly-resident line
        sits in the recovery area, so residency state is reconciled to
        match: the flushed keys join ``spilled``, the LRU empties (power
        is gone — ADR holds nothing), and ``adr.resident_lines`` drops
        to zero. Without this, post-crash telemetry and
        :func:`repro.sim.validate.audit_machine` would see a line as
        both flushed-to-RA and resident, violating the §III-C
        disjointness invariant documented on :attr:`spilled`.
        """
        for key, value in self._lines.items():
            self._nvm.flush_ra(key, value)
            self.spilled.add(key)
        self._lines.clear()
        if self._resident_gauge is not None:
            self._resident_gauge.set(0)

    def hit_ratio(self) -> float:
        """Fraction of bitmap-line accesses served without NVM traffic.

        Cold misses cost nothing (no recovery-area copy exists to read),
        so the ratio counts every access that did *not* issue an RA
        read: ``(accesses - misses) / accesses``.
        """
        accesses = self._c_accesses.value
        if accesses == 0:
            return 0.0
        return (accesses - self.stats.get("adr.misses")) / accesses
