"""The Anubis baseline for the SGX integrity tree (ASIT, Section II-E).

Anubis mirrors the metadata cache in a shadow-table (ST) region of NVM:
every memory write that modifies a cached metadata node (a user-data
write bumping its counter block, or a metadata eviction bumping the
evicted node's parent) also writes the ST slot shadowing that node — one
extra NVM line write per memory write, which is the 2x write traffic of
Fig. 11.

Recovery scans the whole ST region (it is sized like the metadata cache,
so recovery time scales with *cache size* rather than with the number of
dirty lines — the Fig. 14(b) contrast with STAR) and reinstates every
shadowed node.

This reproduction keeps the traffic and recovery-cost model faithful and
simplifies one thing: an ST entry logically stores the shadowed node's
address, counter LSBs and MAC packed into 64 bytes; here it holds the
full counter tuple, skipping the MSB/LSB recombination that STAR's
recovery demonstrates. Anubis' own root-persisting verification is not
replicated; the scheme reports recovery as verified and the test oracle
checks restored values directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import LINE_ACCESS_NS
from repro.schemes.base import PersistenceScheme, RecoveryReport
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode


class ShadowEntry(NamedTuple):
    """One shadow-table line: the latest update of a cached node.

    A ``NamedTuple`` rather than a dataclass: one entry is minted per
    shadowed memory write (the scheme's defining 2x traffic), so its
    construction sits on the hot path of every Anubis run.
    """

    meta_index: int
    counters: Tuple[int, ...]


class AnubisScheme(PersistenceScheme):
    """Shadow-table persistence: +1 NVM write per memory write."""

    name = "anubis"
    supports_sit_recovery = True

    def __init__(self) -> None:
        super().__init__()
        self._slot_of: Dict[int, int] = {}
        self._free_ways: Dict[int, List[int]] = {}

    def attach(self, controller) -> None:
        super().attach(controller)
        cache = controller.meta_cache
        self._slot_of.clear()
        self._free_ways = {
            index: list(range(cache.ways))
            for index in range(cache.num_sets)
        }

    # ------------------------------------------------------------------
    # ST slot management: the ST mirrors the cache's set/way structure
    # ------------------------------------------------------------------
    def on_cache_install(self, meta_index: int) -> None:
        set_index = self.controller.meta_cache.set_index(meta_index)
        way = self._free_ways[set_index].pop()
        self._slot_of[meta_index] = (
            set_index * self.controller.meta_cache.ways + way
        )

    def on_cache_evict(self, meta_index: int) -> None:
        slot = self._slot_of.pop(meta_index)
        set_index, way = divmod(slot, self.controller.meta_cache.ways)
        self._free_ways[set_index].append(way)
        # an empty way shadows nothing: the slot's tag becomes invalid.
        # Without this, a stale entry could outlive its node's eviction
        # and shadow older counters than a newer entry written after the
        # node was re-fetched into a different way.
        self.controller.nvm.clear_st(slot)

    # ------------------------------------------------------------------
    # the extra write: shadow every modification of a cached node
    # ------------------------------------------------------------------
    def on_parent_modified(self, parent: Optional[NodeId],
                           node: CachedNode, slot: int) -> None:
        if parent is None:
            return  # the SIT root lives on chip; nothing to shadow
        controller = self.controller
        meta_index = controller.geometry.meta_index(parent)
        st_slot = self._slot_of[meta_index]
        controller.nvm.write_st(
            st_slot, ShadowEntry(meta_index, node.snapshot())
        )
        controller.stats.add("anubis.st_writes")

    # ------------------------------------------------------------------
    # recovery: scan the whole ST region, reinstate every entry
    # ------------------------------------------------------------------
    def recover(self, machine) -> RecoveryReport:
        nvm = machine.nvm
        config = machine.config
        geometry = machine.controller.geometry
        auth = machine.controller.auth
        registers = machine.registers
        stats = nvm.stats
        reads_before = nvm.total_reads()
        writes_before = nvm.total_writes()

        capacity = config.metadata_cache.num_lines
        entries: Dict[int, ShadowEntry] = {}
        with stats.span("recovery.anubis.scan", slots=capacity):
            for st_slot in range(capacity):
                entry = nvm.read_st(st_slot)
                if isinstance(entry, ShadowEntry):
                    entries[entry.meta_index] = entry
        stats.observe("recovery.stale_batch", len(entries))

        restored: Dict[int, Tuple[int, ...]] = {
            line: entry.counters for line, entry in entries.items()
        }
        with stats.span("recovery.anubis.reinstate",
                        lines=len(entries)):
            for line in sorted(entries):
                node_id = geometry.node_at(line)
                nvm.read_meta(line)  # Anubis reads the shadowed node
                parent_counter = self._parent_counter(
                    geometry, nvm, registers, restored, node_id
                )
                image = auth.make_node_image(
                    node_id, restored[line], parent_counter
                )
                nvm.write_meta(line, image)
                stats.event("recover_line", meta_index=line,
                            level=node_id[0])

        reads = nvm.total_reads() - reads_before
        writes = nvm.total_writes() - writes_before
        return RecoveryReport(
            scheme=self.name,
            stale_lines=len(entries),
            restored_lines=len(entries),
            nvm_reads=reads,
            nvm_writes=writes,
            verified=True,
            recovery_time_ns=(reads + writes) * LINE_ACCESS_NS,
            restored=restored,
            st_restored_lines=len(entries),
        )

    @staticmethod
    def _parent_counter(geometry, nvm, registers,
                        restored: Dict[int, Tuple[int, ...]],
                        node_id: NodeId) -> int:
        if geometry.is_top_level(node_id):
            return registers.sit_root.counters[node_id[1]]
        parent_id = geometry.parent_of(node_id)
        parent_line = geometry.meta_index(parent_id)
        slot = geometry.slot_in_parent(node_id)
        if parent_line in restored:
            return restored[parent_line][slot]
        parent_image, _touched = nvm.read_meta(parent_line)
        return parent_image.counters[slot]
