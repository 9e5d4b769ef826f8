"""The Phoenix baseline (Section II-E, "concurrent work").

Phoenix combines the two prior ideas: counter blocks are *not* shadowed
on every write — they are persisted only every Nth modification and
recovered Osiris-style by probing counter candidates against the
per-line data MACs — while the intermediate SIT nodes keep Anubis'
shadow-table treatment. Compared with Anubis this removes the ST write
that accompanied every *data* write, leaving only the (much rarer) ST
writes for tree-node modifications.

The paper positions STAR against Phoenix: "unlike Phoenix, our STAR
removes the extra writes of the whole tree, including the counter
blocks and intermediate tree nodes". This implementation reproduces
that contrast: Phoenix lands between Anubis and STAR in write traffic,
and its recovery must probe every counter block (it cannot tell stale
from fresh ones) where STAR walks its bitmap index. The model charges
that probe in full, one NVM read per counter block and per data line;
only the simulator's host work skips the blocks the NVM holds nothing
for.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import LINE_ACCESS_NS
from repro.schemes.anubis import AnubisScheme
from repro.schemes.base import RecoveryReport
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode, DataLineImage, NodeImage


class PhoenixScheme(AnubisScheme):
    """Osiris-relaxed counter blocks + Anubis ST for tree nodes."""

    name = "phoenix"
    supports_sit_recovery = True

    def __init__(self, persist_stride: int = 4) -> None:
        super().__init__()
        if persist_stride < 1:
            raise ValueError("persist stride must be >= 1")
        self.persist_stride = persist_stride
        self._block_writes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # runtime: shadow only the tree levels; relax the counter blocks
    # ------------------------------------------------------------------
    def on_parent_modified(self, parent: Optional[NodeId],
                           node: CachedNode, slot: int) -> None:
        if parent is None:
            return
        if parent[0] == 0:
            # a counter block modified by a data write: no ST write;
            # persist it every Nth modification to bound the probe
            # distance (the Osiris relaxation)
            meta_index = self.controller.geometry.meta_index(parent)
            count = self._block_writes.get(meta_index, 0) + 1
            if count >= self.persist_stride:
                self._block_writes[meta_index] = 0
                self.controller.persist_metadata_line(parent)
                self.controller.stats.add("phoenix.periodic_persists")
            else:
                self._block_writes[meta_index] = count
            return
        super().on_parent_modified(parent, node, slot)
        self.controller.stats.add("phoenix.st_writes")

    # ------------------------------------------------------------------
    # recovery: ST for tree nodes, Osiris probing for counter blocks
    # ------------------------------------------------------------------
    def recover(self, machine) -> RecoveryReport:
        node_report = super().recover(machine)
        nvm = machine.nvm
        geometry = machine.controller.geometry
        auth = machine.controller.auth
        reads_before = nvm.total_reads()
        writes_before = nvm.total_writes()

        restored = dict(node_report.restored)
        probe_failures = 0
        probed_stale = 0
        probed_blocks = geometry.level_counts[0]
        stats = nvm.stats
        with stats.span("recovery.phoenix.probe",
                        blocks=probed_blocks) as probe_span:
            # the probe pays one read per counter block and one per
            # data line; the span reads charge exactly that (level 0
            # leads the flat metadata index, so block i is line i)
            blocks = nvm.read_meta_span(0, probed_blocks)
            data = nvm.read_data_span(0, geometry.num_data_lines)
            # A block with no metadata image, no data line and no entry
            # in ``restored`` probes to its zero image: zero counters, no
            # failure, nothing to restore. Skipping it changes nothing
            # but host time, so only blocks with content are walked.
            walked = set(blocks)
            walked.update(line // geometry.arity for line in data)
            walked.update(line for line in restored if line < probed_blocks)
            for line in sorted(walked):
                block_id = (0, line)
                stale = blocks.get(line)
                if stale is None:
                    stale = NodeImage.zero()
                counters, failures = self._probe_block(
                    machine, block_id, stale, data
                )
                probe_failures += failures
                if counters != stale.counters:
                    # the probed counters moved past the persisted copy:
                    # this block really was stale at the crash
                    probed_stale += 1
                elif line not in restored:
                    continue  # nothing moved since the last persist
                restored[line] = counters
                stats.event("recover_line", meta_index=line, level=0)
                parent_counter = self._parent_counter_from(
                    machine, restored, block_id
                )
                image = auth.make_node_image(block_id, counters,
                                             parent_counter)
                nvm.write_meta(line, image)
            if probe_span is not None:
                probe_span.attrs["failures"] = probe_failures
                probe_span.attrs["stale"] = probed_stale

        reads = (nvm.total_reads() - reads_before) + \
            node_report.nvm_reads
        writes = (nvm.total_writes() - writes_before) + \
            node_report.nvm_writes
        # stale_lines is the count of lines that actually went stale
        # (ST-shadowed tree nodes + probed-stale counter blocks) — NOT
        # len(restored), which also counts fresh blocks rewritten only
        # because their ST twin was reinstated. The old conflation made
        # Phoenix's reported stale set track restored-line volume.
        return RecoveryReport(
            scheme=self.name,
            stale_lines=node_report.stale_lines + probed_stale,
            restored_lines=len(restored),
            nvm_reads=reads,
            nvm_writes=writes,
            verified=node_report.verified and probe_failures == 0,
            recovery_time_ns=(reads + writes) * LINE_ACCESS_NS,
            restored=restored,
            st_restored_lines=node_report.restored_lines,
            probed_blocks=probed_blocks,
            probed_stale_lines=probed_stale,
        )

    def _probe_block(self, machine, block_id: NodeId, stale: NodeImage,
                     data: Dict[int, DataLineImage],
                     ) -> Tuple[Tuple[int, ...], int]:
        """Osiris-style reconstruction of one counter block against
        ``data``, the images of the data lines the NVM holds."""
        nvm = machine.nvm
        geometry = machine.controller.geometry
        auth = machine.controller.auth
        counters = list(stale.counters)
        failures = 0
        children = geometry.children_of(block_id)
        for slot in range(geometry.arity):
            if slot >= len(children):
                continue
            image = data.get(children[slot])
            if image is None:
                if stale.counters[slot] != 0:
                    # the persisted counter says this line was written,
                    # but it is gone: detectable erasure. (An erasure
                    # *before* the block's first persist is not — one of
                    # the gaps STAR's cache-tree closes.)
                    failures += 1
                continue
            found = None
            for delta in range(self.persist_stride + 1):
                candidate = stale.counters[slot] + delta
                if auth.verify_data_image(children[slot], image,
                                          candidate):
                    found = candidate
                    break
            if found is None:
                failures += 1
            else:
                nvm.stats.observe(
                    "phoenix.probe_distance",
                    found - stale.counters[slot],
                )
                counters[slot] = found
        return tuple(counters), failures

    @staticmethod
    def _parent_counter_from(machine, restored, node_id: NodeId) -> int:
        geometry = machine.controller.geometry
        if geometry.is_top_level(node_id):
            return machine.registers.sit_root.counters[node_id[1]]
        parent_id = geometry.parent_of(node_id)
        parent_line = geometry.meta_index(parent_id)
        slot = geometry.slot_in_parent(node_id)
        if parent_line in restored:
            return restored[parent_line][slot]
        parent_image, _touched = machine.nvm.read_meta(parent_line)
        return parent_image.counters[slot]

    def on_cache_evict(self, meta_index: int) -> None:
        super().on_cache_evict(meta_index)
        self._block_writes.pop(meta_index, None)
