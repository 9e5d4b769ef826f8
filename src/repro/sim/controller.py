"""The secure memory controller.

Implements the machinery all evaluated schemes share (Section II):

* counter-mode encryption of user-data lines (Section II-B),
* the lazy SGX integrity tree (Section II-C): fetching a metadata node
  verifies it against its parent's counter (recursively, up to the first
  cached — hence trusted — ancestor or the on-chip root); persisting a
  node increments exactly one counter in its parent,
* the security-metadata cache with its eviction cascade, including the
  forced flush that keeps every counter within 2^10 increments of its
  persisted value (the counter-MAC synergization invariant of
  Section III-B),
* Synergy-style data-line MACs persisted in the same atomic line write as
  the data (Section II-D).

Scheme-specific behaviour (bitmap updates, shadow-table writes, branch
write-through) is delegated to the attached
:class:`~repro.schemes.base.PersistenceScheme` via its hooks.

A note on pinning: evicting a dirty node requires its parent, whose fetch
may itself evict nodes. Every line involved in the ongoing operation is
pinned so the LRU victim search cannot select it; pins are released when
the public entry point returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import LINE_SIZE, LSB_BITS, SystemConfig
from repro.core.cachetree import CacheTree
from repro.core.synergy import FLUSH_THRESHOLD
from repro.crypto.otp import CounterModeEngine
from repro.errors import ConfigError, IntegrityError
from repro.mem.cache import SetAssociativeCache, CacheLine
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NVM
from repro.schemes.base import overridden_hooks
from repro.sim.registers import OnChipRegisters
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode, NodeImage
from repro.tree.sit import SITAuthenticator
from repro.util.bitfield import mask
from repro.util.stats import Stats

ZERO_LINE = bytes(LINE_SIZE)
_LSB_MASK = mask(LSB_BITS)


class SecureMemoryController:
    """CME + lazy SIT + metadata cache, parameterized by a scheme."""

    def __init__(self, config: SystemConfig, nvm: NVM, scheme,
                 registers: Optional[OnChipRegisters] = None,
                 stats: Optional[Stats] = None) -> None:
        self.config = config
        self.nvm = nvm
        self.stats = stats if stats is not None else nvm.stats
        self.layout = MemoryLayout.from_config(config)
        self.geometry = self.layout.geometry
        self.auth = SITAuthenticator(config.crypto_key)
        self.cme = CounterModeEngine(config.crypto_key)
        if config.metadata_cache.ways < 2:
            raise ConfigError(
                "the metadata cache needs >= 2 ways: persist cascades "
                "pin a node and its parent, which may share a set"
            )
        self.meta_cache = SetAssociativeCache(
            config.metadata_cache, name="meta_cache", stats=self.stats
        )
        self.cache_tree = CacheTree(
            config.crypto_key, self.meta_cache.num_sets
        )
        self.registers = registers if registers is not None \
            else OnChipRegisters()
        self._cascade_depth = 0
        self._cascade_peak = 0
        # per-persist instruments, bound once — this path is hot
        registry = self.stats.registry
        self._sit_level_writes: Dict[int, object] = {}
        self._persist_level_hist = (
            registry.histogram("sit.persist_level")
            if registry.enabled else None
        )
        self._cascade_hist = (
            registry.histogram("ctrl.cascade_depth")
            if registry.enabled else None
        )
        self.scheme = scheme
        # decided once from the scheme's type: a hook the scheme leaves
        # at PersistenceScheme's no-op is never called
        hooks = overridden_hooks(type(scheme))
        self._hook_dirty = "on_dirty_transition" in hooks
        self._hook_modified = "on_parent_modified" in hooks
        self._hook_data_persist = "on_data_persist" in hooks
        self._hook_meta_persist = "on_metadata_persist" in hooks
        self._hook_after_write = "after_data_write" in hooks
        self._hook_install = "on_cache_install" in hooks
        self._hook_evict = "on_cache_evict" in hooks
        scheme.attach(self)

    # ==================================================================
    # public API
    # ==================================================================
    def write_data(self, address: int,
                   plaintext: Optional[bytes] = None) -> None:
        """Encrypt and persist one user-data line.

        The covering counter block's counter increments (making it dirty
        in the metadata cache), the line is encrypted under the fresh
        counter and written together with its MAC side-band carrying the
        counter's 10 LSBs — one atomic NVM line write.
        """
        if plaintext is None:
            plaintext = ZERO_LINE
        pins: List[int] = []
        try:
            geometry = self.geometry
            cb_id = geometry.counter_block_for(address)
            cb_addr = geometry.meta_index(cb_id)
            block = self._get_node(cb_id, pins)
            self._pin(cb_addr, pins)
            slot = geometry.data_slot(address)
            block.increment(slot)
            self._mark_dirty(cb_addr)
            if self._hook_modified:
                self.scheme.on_parent_modified(cb_id, block, slot)
            counter = block.counters[slot]
            ciphertext = self.cme.encrypt(plaintext, address, counter)
            image = self.auth.make_data_image(address, ciphertext, counter)
            self.nvm.write_data(address, image)
            self.stats.add("ctrl.data_writes")
            if self._hook_data_persist:
                self.scheme.on_data_persist(address, image)
            if block.drift(slot) >= FLUSH_THRESHOLD:
                self.stats.add("ctrl.force_flushes")
                self.stats.event("force_flush", level=cb_id[0],
                                 index=cb_id[1], slot=slot)
                self._persist_node(cb_id, block, pins)
            if self._hook_after_write:
                self.scheme.after_data_write(address, cb_id)
        finally:
            self._unpin_all(pins)

    def read_data(self, address: int) -> bytes:
        """Fetch, verify and decrypt one user-data line."""
        pins: List[int] = []
        try:
            self.stats.add("ctrl.data_reads")
            image = self.nvm.read_data(address)
            cb_id = self.geometry.counter_block_for(address)
            block = self._get_node(cb_id, pins)
            counter = block.counters[self.geometry.data_slot(address)]
            if image is None:
                if counter != 0:
                    raise IntegrityError(
                        "data line %d has a non-zero counter but no "
                        "NVM content" % address
                    )
                return ZERO_LINE
            if not self.auth.verify_data_image(address, image, counter):
                raise IntegrityError(
                    "MAC mismatch reading data line %d" % address
                )
            return self.cme.decrypt(image.ciphertext, address, counter)
        finally:
            self._unpin_all(pins)

    def flush_metadata_cache(self) -> None:
        """Persist every dirty metadata line (test/benchmark helper)."""
        pins: List[int] = []
        try:
            while True:
                dirty = sorted(
                    line.addr for line in self.meta_cache.dirty_lines()
                )
                if not dirty:
                    return
                for addr in dirty:
                    line = self.meta_cache.lookup(addr, touch=False)
                    if line is not None and line.dirty:
                        self._persist_node(
                            self.geometry.node_at(addr), line.payload, pins
                        )
        finally:
            self._unpin_all(pins)

    def persist_metadata_line(self, node_id: NodeId) -> None:
        """Write one metadata node through to NVM (it stays cached,
        clean). Its parent picks up the counter increment and turns
        dirty — the lazy-SIT persist event in isolation."""
        pins: List[int] = []
        try:
            node = self._get_node(node_id, pins)
            self._pin(self.geometry.meta_index(node_id), pins)
            self._persist_node(node_id, node, pins)
        finally:
            self._unpin_all(pins)

    def persist_branch(self, node_id: NodeId) -> None:
        """Write ``node_id`` and all its ancestors through to NVM.

        This is the eager-update path used by the strict-persistence
        baseline: after it, the whole modified branch is clean.
        """
        pins: List[int] = []
        try:
            current: Optional[NodeId] = node_id
            while current is not None:
                node = self._get_node(current, pins)
                self._pin(self.geometry.meta_index(current), pins)
                self._persist_node(current, node, pins)
                if self.geometry.is_top_level(current):
                    current = None
                else:
                    current = self.geometry.parent_of(current)
        finally:
            self._unpin_all(pins)

    # ------------------------------------------------------------------
    # inspection (no NVM traffic counted)
    # ------------------------------------------------------------------
    def dirty_fraction(self) -> float:
        """Dirty share of resident metadata lines (Fig. 14a)."""
        resident = len(self.meta_cache)
        if resident == 0:
            return 0.0
        return self.meta_cache.dirty_count() / resident

    def dirty_mac_entries(self) -> List[Tuple[int, int]]:
        """(address, current MAC) of each dirty cached metadata line."""
        entries = []
        for line in self.meta_cache.dirty_lines():
            node_id = self.geometry.node_at(line.addr)
            entries.append((line.addr, self.current_node_mac(node_id)))
        return entries

    def compute_cache_tree_root(self) -> int:
        """The cache-tree root over the current dirty cache population.

        In hardware this register is maintained incrementally as lines
        turn dirty (Section III-E); computing it on demand yields the
        identical value.
        """
        return self.cache_tree.root_from_entries(self.dirty_mac_entries())

    def current_node_mac(self, node_id: NodeId) -> int:
        """The MAC a node would carry if persisted right now."""
        counters = self._peek_counters(node_id)
        parent_counter = self._peek_parent_counter(node_id)
        return self.auth.node_mac(
            node_id, counters, parent_counter, parent_counter & _LSB_MASK
        )

    def cached_node(self, node_id: NodeId) -> Optional[CachedNode]:
        """The cached copy of ``node_id`` if resident (tests/oracles)."""
        line = self.meta_cache.lookup(
            self.geometry.meta_index(node_id), touch=False
        )
        return None if line is None else line.payload

    # ==================================================================
    # internals
    # ==================================================================
    def _pin(self, addr: int, pins: List[int]) -> None:
        self.meta_cache.pin(addr)
        pins.append(addr)

    def _unpin_all(self, pins: List[int]) -> None:
        for addr in pins:
            self.meta_cache.unpin(addr)
        pins.clear()

    def _get_node(self, node_id: NodeId, pins: List[int]) -> CachedNode:
        """Return the cached node, fetching and verifying on a miss."""
        addr = self.geometry.meta_index(node_id)
        line = self.meta_cache.lookup(addr)
        if line is not None:
            self.stats.add("meta_cache.hits")
            return line.payload
        self.stats.add("meta_cache.misses")
        image, touched = self.nvm.read_meta(addr)
        parent_counter = self._parent_counter_for(node_id, pins)
        # fetching the parent can trigger an eviction cascade that
        # persists a dirty sibling — which fetches and installs *this*
        # node as the sibling's parent; its copy is the authoritative one
        line = self.meta_cache.lookup(addr)
        if line is not None:
            return line.payload
        # ... or that also persists and evicts it again, rewriting the
        # image read above: verify the one the cascade left instead (an
        # uncounted peek: the read above already paid for the line)
        current = self.nvm.peek_meta(addr)
        if current is not None and current is not image:
            image, touched = current, True
        self._verify_image(node_id, image, touched, parent_counter)
        return self._install(node_id, addr, image, pins)

    def _parent_counter_for(self, node_id: NodeId,
                            pins: List[int]) -> int:
        """The parent's counter for ``node_id`` (fetching the parent)."""
        if self.geometry.is_top_level(node_id):
            return self.registers.sit_root.counters[node_id[1]]
        parent_id = self.geometry.parent_of(node_id)
        parent = self._get_node(parent_id, pins)
        return parent.counters[self.geometry.slot_in_parent(node_id)]

    def _verify_image(self, node_id: NodeId, image: NodeImage,
                      touched: bool, parent_counter: int) -> None:
        """MAC-check a fetched node image against its parent's counter."""
        if touched:
            self.stats.add("ctrl.verifications")
            if not self.auth.verify_node_image(
                node_id, image, parent_counter
            ):
                raise IntegrityError(
                    "MAC mismatch fetching metadata node %r" % (node_id,)
                )
        elif parent_counter != 0:
            # the parent's counter counts this node's persists: a
            # non-zero value with no NVM image means the line was erased
            # (the zero-init trust only covers never-persisted nodes)
            raise IntegrityError(
                "metadata node %r was persisted %d times but its NVM "
                "line is missing" % (node_id, parent_counter)
            )

    def _install(self, node_id: NodeId, addr: int, image: NodeImage,
                 pins: List[int]) -> CachedNode:
        """Insert a verified image, persisting/evicting LRU victims as
        needed.

        Evicting a dirty victim persists it, which fetches *its* parent —
        and that parent may be exactly the line being installed here. The
        loop therefore re-probes after every eviction and, when a cascade
        has already installed the line, returns the resident copy (it is
        the authoritative one: the cascade may have incremented its
        counters since ``image`` was read from NVM). A cascade that also
        persisted and evicted the line leaves a newer image in NVM; that
        one is verified and installed instead of the stale ``image``.
        """
        evicted = False
        while True:
            line = self.meta_cache.lookup(addr, touch=False)
            if line is not None:
                return line.payload
            victim = self.meta_cache.victim_for(addr)
            if victim is None:
                break
            self._evict_line(victim, pins)
            evicted = True
        if evicted:
            # the cascade that rewrote the image also bumped the
            # parent's counter for it; both are peeked, uncounted
            current = self.nvm.peek_meta(addr)
            if current is not None and current is not image:
                image = current
                self._verify_image(node_id, image, True,
                                   self._peek_parent_counter(node_id))
        cached = CachedNode.from_image(image)
        self.meta_cache.insert(addr, cached)
        if self._hook_install:
            self.scheme.on_cache_install(addr)
        return cached

    def _evict_line(self, victim: CacheLine, pins: List[int]) -> None:
        self.stats.add("ctrl.meta_evictions")
        self.stats.event("meta_evict", addr=victim.addr,
                         dirty=victim.dirty)
        if victim.dirty:
            # scoped pin: protect the victim only while it persists, so
            # deep cascades don't accumulate pins and starve a set
            self.meta_cache.pin(victim.addr)
            try:
                node_id = self.geometry.node_at(victim.addr)
                self._persist_node(node_id, victim.payload, pins)
            finally:
                self.meta_cache.unpin(victim.addr)
        self.meta_cache.remove(victim.addr)
        if self._hook_evict:
            self.scheme.on_cache_evict(victim.addr)

    def _mark_dirty(self, addr: int) -> None:
        if self.meta_cache.mark_dirty(addr) and self._hook_dirty:
            self.scheme.on_dirty_transition(addr, True)

    def _persist_node(self, node_id: NodeId, cached: CachedNode,
                      pins: List[int]) -> None:
        """Write one metadata node to NVM (the lazy-SIT persist path).

        Increments the parent's corresponding counter *before* minting
        the image, so the persisted line carries — in its spare MAC bits —
        the LSBs of the parent counter value that already accounts for
        this persist (what recovery must reconstruct).

        Persists nest (force flushes climb the tree; evicting a dirty
        victim persists it, fetching *its* parent); the peak nesting
        depth of each outermost persist is recorded in the
        ``ctrl.cascade_depth`` histogram.
        """
        self._cascade_depth += 1
        if self._cascade_depth > self._cascade_peak:
            self._cascade_peak = self._cascade_depth
        try:
            self._persist_node_inner(node_id, cached, pins)
        finally:
            self._cascade_depth -= 1
            if self._cascade_depth == 0:
                if self._cascade_hist is not None:
                    self._cascade_hist.observe(self._cascade_peak)
                self._cascade_peak = 0

    def _persist_node_inner(self, node_id: NodeId, cached: CachedNode,
                            pins: List[int]) -> None:
        geometry = self.geometry
        addr = geometry.meta_index(node_id)
        if geometry.is_top_level(node_id):
            slot = node_id[1]
            root = self.registers.sit_root
            root.increment(slot)
            self.stats.add("ctrl.root_child_persists")
            if self._hook_modified:
                self.scheme.on_parent_modified(None, root, slot)
            self._write_node_image(node_id, addr, cached,
                                   root.counters[slot])
            return
        parent_id = geometry.parent_of(node_id)
        parent = self._get_node(parent_id, pins)
        parent_addr = geometry.meta_index(parent_id)
        # scoped pin: the parent must stay resident while its counter
        # is used, but not for the rest of the outer operation
        self.meta_cache.pin(parent_addr)
        try:
            slot = geometry.slot_in_parent(node_id)
            parent.increment(slot)
            self._mark_dirty(parent_addr)
            if self._hook_modified:
                self.scheme.on_parent_modified(parent_id, parent, slot)
            self._write_node_image(node_id, addr, cached,
                                   parent.counters[slot])
            if parent.drift(slot) >= FLUSH_THRESHOLD:
                self.stats.add("ctrl.force_flushes")
                self.stats.event("force_flush", level=parent_id[0],
                                 index=parent_id[1], slot=slot)
                self._persist_node(parent_id, parent, pins)
        finally:
            self.meta_cache.unpin(parent_addr)

    def _write_node_image(self, node_id: NodeId, addr: int,
                          cached: CachedNode,
                          parent_counter: int) -> None:
        """Mint and write the node's image; mark it clean."""
        image = self.auth.make_node_image(
            node_id, cached.snapshot(), parent_counter
        )
        self.nvm.write_meta(addr, image)
        cached.mark_persisted()
        self.stats.add("ctrl.meta_persists")
        level = node_id[0]
        counter = self._sit_level_writes.get(level)
        if counter is None:
            counter = self._sit_level_writes[level] = (
                self.stats.registry.counter("sit.level%d.writes" % level)
            )
        counter.inc()
        if self._persist_level_hist is not None:
            self._persist_level_hist.observe(level)
        if self._hook_meta_persist:
            self.scheme.on_metadata_persist(node_id, image)
        line = self.meta_cache.lookup(addr, touch=False)
        if line is not None and line.dirty:
            line.dirty = False
            if self._hook_dirty:
                self.scheme.on_dirty_transition(addr, False)

    # ------------------------------------------------------------------
    # traffic-free peeks (hardware state inspection)
    # ------------------------------------------------------------------
    def _peek_counters(self, node_id: NodeId) -> Tuple[int, ...]:
        addr = self.geometry.meta_index(node_id)
        line = self.meta_cache.lookup(addr, touch=False)
        if line is not None:
            return tuple(line.payload.counters)
        image = self.nvm.peek_meta(addr)
        if image is None:
            return (0,) * self.geometry.arity
        return image.counters

    def _peek_parent_counter(self, node_id: NodeId) -> int:
        if self.geometry.is_top_level(node_id):
            return self.registers.sit_root.counters[node_id[1]]
        parent_id = self.geometry.parent_of(node_id)
        slot = self.geometry.slot_in_parent(node_id)
        return self._peek_counters(parent_id)[slot]
