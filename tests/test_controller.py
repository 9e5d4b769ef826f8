"""Unit tests for the secure memory controller."""

from dataclasses import replace

import pytest

from repro.config import small_config
from repro.core.synergy import FLUSH_THRESHOLD
from repro.errors import IntegrityError
from repro.mem.nvm import NVM
from repro.schemes import SIT_SCHEMES
from repro.schemes.base import RUNTIME_HOOKS, PersistenceScheme
from repro.schemes.writeback import WriteBackScheme
from repro.sim.controller import SecureMemoryController, ZERO_LINE
from repro.sim.machine import Machine
from repro.tree.node import CachedNode

from conftest import run_small_workload


def make_controller(config=None):
    config = config or small_config()
    nvm = NVM()
    controller = SecureMemoryController(
        config, nvm, WriteBackScheme(), stats=nvm.stats
    )
    return controller, nvm


class TestConstruction:
    def test_single_way_metadata_cache_rejected(self):
        """Persist cascades pin a node and its parent; a direct-mapped
        metadata cache cannot host both when they share a set."""
        from dataclasses import replace
        from repro.config import CacheConfig
        from repro.errors import ConfigError
        config = replace(
            small_config(),
            metadata_cache=CacheConfig(size_bytes=4 * 1024, ways=1),
        )
        with pytest.raises(ConfigError):
            make_controller(config)


class TestDataPath:
    def test_read_never_written_returns_zeros(self):
        controller, _nvm = make_controller()
        assert controller.read_data(5) == ZERO_LINE

    def test_write_read_roundtrip(self):
        controller, _nvm = make_controller()
        plaintext = bytes(range(64))
        controller.write_data(5, plaintext)
        assert controller.read_data(5) == plaintext

    def test_rewrites_return_latest(self):
        controller, _nvm = make_controller()
        controller.write_data(5, b"\x01" * 64)
        controller.write_data(5, b"\x02" * 64)
        assert controller.read_data(5) == b"\x02" * 64

    def test_data_is_encrypted_at_rest(self):
        controller, nvm = make_controller()
        plaintext = b"\xAA" * 64
        controller.write_data(5, plaintext)
        image = nvm.peek_data(5)
        assert image is not None
        assert image.ciphertext != plaintext

    def test_write_increments_counter(self):
        controller, _nvm = make_controller()
        cb_id = controller.geometry.counter_block_for(5)
        slot = controller.geometry.data_slot(5)
        controller.write_data(5)
        controller.write_data(5)
        node = controller.cached_node(cb_id)
        assert node is not None
        assert node.counters[slot] == 2

    def test_write_dirties_counter_block(self):
        controller, _nvm = make_controller()
        controller.write_data(5)
        cb_addr = controller.geometry.meta_index(
            controller.geometry.counter_block_for(5)
        )
        line = controller.meta_cache.lookup(cb_addr, touch=False)
        assert line is not None and line.dirty

    def test_lsbs_travel_with_data(self):
        controller, nvm = make_controller()
        for _ in range(3):
            controller.write_data(5)
        image = nvm.peek_data(5)
        assert image is not None
        assert image.lsbs == 3  # counter LSBs of the covering slot


class TestIntegrity:
    def test_tampered_data_detected(self):
        controller, nvm = make_controller()
        controller.write_data(5, b"\x01" * 64)
        image = nvm.peek_data(5)
        flipped = bytes([image.ciphertext[0] ^ 0xFF])
        nvm.tamper_data(
            5, replace(image, ciphertext=flipped + image.ciphertext[1:])
        )
        with pytest.raises(IntegrityError):
            controller.read_data(5)

    def test_replayed_data_detected(self):
        controller, nvm = make_controller()
        controller.write_data(5, b"\x01" * 64)
        old = nvm.peek_data(5)
        controller.write_data(5, b"\x02" * 64)
        nvm.tamper_data(5, old)  # replay the old tuple
        with pytest.raises(IntegrityError):
            controller.read_data(5)

    def test_nonzero_counter_with_missing_line_detected(self):
        controller, nvm = make_controller()
        controller.write_data(5)
        nvm._data.pop(5)  # attacker erases the line
        with pytest.raises(IntegrityError):
            controller.read_data(5)

    def test_erased_metadata_line_detected_on_fetch(self):
        """Deleting a persisted node's NVM line must not fall back to
        the trusted zero-init state: the parent counter proves the node
        was persisted."""
        controller, nvm = make_controller()
        controller.write_data(5)
        controller.flush_metadata_cache()
        cb_addr = controller.geometry.meta_index(
            controller.geometry.counter_block_for(5)
        )
        nvm._meta.pop(cb_addr)  # attacker erases the line
        controller.meta_cache.clear()
        with pytest.raises(IntegrityError):
            controller.read_data(5)

    def test_tampered_metadata_detected_on_fetch(self):
        controller, nvm = make_controller()
        controller.write_data(5, b"\x01" * 64)
        controller.flush_metadata_cache()
        cb_addr = controller.geometry.meta_index(
            controller.geometry.counter_block_for(5)
        )
        image = nvm.peek_meta(cb_addr)
        counters = list(image.counters)
        counters[0] += 1
        nvm.tamper_meta(cb_addr, replace(image, counters=tuple(counters)))
        controller.meta_cache.clear()
        with pytest.raises(IntegrityError):
            controller.read_data(5)


class TestPersistPath:
    def test_flush_clears_all_dirty(self):
        controller, _nvm = make_controller()
        for line in range(0, 64, 8):
            controller.write_data(line)
        controller.flush_metadata_cache()
        assert controller.meta_cache.dirty_count() == 0

    def test_persist_increments_parent(self):
        controller, _nvm = make_controller()
        controller.write_data(0)
        cb_id = controller.geometry.counter_block_for(0)
        parent_id = controller.geometry.parent_of(cb_id)
        controller.flush_metadata_cache()
        parent = controller.cached_node(parent_id)
        assert parent is not None
        assert parent.counters[
            controller.geometry.slot_in_parent(cb_id)] >= 1

    def test_persisted_node_verifies_on_refetch(self):
        controller, _nvm = make_controller()
        controller.write_data(0, b"\x03" * 64)
        controller.flush_metadata_cache()
        controller.meta_cache.clear()
        assert controller.read_data(0) == b"\x03" * 64

    def test_persist_branch_reaches_top(self):
        controller, nvm = make_controller()
        controller.write_data(0)
        root_before = list(controller.registers.sit_root.counters)
        controller.persist_branch(
            controller.geometry.counter_block_for(0)
        )
        assert controller.meta_cache.dirty_count() == 0
        assert controller.registers.sit_root.counters != root_before
        assert nvm.stats["nvm.meta_writes"] == \
            controller.geometry.num_levels

    def test_force_flush_on_counter_drift(self):
        controller, nvm = make_controller()
        for _ in range(FLUSH_THRESHOLD):
            controller.write_data(0)
        assert nvm.stats["ctrl.force_flushes"] >= 1
        cb = controller.cached_node(
            controller.geometry.counter_block_for(0)
        )
        assert cb is not None and cb.max_drift() == 0

    def test_drift_never_reaches_lsb_span(self):
        controller, _nvm = make_controller()
        for _ in range(1500):  # more writes than the 10-bit LSB span
            controller.write_data(0)
        cb = controller.cached_node(
            controller.geometry.counter_block_for(0)
        )
        assert cb is not None
        assert cb.max_drift() < 1 << 10
        assert cb.counters[0] == 1500


class TestInspection:
    def test_dirty_fraction_empty_cache(self):
        controller, _nvm = make_controller()
        assert controller.dirty_fraction() == 0.0

    def test_dirty_fraction_after_writes(self):
        controller, _nvm = make_controller()
        controller.write_data(0)
        assert 0.0 < controller.dirty_fraction() <= 1.0

    def test_cache_tree_root_changes_with_writes(self):
        controller, _nvm = make_controller()
        empty_root = controller.compute_cache_tree_root()
        controller.write_data(0)
        assert controller.compute_cache_tree_root() != empty_root

    def test_cache_tree_root_reverts_after_flush(self):
        controller, _nvm = make_controller()
        empty_root = controller.compute_cache_tree_root()
        controller.write_data(0)
        controller.flush_metadata_cache()
        assert controller.compute_cache_tree_root() == empty_root

    def test_dirty_mac_entries_cover_dirty_lines(self):
        controller, _nvm = make_controller()
        controller.write_data(0)
        controller.write_data(512)
        entries = controller.dirty_mac_entries()
        assert len(entries) == controller.meta_cache.dirty_count()

    def test_persisted_image_uses_post_increment_parent_counter(self):
        """Persisting bumps the parent *before* minting the image, so
        the written MAC verifies against the parent's new counter."""
        controller, nvm = make_controller()
        controller.write_data(0)
        cb_id = controller.geometry.counter_block_for(0)
        controller.flush_metadata_cache()
        image = nvm.peek_meta(controller.geometry.meta_index(cb_id))
        parent = controller.cached_node(
            controller.geometry.parent_of(cb_id)
        )
        slot = controller.geometry.slot_in_parent(cb_id)
        assert controller.auth.verify_node_image(
            cb_id, image, parent.counters[slot]
        )

    def test_current_node_mac_tracks_counter_changes(self):
        controller, _nvm = make_controller()
        cb_id = controller.geometry.counter_block_for(0)
        controller.write_data(0)
        before = controller.current_node_mac(cb_id)
        controller.write_data(0)
        assert controller.current_node_mac(cb_id) != before


def _recording(base, hooks):
    """A subclass of ``base`` whose ``hooks`` log every call (cached
    nodes by their counters at the time of the call) before deferring
    to ``base``."""
    def recorder(name):
        def hook(self, *args):
            self.calls.append((name,) + tuple(
                tuple(arg.counters) if isinstance(arg, CachedNode)
                else arg for arg in args))
            return getattr(base, name)(self, *args)
        return hook

    cls = type("Recording" + base.__name__, (base,),
               {name: recorder(name) for name in hooks})
    scheme = cls()
    scheme.calls = []
    return scheme


def _hook_run(scheme):
    machine = Machine(small_config(), scheme=scheme, telemetry=False)
    run_small_workload(machine, "hash", operations=150, seed=3)
    return machine.stats.snapshot(), machine.nvm.accesses()


class TestHookDispatch:
    """The controller calls only the hooks a scheme's type overrides;
    skipping ``PersistenceScheme``'s no-ops must change nothing."""

    @pytest.mark.parametrize("name", sorted(SIT_SCHEMES))
    def test_an_overridden_hook_sees_every_call(self, name):
        base = SIT_SCHEMES[name]
        every = _recording(base, RUNTIME_HOOKS)
        observables = _hook_run(every)
        assert _hook_run(base()) == observables
        assert {call[0] for call in every.calls} == set(RUNTIME_HOOKS)
        for hook in RUNTIME_HOOKS:
            one = _recording(base, [hook])
            assert _hook_run(one) == observables
            assert one.calls == [call for call in every.calls
                                 if call[0] == hook], hook

    def test_writeback_never_enters_a_base_hook(self, monkeypatch):
        entered = []
        for hook in RUNTIME_HOOKS:
            monkeypatch.setattr(
                PersistenceScheme, hook,
                lambda self, *args, _hook=hook: entered.append(_hook))
        _hook_run(WriteBackScheme())
        assert entered == []
