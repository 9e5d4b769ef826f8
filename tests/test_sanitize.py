"""Tests for the runtime write sanitizers (repro.sim.sanitize).

Covers the off-by-default contract (no wrapping, no overhead), clean
runs under every scheme with sanitizers on, and one injected violation
per check class: non-atomic data payloads, counter regression, bitmap
words past the fanout, out-of-range bitmap stores and a broken
counter-MAC synergization minting — each must raise SanitizeError.
"""

import pytest

from repro.config import small_config
from repro.fuzz.executor import run_case
from repro.fuzz.sampling import FuzzCase
from repro.sim.machine import Machine
from repro.sim.sanitize import SanitizeError, Sanitizer
from repro.tree.node import DataLineImage, NodeImage
from repro.tree.sit import SITAuthenticator
from repro.workloads.registry import make_workload


def sanitized_machine(scheme="star"):
    return Machine(small_config(), scheme=scheme, telemetry=False,
                   sanitize=True)


def run_some_ops(machine, operations=200, seed=9):
    workload = make_workload(
        "hash", machine.controller.layout.num_data_lines,
        operations=operations, seed=seed,
    )
    machine.run(list(workload.ops()))


class TestOffByDefault:
    def test_no_wrapping_without_flag(self):
        machine = Machine(small_config(), telemetry=False)
        assert machine.sanitizer is None
        # instance dict stays empty: write paths are the class methods
        assert "write_meta" not in machine.nvm.__dict__
        assert "write_data" not in machine.nvm.__dict__

    def test_sanitized_machine_is_wrapped_and_counts(self):
        machine = sanitized_machine()
        assert machine.sanitizer is not None
        run_some_ops(machine)
        assert machine.stats.get("sanitize.checks") > 0


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ["star", "anubis", "phoenix",
                                        "strict"])
    def test_run_crash_recover_clean(self, scheme):
        machine = sanitized_machine(scheme)
        run_some_ops(machine)
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)
        # sanitizers stay wired after the post-recovery re-attach
        run_some_ops(machine, operations=80, seed=11)
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)


class TestInjectedViolations:
    def test_non_atomic_data_write(self):
        machine = sanitized_machine()
        short = DataLineImage(ciphertext=b"\x00" * 32, mac=1, lsbs=0)
        with pytest.raises(SanitizeError, match="64B-atomic"):
            machine.nvm.write_data(0, short)

    def test_wrong_payload_type(self):
        machine = sanitized_machine()
        with pytest.raises(SanitizeError, match="not a NodeImage"):
            machine.nvm.write_meta(0, object())

    def test_counter_regression(self):
        machine = sanitized_machine()
        high = NodeImage(counters=(5,) + (0,) * 7, mac=0, lsbs=0)
        low = NodeImage(counters=(4,) + (0,) * 7, mac=0, lsbs=0)
        machine.nvm.write_meta(3, high)
        with pytest.raises(SanitizeError, match="monotonic"):
            machine.nvm.write_meta(3, low)

    def test_battery_flush_is_checked_too(self):
        machine = sanitized_machine()
        high = NodeImage(counters=(5,) + (0,) * 7, mac=0, lsbs=0)
        low = NodeImage(counters=(4,) + (0,) * 7, mac=0, lsbs=0)
        machine.nvm.write_meta(3, high)
        with pytest.raises(SanitizeError, match="monotonic"):
            machine.nvm.flush_meta(3, low)

    def test_recovery_area_word_past_fanout(self):
        machine = sanitized_machine()
        fanout = machine.scheme.bitmap.index.fanout
        with pytest.raises(SanitizeError, match="fanout"):
            machine.nvm.write_ra((1, 0), 1 << fanout)

    def test_bitmap_store_out_of_range(self):
        machine = sanitized_machine()
        bitmap = machine.scheme.bitmap
        with pytest.raises(SanitizeError, match="nonexistent layer"):
            bitmap._store(0, 0, 1)
        with pytest.raises(SanitizeError, match="outside layer"):
            bitmap._store(1, 10 ** 9, 1)

    def test_every_bitmap_line_update_is_checked(self, monkeypatch):
        """The runtime bitmap walk stores through ``_store``, the seam
        the bitmap-word check wraps: every line update below the
        on-chip top layer passes the check."""
        checked = []
        real = Sanitizer._check_bitmap_word

        def counting(self, bitmap, layer, line, value):
            checked.append(layer)
            real(self, bitmap, layer, line, value)

        monkeypatch.setattr(Sanitizer, "_check_bitmap_word", counting)
        machine = Machine(small_config(), scheme="star", sanitize=True)
        workload = make_workload("hash", machine.config.num_data_lines,
                                 operations=300, seed=1)
        machine.run(workload.ops())
        top = machine.scheme.bitmap.index.top_layer
        below_top = sum(machine.stats["bitmap.line_updates.l%d" % layer]
                        for layer in range(1, top))
        assert below_top > 0
        assert sum(1 for layer in checked if layer < top) >= below_top

    def test_broken_synergization_minting(self, monkeypatch):
        machine = sanitized_machine()
        real = SITAuthenticator.make_node_image

        def corrupted(self, node_id, counters, parent_counter):
            image = real(self, node_id, counters, parent_counter)
            return image.with_lsbs(image.lsbs ^ 1)

        monkeypatch.setattr(
            SITAuthenticator, "make_node_image", corrupted
        )
        with pytest.raises(SanitizeError, match="synergization"):
            run_some_ops(machine)


class TestFuzzIntegration:
    def case(self):
        return FuzzCase(
            index=0, scheme="star", workload="hash", seed=21,
            operations=60, crash_frac=0.8, prepare_frac=0.4,
            attack=None, attack_seed=0,
        )

    def test_clean_case_passes_sanitized(self):
        result = run_case(self.case(), sanitize=True)
        assert not result.failed, result.violations

    def test_sanitizer_trip_surfaces_as_violation(self, monkeypatch):
        real = SITAuthenticator.make_node_image

        def corrupted(self, node_id, counters, parent_counter):
            image = real(self, node_id, counters, parent_counter)
            return image.with_lsbs(image.lsbs ^ 1)

        monkeypatch.setattr(
            SITAuthenticator, "make_node_image", corrupted
        )
        result = run_case(self.case(), sanitize=True)
        assert result.failed
        assert any("SanitizeError" in v["detail"]
                   for v in result.violations)
