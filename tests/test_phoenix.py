"""Tests for the Phoenix baseline (Section II-E concurrent work)."""

import random

import pytest

from repro.config import LINE_ACCESS_NS, small_config
from repro.fuzz.attacks import make_attack
from repro.fuzz.executor import campaign_config
from repro.fuzz.sampling import CampaignSpec, sample_cases
from repro.mem.wearlevel import WearLevelingNVM
from repro.obs.export import telemetry_snapshot
from repro.schemes.anubis import AnubisScheme
from repro.schemes.base import RecoveryReport
from repro.schemes.phoenix import PhoenixScheme
from repro.sim.crash import Attacker
from repro.sim.machine import Machine
from repro.workloads.registry import TraceSpec

from conftest import run_small_workload


def phoenix_machine(workload="hash", operations=150, seed=7):
    machine = Machine(small_config(), scheme="phoenix")
    run_small_workload(machine, workload, operations=operations,
                       seed=seed)
    return machine


class TestRuntime:
    def test_registered(self):
        from repro.schemes import make_scheme
        assert make_scheme("phoenix").name == "phoenix"

    def test_data_writes_carry_no_st_write(self):
        """The whole point: unlike Anubis, a user-data write does not
        shadow its counter block."""
        machine = Machine(small_config(), scheme="phoenix")
        machine.controller.write_data(0)
        assert machine.stats["nvm.st_writes"] == 0

    def test_periodic_counter_block_persistence(self):
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(8):  # stride defaults to 4
            machine.controller.write_data(0)
        assert machine.stats["phoenix.periodic_persists"] == 2

    def test_traffic_between_star_and_anubis(self):
        config = small_config()
        writes = {}
        for scheme in ("wb", "star", "phoenix", "anubis"):
            machine = Machine(config, scheme=scheme)
            run_small_workload(machine, "hash", operations=250)
            writes[scheme] = machine.nvm.total_writes()
        assert writes["wb"] < writes["phoenix"] < writes["anubis"]

    def test_st_writes_only_for_tree_levels(self):
        machine = phoenix_machine(operations=250)
        geometry = machine.controller.geometry
        for slot in machine.nvm.st_slots():
            entry = machine.nvm._st[slot]
            level, _index = geometry.node_at(entry.meta_index)
            assert level >= 1


class TestRecovery:
    def test_recovers_dirty_population_exactly(self):
        machine = phoenix_machine(operations=250)
        machine.crash()
        report = machine.recover()
        assert report.verified
        assert machine.oracle_check(report)

    @pytest.mark.parametrize("workload", ["array", "btree", "queue"])
    def test_recovers_across_workloads(self, workload):
        machine = phoenix_machine(workload, operations=150)
        machine.crash()
        report = machine.recover()
        assert machine.oracle_check(report)

    def test_probes_every_counter_block(self):
        """Phoenix cannot locate stale counter blocks: recovery scans
        them all (STAR's bitmap index is what avoids this)."""
        machine = phoenix_machine(operations=60)
        machine.crash()
        report = machine.recover()
        geometry = machine.controller.geometry
        num_blocks = geometry.level_counts[0]
        # at least one NVM metadata read per counter block, and one
        # read per data line
        assert report.nvm_reads >= num_blocks
        assert machine.recovery_stats["nvm.meta_reads"] >= num_blocks
        assert machine.recovery_stats["nvm.data_reads"] == \
            geometry.num_data_lines

    def test_report_separates_probing_from_shadow_table(self):
        """Regression: stale_lines used to be len(restored), conflating
        'block rewritten because probing found drift' with 'tree node
        reinstated from the ST'. The split must add up and stale_lines
        must count only lines that actually went stale."""
        machine = phoenix_machine(operations=250)
        machine.crash()
        report = machine.recover()
        geometry = machine.controller.geometry
        assert report.probed_blocks == geometry.level_counts[0]
        assert 0 < report.probed_stale_lines <= report.probed_blocks
        assert report.st_restored_lines > 0
        assert report.stale_lines == (
            report.st_restored_lines + report.probed_stale_lines
        )
        # restored_lines covers both mechanisms, never less than stale
        assert report.restored_lines >= report.stale_lines

    def test_stale_count_tracks_drift_not_restores(self):
        """A single hammered block: exactly one probed-stale line even
        though every counter block is probed."""
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(3):  # below the stride: never persisted
            machine.controller.write_data(8)
        machine.crash()
        report = machine.recover()
        assert report.probed_stale_lines == 1
        assert report.stale_lines == 1 + report.st_restored_lines

    def test_recovery_slower_than_star(self):
        config = small_config()
        times = {}
        for scheme in ("star", "phoenix"):
            machine = Machine(config, scheme=scheme)
            run_small_workload(machine, "hash", operations=200)
            machine.crash()
            times[scheme] = machine.recover().recovery_time_ns
        assert times["phoenix"] > times["star"]

    def test_erased_data_line_fails_probe(self):
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(4):  # hits the stride: the block is persisted
            machine.controller.write_data(0)
        machine.crash()
        machine.nvm._data.pop(0)
        report = machine.recover()
        assert not report.verified

    def test_erasure_before_first_persist_is_undetectable(self):
        """The documented gap vs STAR: without a root commitment over
        the counter state, erasing a line whose counter block never
        persisted looks pristine to Phoenix — STAR's cache-tree catches
        the equivalent attack (tests/test_recovery.py)."""
        machine = Machine(small_config(), scheme="phoenix")
        machine.controller.write_data(0)
        machine.crash()
        machine.nvm._data.pop(0)
        report = machine.recover()
        assert report.verified  # silently wrong — Phoenix's limitation
        assert not machine.oracle_check(report)

    def test_heavy_counter_drift_recovers(self):
        """The stride bounds the probe distance even under hammering."""
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(37):
            machine.controller.write_data(8)
        machine.crash()
        report = machine.recover()
        assert report.verified
        assert machine.oracle_check(report)


class LineByLinePhoenix(PhoenixScheme):
    """The reference probe: every counter block and every data line
    read one by one, each through the counted single-line API."""

    def recover(self, machine) -> RecoveryReport:
        node_report = AnubisScheme.recover(self, machine)
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
            for index in range(probed_blocks):
                block_id = (0, index)
                line = geometry.meta_index(block_id)
                stale, _touched = nvm.read_meta(line)
                data = {}
                for child in geometry.children_of(block_id):
                    image = nvm.read_data(child)
                    if image is not None:
                        data[child] = image
                counters, failures = self._probe_block(
                    machine, block_id, stale, data
                )
                probe_failures += failures
                if counters != stale.counters:
                    probed_stale += 1
                elif line not in restored:
                    continue
                restored[line] = counters
                stats.event("recover_line", meta_index=line, level=0)
                parent_counter = self._parent_counter_from(
                    machine, restored, block_id
                )
                nvm.write_meta(line, auth.make_node_image(
                    block_id, counters, parent_counter))
            if probe_span is not None:
                probe_span.attrs["failures"] = probe_failures
                probe_span.attrs["stale"] = probed_stale
        reads = (nvm.total_reads() - reads_before) + \
            node_report.nvm_reads
        writes = (nvm.total_writes() - writes_before) + \
            node_report.nvm_writes
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


def _without_wall_clock(value):
    """A telemetry snapshot minus its host-time fields."""
    if isinstance(value, dict):
        return {key: _without_wall_clock(item)
                for key, item in value.items()
                if key not in ("duration_s", "t")}
    if isinstance(value, list):
        return [_without_wall_clock(item) for item in value]
    return value


def _crash_and_recover(case, scheme):
    """A fuzz case's run, attack and recovery, as the executor does it,
    on a telemetry-on machine; returns what recovery left behind."""
    config = campaign_config()
    trace = list(TraceSpec(case.workload, config.num_data_lines,
                           case.operations, case.seed).ops())
    ops = trace[:case.crash_index(len(trace))]
    machine = Machine(config, scheme=scheme)
    attacker = Attacker(machine.nvm)
    attack = make_attack(case.attack) if case.attack else None
    prepare_at = case.prepare_index(len(ops))
    machine.run(ops[:prepare_at])
    if attack is not None and attack.needs_prepare:
        attack.prepare(machine, attacker, random.Random(
            "fuzz-prepare:%d" % case.attack_seed))
    machine.run(ops[prepare_at:])
    machine.crash()
    tampered = attack is not None and attack.apply(
        machine, attacker,
        random.Random("fuzz-apply:%d" % case.attack_seed),
    ) is not None
    report = machine.recover()
    nvm = machine.nvm
    return {
        "report": report,
        "restored_order": list(report.restored),
        "counters": machine.recovery_stats.snapshot(),
        "telemetry": _without_wall_clock(
            telemetry_snapshot(machine.recovery_stats.registry)),
        "meta": {line: nvm.peek_meta(line) for line in nvm.meta_lines()},
        "accesses": nvm.accesses(),
    }, tampered


class TestProbeWalksOnlyContent:
    """The probe reads whole regions with the span reads and walks only
    the blocks with content; against the line-by-line reference it
    must leave every observable of recovery unchanged."""

    def test_matches_the_line_by_line_probe_on_fuzz_cases(self):
        cases = sample_cases(CampaignSpec(
            cases=120, seed=7, schemes=["phoenix"], attack_rate=0.8))
        tampered = 0
        for case in cases:
            fast, attacked = _crash_and_recover(case, PhoenixScheme())
            reference, _ = _crash_and_recover(case, LineByLinePhoenix())
            assert fast == reference, case.case_id
            tampered += attacked
        assert len(cases) >= 100 and tampered >= 80

    def test_matches_the_reference_on_a_wear_leveled_nvm(self):
        """Start-gap moves put written lines in other physical slots;
        the probe must still see them under their logical numbers."""
        config = small_config(memory_bytes=16 * 1024)
        outcomes = []
        for scheme in (PhoenixScheme(), LineByLinePhoenix()):
            nvm = WearLevelingNVM(config.num_data_lines,
                                  gap_write_interval=1)
            machine = Machine(config, scheme=scheme, nvm=nvm)
            run_small_workload(machine, "queue", operations=150)
            moved = [line for line in range(config.num_data_lines)
                     if nvm.peek_data(line) is not None
                     and nvm.remapper.translate(line) != line]
            assert nvm.remapper.gap_moves > 0 and moved
            machine.crash()
            report = machine.recover()
            assert report.verified and machine.oracle_check(report)
            outcomes.append((report, list(report.restored),
                             machine.recovery_stats.snapshot(),
                             {line: nvm.peek_meta(line)
                              for line in nvm.meta_lines()}))
        assert outcomes[0] == outcomes[1]
