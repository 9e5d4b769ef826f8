"""Tests for profiling through spans and the failure flight recorder.

``Machine(profile=True)`` wraps the simulator's phases in spans on the
run registry's tracer. The acceptance bar is determinism: the spans'
op clock counts NVM line accesses, so two same-seed runs must export
bit-identical Chrome traces, recovery's registry swap must neither
freeze nor rewind the clock, and the recovery spans must account for
exactly the traffic the recovery report charges. The flight
recorder's bar is that failing fuzz cases ship a deterministic event
tail end-to-end: case result -> corpus record -> minimized artifact.
"""

import json

import pytest

from repro.config import small_config
from repro.errors import ConfigError
from repro.fuzz.executor import run_case
from repro.fuzz.minimize import minimize_failure, write_artifacts
from repro.fuzz.sampling import CampaignSpec, sample_cases
from repro.obs.flight import (
    arm_flight_recorder,
    flight_tail,
    strip_wall_clock,
)
from repro.obs.render import render_phase_table
from repro.obs.tracing import (
    chrome_trace,
    phase_aggregate,
    write_chrome_trace,
)
from repro.sim.machine import Machine
from repro.util.stats import Stats
from repro.workloads.registry import make_workload

EXPECTED_PHASES = {"ctrl.write_data", "tree.verify", "tree.update",
                   "wpq.drain", "recovery"}
RECOVERY_PHASES = ["recovery.locate", "recovery.restore",
                   "recovery.remac", "recovery.verify"]


def profiled_run(operations=60, seed=5, crash=True, scheme="star",
                 profile=True):
    config = small_config()
    machine = Machine(config, scheme=scheme, profile=profile)
    workload = make_workload("hash", config.num_data_lines,
                             operations=operations, seed=seed)
    machine.run(workload.ops())
    if crash:
        machine.crash()
        machine.recover()
    return machine


def tracers(machine):
    """The run tracer, then the recovery tracer once there is one."""
    return [stats.registry.tracer
            for stats in (machine.stats, machine.recovery_stats)
            if stats is not None]


def all_spans(tracer):
    return [span for root in tracer.roots for span in root.walk()]


# ----------------------------------------------------------------------
# profiling through spans
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    """``Machine(profile=True)``: phase spans on the run tracer."""

    def test_records_the_instrumented_phases(self):
        machine = profiled_run()
        run_tracer = machine.stats.registry.tracer
        names = {span.name for span in all_spans(run_tracer)}
        assert EXPECTED_PHASES <= names

    def test_bitmap_walk_records_adr_load_spans(self):
        """STAR's bitmap walk loads words through ``_load``, which the
        profiler wraps as ``adr.load`` inside ``bitmap.maintain``."""
        machine = profiled_run(operations=300, seed=1, crash=False)
        spans = all_spans(machine.stats.registry.tracer)
        loads = [span for span in spans if span.name == "adr.load"]
        assert loads
        assert all(
            any(child.name == "adr.load" for child in span.children)
            for span in spans if span.name == "bitmap.maintain"
        )

    def test_trace_is_bit_identical_across_same_seed_runs(self):
        first = chrome_trace(tracers(profiled_run()))
        second = chrome_trace(tracers(profiled_run()))
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_chrome_trace_schema(self):
        trace = chrome_trace(tracers(profiled_run()))
        assert trace["otherData"]["clock"] == "nvm-op-counter"
        assert trace["otherData"]["dropped"] == 0
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["cat"] == "sim"
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
            # the op clock only: host time would break bit-identity
            assert event["args"] == {"ops": event["dur"]}

    def test_trace_holds_the_recovery_sub_phases(self):
        trace = chrome_trace(tracers(profiled_run()))
        names = [event["name"] for event in trace["traceEvents"]]
        assert names.index("recovery") < names.index("recovery.star")
        assert [name for name in names
                if name in RECOVERY_PHASES] == RECOVERY_PHASES

    def test_trace_events_sorted_by_start(self):
        trace = chrome_trace(tracers(profiled_run()))
        starts = [event["ts"] for event in trace["traceEvents"]]
        assert starts == sorted(starts)

    def test_op_clock_survives_recovery_registry_swap(self):
        machine = profiled_run()
        run_tracer, recovery_tracer = tracers(machine)
        recovery = [span for span in run_tracer.roots
                    if span.name == "recovery"]
        assert len(recovery) == 1
        assert recovery[0].ops > 0
        end = recovery[0].ts + recovery[0].ops
        # the recovery registry's spans run on the same clock, inside
        # the run tracer's recovery span
        inner = all_spans(recovery_tracer)
        assert [span.name for span in inner] == (
            ["recovery.star"] + RECOVERY_PHASES)
        assert all(recovery[0].ts <= span.ts <= span.ts + span.ops <= end
                   for span in inner)
        # the machine keeps running after recovery: the clock must not
        # rewind below the recovery span's end
        after = len(run_tracer.roots)
        config = machine.config
        machine.run(make_workload("hash", config.num_data_lines,
                                  operations=10, seed=1).ops())
        later = [span for root in run_tracer.roots[after:]
                 for span in root.walk()]
        assert later, "no spans recorded after recovery"
        assert all(span.ts >= end for span in later)

    def test_capacity_drops_are_counted(self):
        config = small_config()
        machine = Machine(config, scheme="star", profile=True)
        run_tracer = machine.stats.registry.tracer
        run_tracer.capacity = 10
        machine.run(make_workload("hash", config.num_data_lines,
                                  operations=40, seed=2).ops())
        assert len(run_tracer.roots) == 10
        assert run_tracer.dropped > 0
        trace = chrome_trace([run_tracer])
        assert trace["otherData"]["dropped"] == run_tracer.dropped
        # the first roots are the ones kept
        first = min(event["ts"] for event in trace["traceEvents"])
        assert first == 0

    def test_write_chrome_trace_is_loadable(self, tmp_path):
        machine = profiled_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracers(machine))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(
            json.dumps(chrome_trace(tracers(machine)))
        )

    def test_write_chrome_trace_publishes_atomically(self, tmp_path):
        """The trace lands via tmp-write + os.replace: no .tmp file
        survives, and an existing trace is replaced wholesale (a
        concurrent reader sees the old file or the new one, never a
        torn prefix — the PR 7 heartbeat-salvage bug class)."""
        machine = profiled_run()
        path = tmp_path / "trace.json"
        path.write_text("stale")
        write_chrome_trace(path, tracers(machine))
        assert not (tmp_path / "trace.json.tmp").exists()
        assert json.loads(path.read_text())["traceEvents"]
        assert list(tmp_path.iterdir()) == [path]

    def test_aggregate_and_table(self):
        machine = profiled_run()
        aggregate = phase_aggregate(tracers(machine))
        assert EXPECTED_PHASES | set(RECOVERY_PHASES) <= set(aggregate)
        for row in aggregate.values():
            assert row["count"] > 0 and row["ops"] >= 0
        assert aggregate["ctrl.write_data"]["wall_ms"] > 0
        table = render_phase_table(aggregate)
        for name in EXPECTED_PHASES:
            assert name in table
        assert render_phase_table({}) == "(no phases recorded)"

    def test_default_machine_wraps_no_phase(self):
        machine = profiled_run(profile=False)
        assert "write_data" not in vars(machine.controller)
        assert "recover" not in vars(machine)
        assert machine.stats.registry.tracer.roots == []

    def test_profile_needs_telemetry(self):
        with pytest.raises(ConfigError):
            Machine(small_config(), scheme="star", profile=True,
                    telemetry=False)


class TestSpanClocks:
    """Spans on the op clock, with or without ``profile=True``."""

    @pytest.mark.parametrize("scheme", ["star", "anubis", "phoenix"])
    def test_recovery_spans_match_the_report(self, scheme):
        machine = profiled_run(scheme=scheme, crash=False,
                               profile=False)
        machine.crash()
        report = machine.recover()
        roots = machine.recovery_stats.registry.tracer.roots
        assert roots
        assert (sum(root.ops for root in roots)
                == report.nvm_reads + report.nvm_writes > 0)

    def test_nvm_accesses_continue_across_stats_swaps(self):
        machine = profiled_run(crash=False, profile=False)
        nvm = machine.nvm
        before = nvm.accesses()
        assert before == nvm.total_reads() + nvm.total_writes() > 0
        nvm.stats = Stats()
        assert nvm.accesses() == before
        nvm.read_meta(0)
        nvm.stats = machine.stats
        assert nvm.accesses() == before + 1


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_arming_enables_only_the_event_log(self):
        stats = Stats(enabled=False)
        arm_flight_recorder(stats)
        stats.event("force_flush", line=3)
        stats.observe("wpq.occupancy", 5)
        events = stats.registry.events.events()
        assert [event["kind"] for event in events] == ["force_flush"]
        assert dict(stats.registry.histograms()) == {}

    def test_strip_wall_clock_drops_t(self):
        events = [{"seq": 0, "kind": "crash", "t": 1.25}]
        assert strip_wall_clock(events) == [{"seq": 0, "kind": "crash"}]

    def test_flight_tail_tags_and_limits(self):
        config = small_config()
        machine = Machine(config, scheme="star", telemetry=False)
        arm_flight_recorder(machine.stats)
        machine.run(make_workload("hash", config.num_data_lines,
                                  operations=40, seed=4).ops())
        machine.crash()
        machine.recover()
        tail = flight_tail(machine)
        assert tail
        assert all("t" not in event for event in tail)
        phases = {event["phase"] for event in tail}
        assert "recovery" in phases
        assert len(flight_tail(machine, limit=2)) == 2

    def test_failing_case_ships_events_tail_end_to_end(self, tmp_path):
        spec = CampaignSpec(cases=8, seed=1, schemes=["star"],
                            workloads=["hash"], min_operations=20,
                            max_operations=40, attack_rate=1.0,
                            defect="skip-root-verify")
        spec.validate()
        failing = next(
            result
            for result in (run_case(case, defect=spec.defect)
                           for case in sample_cases(spec))
            if result.failed
        )
        assert failing.events_tail
        assert all("t" not in event for event in failing.events_tail)
        # survives the corpus dict round-trip
        clone = type(failing).from_dict(failing.to_dict())
        assert clone.events_tail == failing.events_tail
        # and lands in the minimized artifact metadata
        minimized = minimize_failure(failing.case, defect=spec.defect,
                                     max_runs=30)
        assert minimized is not None and minimized.events_tail
        _trace, meta_path = write_artifacts(minimized, tmp_path)
        meta = json.loads(meta_path.read_text())
        assert meta["events_tail"] == minimized.events_tail

    def test_passing_case_has_empty_tail(self):
        spec = CampaignSpec(cases=4, seed=2, schemes=["star"],
                            workloads=["hash"], min_operations=10,
                            max_operations=20, attack_rate=0.0)
        spec.validate()
        for case in sample_cases(spec):
            result = run_case(case)
            assert not result.failed
            assert result.events_tail == []

    def test_sanitizer_trip_is_the_last_event(self):
        import pytest

        from repro.sim.sanitize import SanitizeError

        config = small_config()
        machine = Machine(config, scheme="star", telemetry=False,
                          sanitize=True)
        arm_flight_recorder(machine.stats)
        with pytest.raises(SanitizeError):
            machine.nvm.write_data(0, object())
        tail = flight_tail(machine)
        assert tail[-1]["kind"] == "sanitize_trip"
        assert "DataLineImage" in tail[-1]["detail"]
