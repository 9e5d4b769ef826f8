"""Tests for the live observability plane (repro.obs.live, star-top).

Covers the ISSUE acceptance points: atomic heartbeat publication and
throttling, corrupt-snapshot tolerance, registry snapshot round-trips,
parent-side aggregation (including equivalence with a serial run's
registry), campaign journal checkpoints and the throughput/ETA
derivation behind ``star-lab status``, the ``star-top`` status
assembly and its read-only HTTP endpoint, and the label-value
escape/unescape round-trip pin.
"""

import json
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.runner import config_for_scale
from repro.fuzz.executor import run_campaign
from repro.fuzz.sampling import CampaignSpec
from repro.lab.cli import main as lab_main
from repro.lab.clock import FakeClock
from repro.lab.farm import run_local
from repro.lab.gridfile import resolve_specs
from repro.lab.scheduler import checkpoint_rates, read_journals
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore
from repro.obs.catalog import lookup
from repro.obs.export import (
    _unescape_label_value,
    escape_label_value,
    parse_prometheus_text,
)
from repro.obs.live import (
    HeartbeatWriter,
    aggregate_heartbeats,
    registry_from_snapshot,
    registry_snapshot,
    scan_heartbeats,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.top import build_status, render_dashboard, serve
from repro.util.stats import Stats


def sample_registry():
    registry = MetricRegistry(enabled=True)
    registry.counter("fuzz.cases").value = 7
    registry.counter("fuzz.failures").value = 2
    registry.gauge("nvm.data_lines_touched").set(5.0)
    registry.gauge("nvm.data_lines_touched").set(3.0)
    registry.histogram("wpq.occupancy").observe(4)
    registry.histogram("wpq.occupancy").observe(900)
    return registry


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestRegistrySnapshot:
    def test_round_trip_preserves_instruments(self):
        registry = sample_registry()
        clone = registry_from_snapshot(registry_snapshot(registry))
        assert dict(clone.counters()) == dict(registry.counters())
        assert {n: (g.value, g.high) for n, g in clone.gauges()} == {
            n: (g.value, g.high) for n, g in registry.gauges()
        }
        assert {n: h.to_dict() for n, h in clone.histograms()} == {
            n: h.to_dict() for n, h in registry.histograms()
        }

    def test_round_trip_survives_json(self):
        registry = sample_registry()
        payload = json.loads(json.dumps(registry_snapshot(registry)))
        clone = registry_from_snapshot(payload)
        assert dict(clone.counters()) == dict(registry.counters())


# ----------------------------------------------------------------------
# heartbeat writing / reading
# ----------------------------------------------------------------------
class TestHeartbeatWriter:
    def test_writes_heartbeat_and_metrics(self, tmp_path):
        clock = FakeClock(start=100.0)
        writer = HeartbeatWriter(tmp_path, "w0", clock=clock,
                                 interval_s=0.0)
        assert writer.write(registry=sample_registry(),
                            progress={"cases": 3})
        snapshots = scan_heartbeats(tmp_path)[0]
        assert len(snapshots) == 1
        beat = snapshots[0]
        assert beat["worker"] == "w0"
        assert beat["seq"] == 0
        assert beat["wall_s"] == 100.0
        assert beat["progress"] == {"cases": 3}
        assert beat["metrics"]["counters"]["fuzz.cases"] == 7

    def test_latest_snapshot_replaces_previous(self, tmp_path):
        clock = FakeClock()
        writer = HeartbeatWriter(tmp_path, "w0", clock=clock,
                                 interval_s=0.0)
        writer.write(progress={"cases": 1})
        writer.write(progress={"cases": 2})
        snapshots = scan_heartbeats(tmp_path)[0]
        assert len(snapshots) == 1
        assert snapshots[0]["seq"] == 1
        assert snapshots[0]["progress"] == {"cases": 2}

    def test_throttles_within_interval(self, tmp_path):
        clock = FakeClock()
        writer = HeartbeatWriter(tmp_path, "w0", clock=clock,
                                 interval_s=1.0)
        assert writer.write()
        assert not writer.write()          # same instant: throttled
        clock.advance(0.5)
        assert not writer.write()          # still inside the interval
        assert writer.write(force=True)    # force bypasses
        clock.advance(1.5)
        assert writer.write()

    def test_counts_heartbeats_when_stats_supplied(self, tmp_path):
        stats = Stats()
        writer = HeartbeatWriter(tmp_path, "w0", clock=FakeClock(),
                                 interval_s=0.0, stats=stats)
        writer.write()
        writer.write()
        assert stats.get("live.heartbeats_written") == 2

    def test_corrupt_files_are_skipped(self, tmp_path):
        HeartbeatWriter(tmp_path, "good", clock=FakeClock(),
                        interval_s=0.0).write()
        (tmp_path / "bad.jsonl").write_text("{not json\n")
        (tmp_path / "empty.jsonl").write_text("")
        snapshots = scan_heartbeats(tmp_path)[0]
        assert [s["worker"] for s in snapshots] == ["good"]

    def test_missing_directory_reads_empty(self, tmp_path):
        assert scan_heartbeats(tmp_path / "nope")[0] == []
        assert scan_heartbeats(tmp_path / "nope") == ([], 0)


class TestCorruptHeartbeats:
    """A worker dying mid-``os.replace`` must be *counted*, not just
    skipped: zero-byte files, half-written lines and truncated metrics
    records all surface through ``scan_heartbeats``'s damage count and
    the ``live.heartbeats_corrupt`` gauge."""

    def _good(self, tmp_path, name="good"):
        HeartbeatWriter(tmp_path, name, clock=FakeClock(start=5.0),
                        interval_s=0.0).write()

    def test_zero_byte_file_counts_corrupt(self, tmp_path):
        self._good(tmp_path)
        (tmp_path / "dead.jsonl").write_text("")
        snapshots, corrupt = scan_heartbeats(tmp_path)
        assert [s["worker"] for s in snapshots] == ["good"]
        assert corrupt == 1

    def test_half_line_file_counts_corrupt(self, tmp_path):
        self._good(tmp_path)
        # a heartbeat record cut off mid-write
        (tmp_path / "dead.jsonl").write_text(
            '{"type": "heartbeat", "worker": "dea')
        snapshots, corrupt = scan_heartbeats(tmp_path)
        assert [s["worker"] for s in snapshots] == ["good"]
        assert corrupt == 1

    def test_truncated_metrics_keeps_the_heartbeat(self, tmp_path):
        """The liveness line survived the crash; count the damage but
        keep the worker visible."""
        (tmp_path / "torn.jsonl").write_text(
            json.dumps({"type": "heartbeat", "worker": "torn",
                        "seq": 3, "wall_s": 9.0, "progress": {}})
            + '\n{"type": "metrics", "metrics": {"coun')
        snapshots, corrupt = scan_heartbeats(tmp_path)
        assert [s["worker"] for s in snapshots] == ["torn"]
        assert snapshots[0]["metrics"] is None
        assert corrupt == 1

    def test_non_object_line_counts_corrupt(self, tmp_path):
        (tmp_path / "weird.jsonl").write_text("[1, 2, 3]\n")
        assert scan_heartbeats(tmp_path) == ([], 1)

    def test_aggregate_surfaces_the_corrupt_gauge(self, tmp_path):
        self._good(tmp_path)
        (tmp_path / "dead.jsonl").write_text("")
        (tmp_path / "torn.jsonl").write_text('{"type": "hear')
        aggregate = aggregate_heartbeats(tmp_path, now_wall=5.0)
        assert aggregate.corrupt == 2
        gauges = {n: g for n, g in aggregate.registry.gauges()}
        assert gauges["live.heartbeats_corrupt"].value == 2.0
        assert gauges["live.workers"].value == 1.0

    def test_clean_directory_reports_zero_corrupt(self, tmp_path):
        self._good(tmp_path)
        aggregate = aggregate_heartbeats(tmp_path, now_wall=5.0)
        assert aggregate.corrupt == 0
        gauges = {n: g for n, g in aggregate.registry.gauges()}
        assert gauges["live.heartbeats_corrupt"].value == 0.0


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class TestAggregation:
    def test_counters_add_across_workers(self, tmp_path):
        clock = FakeClock(start=10.0)
        for name in ("w0", "w1"):
            writer = HeartbeatWriter(tmp_path, name, clock=clock,
                                     interval_s=0.0)
            writer.write(registry=sample_registry())
        aggregate = aggregate_heartbeats(tmp_path, now_wall=10.0)
        counters = dict(aggregate.registry.counters())
        assert counters["fuzz.cases"] == 14
        assert counters["fuzz.failures"] == 4
        gauges = {n: g for n, g in aggregate.registry.gauges()}
        assert gauges["live.workers"].value == 2.0
        assert gauges["live.workers_stale"].value == 0.0
        histogram = dict(aggregate.registry.histograms())
        assert histogram["wpq.occupancy"].count == 4

    def test_stale_workers_flagged(self, tmp_path):
        fresh = HeartbeatWriter(tmp_path, "fresh",
                                clock=FakeClock(start=100.0),
                                interval_s=0.0)
        old = HeartbeatWriter(tmp_path, "old",
                              clock=FakeClock(start=10.0),
                              interval_s=0.0)
        fresh.write()
        old.write()
        aggregate = aggregate_heartbeats(tmp_path, now_wall=105.0,
                                         stale_after_s=30.0)
        by_name = {view.worker: view for view in aggregate.workers}
        assert not by_name["fresh"].stale
        assert by_name["old"].stale
        assert [v.worker for v in aggregate.stale_workers] == ["old"]
        gauges = {n: g for n, g in aggregate.registry.gauges()}
        assert gauges["live.workers_stale"].value == 1.0
        assert gauges["live.snapshot_age_s"].value == 95.0

    def test_live_gauges_are_catalogued(self, tmp_path):
        HeartbeatWriter(tmp_path, "w0", clock=FakeClock(),
                        interval_s=0.0).write(registry=sample_registry())
        aggregate = aggregate_heartbeats(tmp_path, now_wall=0.0)
        for name, _gauge in aggregate.registry.gauges():
            assert lookup(name) is not None, name
        for name, _value in aggregate.registry.counters():
            assert lookup(name) is not None, name

    def test_fuzz_campaign_aggregate_matches_serial_registry(
        self, tmp_path
    ):
        """The equivalence gate: the merged worker registries carry
        exactly the fuzz.* counts the campaign's own registry does."""
        spec = CampaignSpec(cases=6, seed=11, schemes=["star"],
                            workloads=["hash"], min_operations=10,
                            max_operations=20, attack_rate=0.5)
        spec.validate()
        campaign = run_campaign(spec, telemetry_dir=tmp_path,
                                heartbeat_interval_s=0.0)
        aggregate = aggregate_heartbeats(tmp_path, now_wall=1e18)
        merged = {name: value
                  for name, value in aggregate.registry.counters()
                  if name.startswith("fuzz.")}
        serial = {name: value
                  for name, value in campaign.stats.registry.counters()
                  if name.startswith("fuzz.")}
        assert merged == serial
        assert merged["fuzz.cases"] == 6


# ----------------------------------------------------------------------
# campaign checkpoints -> star-lab status rate/eta
# ----------------------------------------------------------------------
def _real_specs(count):
    config = config_for_scale("smoke")
    cells = [("wb", "array"), ("star", "array"), ("wb", "hash")]
    return [
        bench_spec(config, scheme, workload, 30, seed=7)
        for scheme, workload in cells[:count]
    ]


class TestCheckpoints:
    def _journal(self, checkpoints, status="running", remaining=10):
        return {
            "campaign_id": "deadbeef",
            "status": status,
            "counts": {"remaining": remaining},
            "checkpoints": checkpoints,
        }

    def test_rates_from_checkpoint_deltas(self):
        journal = self._journal([
            {"wall_s": 100.0, "stored": 0},
            {"wall_s": 102.0, "stored": 4},
            {"wall_s": 104.0, "stored": 8},
        ])
        throughput, eta, stale = checkpoint_rates(journal,
                                                  now_wall=105.0)
        assert throughput == pytest.approx(2.0)
        assert eta == pytest.approx(5.0)
        assert not stale

    def test_insufficient_history_yields_none(self):
        journal = self._journal([{"wall_s": 1.0, "stored": 0}])
        assert checkpoint_rates(journal) == (None, None, False)
        flat = self._journal([
            {"wall_s": 1.0, "stored": 3},
            {"wall_s": 2.0, "stored": 3},
        ])
        throughput, eta, _stale = checkpoint_rates(flat)
        assert throughput is None and eta is None

    def test_stale_running_campaign_detected(self):
        journal = self._journal([{"wall_s": 100.0, "stored": 1}])
        _t, _e, stale = checkpoint_rates(journal, now_wall=200.0,
                                         stale_after_s=30.0)
        assert stale
        done = self._journal([{"wall_s": 100.0, "stored": 1}],
                             status="complete")
        assert not checkpoint_rates(done, now_wall=200.0)[2]

    def test_scheduler_writes_checkpoints_and_heartbeats(
        self, tmp_path
    ):
        specs = _real_specs(3)
        store = ResultStore(tmp_path / "store")
        clock = FakeClock(start=50.0)
        report = run_local(store, specs, name="chk", clock=clock,
                           telemetry=tmp_path / "tele")
        assert report.ok
        (journal,) = read_journals(store)
        checkpoints = journal["checkpoints"]
        # one initial sample + one per committed cell
        assert len(checkpoints) == 4
        assert checkpoints[-1]["stored"] == 3
        assert all(c["wall_s"] >= 50.0 for c in checkpoints)
        # the coordinator is the one heartbeat writer
        beats = {b["worker"]: b
                 for b in scan_heartbeats(tmp_path / "tele")[0]}
        assert set(beats) == {"coordinator"}
        assert beats["coordinator"]["progress"]["completed"] == 3

    def test_resume_continues_checkpoint_history(self, tmp_path):
        specs = _real_specs(3)
        store = ResultStore(tmp_path / "store")
        run_local(store, specs, name="chk", clock=FakeClock(start=10.0),
                  max_cells=1)
        run_local(store, specs, name="chk", clock=FakeClock(start=20.0))
        (journal,) = read_journals(store)
        stored = [c["stored"] for c in journal["checkpoints"]]
        assert stored == sorted(stored)
        assert stored[0] == 0 and stored[-1] == 3

    def test_status_cli_shows_rate_and_eta(self, tmp_path, capsys):
        specs = _real_specs(1)
        store = ResultStore(tmp_path)
        run_local(store, specs, name="chk", clock=FakeClock())
        store.close()
        assert lab_main(["status", "--store", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "rate" in output and "eta" in output


# ----------------------------------------------------------------------
# star-top
# ----------------------------------------------------------------------
class TestStarTop:
    def _campaign(self, tmp_path):
        store = tmp_path / "store"
        assert lab_main(["run", "--grid", "fuzz-smoke", "--store",
                         str(store), "--telemetry", "--quiet"]) == 0
        return store, store / "telemetry"

    def test_build_status_and_render(self, tmp_path):
        store, telemetry = self._campaign(tmp_path)
        status = build_status(telemetry, store_path=store)
        assert status["campaign"]["status"] == "complete"
        workers = [view["worker"] for view in status["workers"]]
        assert workers == ["coordinator"]
        assert status["metrics"]["counters"]["lab.jobs.completed"] > 0
        for name in status["metrics"]["counters"]:
            assert lookup(name) is not None, name
        text = render_dashboard(status)
        assert "star-top" in text and "coordinator" in text

    def test_aggregate_counts_each_cell_once(self, tmp_path):
        store, telemetry = self._campaign(tmp_path)
        status = build_status(telemetry, store_path=store)
        cells = len(resolve_specs(["fuzz-smoke"]))
        counters = status["metrics"]["counters"]
        assert counters["lab.jobs.completed"] == cells
        assert status["campaign"]["counts"]["completed"] == cells

    def test_http_endpoint_serves_metrics_and_status(self, tmp_path):
        store, telemetry = self._campaign(tmp_path)

        def snapshot():
            status = build_status(telemetry, store_path=store,
                                  now_wall=1e18)
            aggregate = aggregate_heartbeats(telemetry, now_wall=1e18)
            return status, aggregate

        server = serve(0, snapshot)
        try:
            port = server.server_address[1]
            base = "http://127.0.0.1:%d" % port
            metrics = urllib.request.urlopen(
                base + "/metrics").read().decode()
            samples = parse_prometheus_text(metrics)
            assert any(name.startswith("star_live_workers")
                       for name, _labels in samples)
            status = json.loads(urllib.request.urlopen(
                base + "/status").read().decode())
            assert status["campaign"]["status"] == "complete"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope")
        finally:
            server.shutdown()
            server.server_close()

    def test_star_top_cli_once(self, tmp_path, capsys):
        from repro.obs.top import main as top_main

        store, _telemetry = self._campaign(tmp_path)
        capsys.readouterr()
        assert top_main(["--store", str(store), "--once"]) == 0
        output = capsys.readouterr().out
        assert "star-top" in output

    def test_star_top_never_creates_a_store(self, tmp_path, capsys):
        """A store that does not exist yet means no campaign: star-top
        may start before the campaign has created its store."""
        from repro.obs.top import main as top_main

        store = tmp_path / "not-yet"
        assert top_main(["--store", str(store), "--once"]) == 0
        output = capsys.readouterr().out
        assert "star-top" in output and "campaign" not in output
        assert not store.exists()

    def test_top_requires_a_source(self, capsys):
        from repro.obs.top import main as top_main

        assert top_main([]) == 2


class TestFarmHeader:
    """star-top --farm surfaces how workers reach the lease board."""

    def _farm(self, tmp_path, transport):
        farm = tmp_path / "farm"
        (farm / "telemetry").mkdir(parents=True)
        manifest = {"campaign_id": "deadbeef", "name": "smoke",
                    "cells": 4, "lease_s": 60.0,
                    "transport": transport}
        (farm / "farm.json").write_text(json.dumps(manifest))
        return farm

    def test_http_transport_shows_coordinator_url(self, tmp_path):
        farm = self._farm(tmp_path, {
            "kind": "http", "url": "http://coord.example:9433",
        })
        status = build_status(farm / "telemetry", farm_path=farm)
        assert status["farm"]["transport"]["kind"] == "http"
        text = render_dashboard(status)
        assert ("farm: transport http http://coord.example:9433"
                in text)

    def test_file_transport_shows_board_path(self, tmp_path):
        farm = self._farm(tmp_path, {
            "kind": "file", "board": "/mnt/shared/leases.sqlite",
        })
        status = build_status(farm / "telemetry", farm_path=farm)
        text = render_dashboard(status)
        assert ("farm: transport file /mnt/shared/leases.sqlite"
                in text)

    def test_missing_or_corrupt_manifest_is_tolerated(self, tmp_path):
        farm = tmp_path / "farm"
        (farm / "telemetry").mkdir(parents=True)
        status = build_status(farm / "telemetry", farm_path=farm)
        assert status["farm"] is None
        (farm / "farm.json").write_text("{half a manif")
        status = build_status(farm / "telemetry", farm_path=farm)
        assert status["farm"] is None
        assert "farm: transport" not in render_dashboard(status)

    def test_net_counters_render(self, tmp_path):
        farm = self._farm(tmp_path, {"kind": "http",
                                     "url": "http://c:1"})
        status = build_status(farm / "telemetry", farm_path=farm)
        status["metrics"]["counters"].update({
            "lab.net.requests": 120, "lab.net.retries": 3,
            "lab.net.rejects": 2, "lab.net.duplicates": 1,
            "lab.farm.results_shipped": 4,
        })
        text = render_dashboard(status)
        assert "net_req 120" in text
        assert "net_retry 3" in text
        assert "net_reject 2" in text
        assert "net_dup 1" in text
        assert "shipped 4" in text


# ----------------------------------------------------------------------
# escape/unescape round-trip (the exporter asymmetry pin)
# ----------------------------------------------------------------------
class TestLabelValueRoundTrip:
    def test_literal_backslash_n_regression(self):
        # 2-char backslash+n escapes to 3 chars; the old sequential
        # replace() unescape consumed the pair half-and-half
        raw = "\\n"
        assert escape_label_value(raw) == "\\\\n"
        assert _unescape_label_value(escape_label_value(raw)) == raw

    def test_core_escapes(self):
        for raw in ('"', "\\", "\n", '\\"', "\\\n", 'a"b\\c\nd'):
            escaped = escape_label_value(raw)
            assert "\n" not in escaped
            assert _unescape_label_value(escaped) == raw

    def test_unknown_escape_passes_through(self):
        assert _unescape_label_value("\\t") == "\\t"
        assert _unescape_label_value("\\") == "\\"

    @given(st.text(alphabet=st.sampled_from(
        list("abn\\\"\n \t01")), max_size=40))
    def test_round_trip_property(self, raw):
        assert _unescape_label_value(escape_label_value(raw)) == raw

    @given(st.text(max_size=40))
    def test_round_trip_property_full_unicode(self, raw):
        assert _unescape_label_value(escape_label_value(raw)) == raw
