"""Unit and integration tests for the telemetry subsystem (repro.obs).

Covers the ISSUE acceptance points: histogram bucketing boundaries,
span nesting and exception unwinding, event-log ring-buffer wraparound,
Prometheus-text exporter escaping and round-tripping, and the
end-to-end surfacing through ``RunResult.extras`` and ``star-stats``.
"""

import json
import math

import pytest

from repro.obs.events import EventLog
from repro.obs.export import (
    escape_help,
    escape_label_value,
    parse_prometheus_text,
    sanitize_metric_name,
    telemetry_snapshot,
    to_json,
    to_prometheus_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    bucket_exponent,
)
from repro.obs.render import (
    SPAN_TREE_ROOTS,
    render_counters,
    render_events,
    render_histogram,
    render_snapshot,
    render_span_tree,
)
from repro.obs.tracing import SpanTracer


# ----------------------------------------------------------------------
# bucketing
# ----------------------------------------------------------------------
class TestBucketExponent:
    def test_integer_power_of_two_boundaries(self):
        # a value v lands in the smallest bucket with v <= 2**e
        assert bucket_exponent(1) == 0
        assert bucket_exponent(2) == 1
        assert bucket_exponent(3) == 2
        assert bucket_exponent(4) == 2
        assert bucket_exponent(5) == 3
        assert bucket_exponent(8) == 3
        assert bucket_exponent(9) == 4

    def test_large_integers(self):
        assert bucket_exponent(2 ** 40) == 40
        assert bucket_exponent(2 ** 40 + 1) == 41

    def test_zero_and_negative_use_zero_bucket(self):
        assert bucket_exponent(0) is None
        assert bucket_exponent(-3) is None
        assert bucket_exponent(-0.5) is None

    def test_float_boundaries(self):
        assert bucket_exponent(1.0) == 0
        assert bucket_exponent(1.5) == 1
        assert bucket_exponent(2.0) == 1
        assert bucket_exponent(2.1) == 2
        assert bucket_exponent(0.5) == -1
        assert bucket_exponent(0.75) == 0

    def test_int_and_float_agree_on_exact_values(self):
        for v in (1, 2, 3, 4, 7, 8, 9, 1024, 1025):
            assert bucket_exponent(v) == bucket_exponent(float(v))


class TestHistogram:
    def test_empty(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min is None and hist.max is None
        assert hist.bucket_counts() == []
        assert hist.cumulative_buckets() == [(math.inf, 0)]
        assert hist.quantile(0.5) == 0.0

    def test_observe_stats(self):
        hist = Histogram("h")
        for v in (1, 2, 3, 10):
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == 16
        assert hist.mean == 4.0
        assert hist.min == 1 and hist.max == 10

    def test_bucket_counts_ascending_with_zero_bucket(self):
        hist = Histogram("h")
        for v in (0, 0, 1, 2, 2, 5):
            hist.observe(v)
        # zero bucket (upper 0.0), then 2**0, 2**1, 2**3
        assert hist.bucket_counts() == [
            (0.0, 2), (1.0, 1), (2.0, 2), (8.0, 1),
        ]

    def test_cumulative_ends_with_inf_total(self):
        hist = Histogram("h")
        for v in (1, 2, 4, 100):
            hist.observe(v)
        cumulative = hist.cumulative_buckets()
        assert cumulative[-1] == (math.inf, 4)
        counts = [count for _upper, count in cumulative]
        assert counts == sorted(counts)

    def test_quantile(self):
        hist = Histogram("h")
        for _ in range(90):
            hist.observe(1)
        for _ in range(10):
            hist.observe(1000)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.99) == 1024.0
        # q=1.0 hits the inf bucket, which reports the observed max
        assert hist.quantile(1.0) == 1024.0 or hist.quantile(1.0) == 1000.0

    def test_quantile_range_check(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_merge(self):
        left, right = Histogram("h"), Histogram("h")
        left.observe(1)
        left.observe(0)
        right.observe(8)
        right.observe(2)
        left.merge(right)
        assert left.count == 4
        assert left.min == 0 and left.max == 8
        assert dict(left.bucket_counts()) == {0.0: 1, 1.0: 1, 2.0: 1,
                                              8.0: 1}

    def test_merge_into_empty(self):
        left, right = Histogram("h"), Histogram("h")
        right.observe(5)
        left.merge(right)
        assert left.count == 1
        assert left.min == 5 and left.max == 5

    def test_to_dict_roundtrips_through_json(self):
        hist = Histogram("h")
        hist.observe(3)
        record = json.loads(json.dumps(hist.to_dict()))
        assert record["count"] == 1
        assert record["buckets"] == [[4.0, 1]]


class TestCounterGauge:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_high_watermark(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high == 5

    def test_gauge_inc_dec(self):
        gauge = Gauge("g")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        assert gauge.high == 3


class TestMetricRegistry:
    def test_lazy_instruments_are_stable(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_iteration_sorted(self):
        registry = MetricRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        assert list(registry.counters()) == [("a", 2), ("b", 1)]

    def test_merge(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.counter("c").inc(1)
        right.counter("c").inc(2)
        right.gauge("g").set(7)
        right.histogram("h").observe(3)
        right.events.emit("ev", x=1)
        with right.tracer.span("s"):
            pass
        left.merge(right)
        assert left.counter("c").value == 3
        assert left.gauge("g").high == 7
        assert left.histogram("h").count == 1
        assert len(left.events) == 1
        assert [span.name for span in left.tracer.roots] == ["s"]

    def test_reset(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        registry.events.emit("ev")
        with registry.tracer.span("s"):
            pass
        registry.reset()
        assert len(registry) == 0
        assert len(registry.events) == 0
        assert registry.tracer.roots == []

    def test_disabled_registry_propagates(self):
        registry = MetricRegistry(enabled=False)
        assert not registry.tracer.enabled
        assert not registry.events.enabled
        registry.events.emit("ev")
        assert len(registry.events) == 0
        with registry.tracer.span("s") as span:
            assert span is None
        assert registry.tracer.roots == []


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_nesting(self):
        tracer = SpanTracer()
        with tracer.span("outer", phase=1):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"phase": 1}
        assert [child.name for child in root.children] == [
            "inner.a", "inner.b",
        ]
        assert root.duration_s >= sum(
            child.duration_s for child in root.children
        ) * 0.0  # durations recorded
        assert all(span.duration_s >= 0 for span in root.walk())

    def test_exception_tags_and_unwinds(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.depth == 0  # fully unwound
        root = tracer.roots[0]
        assert root.error == "RuntimeError"
        assert root.children[0].error == "RuntimeError"
        # the tracer is reusable after the unwind
        with tracer.span("after"):
            pass
        assert [span.name for span in tracer.roots] == ["outer", "after"]

    def test_bounded_roots(self):
        """``capacity`` keeps the first roots and counts the rest."""
        tracer = SpanTracer(capacity=3)
        for i in range(5):
            with tracer.span("s%d" % i):
                with tracer.span("child"):
                    pass
        assert [span.name for span in tracer.roots] == ["s0", "s1", "s2"]
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.roots == [] and tracer.dropped == 0

    def test_op_clock_times_each_span(self):
        tracer = SpanTracer()
        tracer.op_clock = iter(range(100)).__next__
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert (outer.ts, outer.ops) == (0, 3)
        assert (inner.ts, inner.ops) == (1, 1)
        assert outer.to_dict()["ops"] == 3

    def test_wrap_spans_every_call_and_tags_errors(self):
        class Target:
            def work(self, value):
                if value < 0:
                    raise ValueError(value)
                return value * 2

        target = Target()
        tracer = SpanTracer()
        tracer.wrap(target, "work", "target.work")
        assert target.work(3) == 6
        with pytest.raises(ValueError):
            target.work(-1)
        assert [(span.name, span.error) for span in tracer.roots] == [
            ("target.work", None), ("target.work", "ValueError"),
        ]
        assert tracer.depth == 0

    def test_to_dict_shape(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("p", lines=7):
                with tracer.span("q"):
                    raise ValueError()
        record = tracer.to_list()[0]
        assert record["name"] == "p"
        assert record["attrs"] == {"lines": 7}
        assert record["error"] == "ValueError"
        assert record["children"][0]["name"] == "q"
        # leaf spans omit empty keys
        assert "children" not in record["children"][0]

    def test_walk_depth_first(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [span.name for span in tracer.roots[0].walk()]
        assert names == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class TestEventLog:
    def test_seq_and_fields(self):
        log = EventLog()
        log.emit("meta_evict", addr=64, dirty=True)
        log.emit("force_flush")
        events = log.events()
        assert [event["seq"] for event in events] == [0, 1]
        assert events[0]["kind"] == "meta_evict"
        assert events[0]["addr"] == 64 and events[0]["dirty"] is True
        assert events[0]["t"] <= events[1]["t"]

    def test_ring_wraparound(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("ev", i=i)
        assert len(log) == 4
        assert log.dropped == 6
        # oldest retained is seq 6; numbering survives the wrap
        assert [event["seq"] for event in log.events()] == [6, 7, 8, 9]
        assert [event["i"] for event in log.events()] == [6, 7, 8, 9]

    def test_tail(self):
        log = EventLog()
        for i in range(5):
            log.emit("ev", i=i)
        assert [event["i"] for event in log.tail(2)] == [3, 4]
        assert log.tail(0) == []
        assert len(log.tail(100)) == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_sink_keeps_dropped_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(capacity=2)
        log.open_sink(path)
        for i in range(5):
            log.emit("ev", i=i)
        log.close_sink()
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        # the file has all 5 even though the ring kept only 2
        assert [line["i"] for line in lines] == [0, 1, 2, 3, 4]
        assert len(log) == 2
        # emits after close_sink don't fail and don't write
        log.emit("ev", i=5)
        assert len(open(path).read().splitlines()) == 5

    def test_to_jsonl(self):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b")
        lines = log.to_jsonl().splitlines()
        assert json.loads(lines[0])["kind"] == "a"
        assert json.loads(lines[1])["seq"] == 1

    def test_adopt_resequences(self):
        left, right = EventLog(), EventLog()
        left.emit("mine")
        right.emit("theirs", x=3)
        left.adopt(right)
        assert [event["seq"] for event in left.events()] == [0, 1]
        assert left.events()[1]["kind"] == "theirs"
        assert left.events()[1]["x"] == 3

    def test_disabled(self):
        log = EventLog(enabled=False)
        log.emit("ev")
        assert len(log) == 0 and log.seq == 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_sanitize_names(self):
        assert sanitize_metric_name("nvm.meta_writes") == "nvm_meta_writes"
        assert sanitize_metric_name("a-b c") == "a_b_c"
        assert sanitize_metric_name("2fast") == "_2fast"

    def test_escaping(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"
        assert escape_label_value('say "hi"\n') == 'say \\"hi\\"\\n'

    def test_counter_and_gauge_lines(self):
        registry = MetricRegistry()
        registry.counter("nvm.data_writes").inc(12)
        registry.gauge("wpq.depth").set(3)
        registry.gauge("wpq.depth").set(1)
        text = to_prometheus_text(registry)
        assert "star_nvm_data_writes_total 12" in text
        assert "star_wpq_depth 1" in text
        assert 'star_wpq_depth{watermark="high"} 3' in text
        assert "# TYPE star_nvm_data_writes_total counter" in text

    def test_histogram_series(self):
        registry = MetricRegistry()
        hist = registry.histogram("depth")
        for v in (1, 2, 2, 5):
            hist.observe(v)
        text = to_prometheus_text(registry, namespace="x")
        assert 'x_depth_bucket{le="1"} 1' in text
        assert 'x_depth_bucket{le="2"} 3' in text
        assert 'x_depth_bucket{le="8"} 4' in text
        assert 'x_depth_bucket{le="+Inf"} 4' in text
        assert "x_depth_sum 10" in text
        assert "x_depth_count 4" in text

    def test_round_trip(self):
        registry = MetricRegistry()
        registry.counter("a.hits").inc(7)
        registry.gauge("b.level").set(2.5)
        for v in (0, 1, 3):
            registry.histogram("c.dist").observe(v)
        samples = parse_prometheus_text(to_prometheus_text(registry))
        assert samples[("star_a_hits_total", ())] == 7
        assert samples[("star_b_level", ())] == 2.5
        assert samples[
            ("star_b_level", (("watermark", "high"),))
        ] == 2.5
        assert samples[("star_c_dist_bucket", (("le", "0"),))] == 1
        assert samples[("star_c_dist_bucket", (("le", "+Inf"),))] == 3
        assert samples[("star_c_dist_count", ())] == 3

    def test_round_trip_label_escaping(self):
        parsed = parse_prometheus_text(
            'm{k="a\\"b\\nc"} 1\n'
        )
        assert parsed[("m", (("k", 'a"b\nc'),))] == 1.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("!! not exposition format")

    def test_empty_registry(self):
        assert to_prometheus_text(MetricRegistry()) == ""

    def test_no_namespace(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        assert "c_total 1" in to_prometheus_text(registry, namespace="")


class TestSnapshotAndJson:
    def test_snapshot_shape(self):
        registry = MetricRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(4)
        registry.events.emit("ev", x=1)
        with registry.tracer.span("s"):
            pass
        snapshot = telemetry_snapshot(registry)
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"]["g"] == {"value": 1, "high": 1}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["spans"][0]["name"] == "s"
        assert snapshot["events"]["dropped"] == 0
        assert snapshot["events"]["entries"][0]["kind"] == "ev"

    def test_snapshot_events_limit(self):
        registry = MetricRegistry()
        for i in range(5):
            registry.events.emit("ev", i=i)
        snapshot = telemetry_snapshot(registry, events_limit=2)
        assert [event["i"]
                for event in snapshot["events"]["entries"]] == [3, 4]

    def test_to_json_parses(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        payload = json.loads(to_json(registry))
        assert payload["counters"] == {"c": 1}


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_counters_prefix_filter(self):
        text = render_counters({"nvm.w": 1, "ctrl.x": 2}, prefix="nvm.")
        assert "nvm.w" in text and "ctrl.x" not in text
        assert "(no counters" in render_counters({}, prefix="zz.")

    def test_histogram_bars(self):
        hist = Histogram("h")
        for v in (1, 1, 1, 4):
            hist.observe(v)
        text = render_histogram("h", hist.to_dict())
        assert "n=4" in text
        assert "le 1" in text and "###" in text

    def test_span_tree_error_marker(self):
        tracer = SpanTracer()
        with pytest.raises(KeyError):
            with tracer.span("phase", lines=3):
                raise KeyError("x")
        text = render_span_tree(tracer.to_list())
        assert "phase" in text
        assert "lines=3" in text
        assert "[error: KeyError]" in text

    def test_span_tree_shows_ops_and_elides_extra_roots(self):
        tracer = SpanTracer()
        tracer.op_clock = iter(range(0, 1000, 7)).__next__
        for i in range(SPAN_TREE_ROOTS + 5):
            with tracer.span("root%d" % i):
                pass
        text = render_span_tree(tracer.to_list())
        lines = text.splitlines()
        assert lines[0] == "(showing first %d of %d root spans)" % (
            SPAN_TREE_ROOTS, SPAN_TREE_ROOTS + 5)
        assert len(lines) == SPAN_TREE_ROOTS + 1
        assert "root%d " % (SPAN_TREE_ROOTS - 1) in text
        assert "root%d " % SPAN_TREE_ROOTS not in text
        assert "7 ops" in lines[1]
        assert not render_span_tree(
            tracer.to_list()[:3]).startswith("(showing")

    def test_events_dropped_notice(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit("ev", i=i)
        text = render_events({"dropped": log.dropped,
                              "entries": log.events()})
        assert "3 older events dropped" in text

    def test_full_snapshot_sections(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
        text = render_snapshot(telemetry_snapshot(registry))
        for section in ("counters", "gauges", "histograms", "spans",
                        "events"):
            assert "== %s " % section in text


# ----------------------------------------------------------------------
# end-to-end: machine runs carry telemetry; star-stats renders it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def star_run_result():
    from repro.bench.runner import config_for_scale, run_one

    return run_one(config_for_scale("smoke"), "star", "hash", 200,
                   crash_and_recover=True)


class TestIntegration:
    def test_result_extras_telemetry(self, star_run_result):
        telemetry = star_run_result.extras["telemetry"]
        run, recovery = telemetry["run"], telemetry["recovery"]
        # per-level SIT write counters and the cascade-depth histogram
        assert any(name.startswith("sit.level")
                   for name in run["counters"])
        assert run["histograms"]["ctrl.cascade_depth"]["count"] > 0
        assert run["histograms"]["sit.persist_level"]["count"] > 0
        # crash event recorded in the run log
        kinds = {event["kind"] for event in run["events"]["entries"]}
        assert "crash" in kinds
        # recovery spans: the 4-phase tree with timings
        root = recovery["spans"][0]
        assert root["name"] == "recovery.star"
        phases = [child["name"] for child in root["children"]]
        assert phases == ["recovery.locate", "recovery.restore",
                          "recovery.remac", "recovery.verify"]
        assert all(child["duration_s"] >= 0
                   for child in root["children"])
        assert any(event["kind"] == "recover_line"
                   for event in recovery["events"]["entries"])

    def test_result_telemetry_properties(self, star_run_result):
        assert star_run_result.telemetry is not None
        assert star_run_result.recovery_telemetry is not None
        assert (star_run_result.telemetry["counters"]
                == star_run_result.extras["telemetry"]["run"]["counters"])

    def test_telemetry_disabled_run(self):
        from repro.bench.runner import config_for_scale, run_one

        result = run_one(config_for_scale("smoke"), "star", "hash", 100,
                         crash_and_recover=True, telemetry=False)
        # no snapshot bundle — but counters still counted into stats
        assert "telemetry" not in result.extras
        assert result.telemetry is None
        assert result.recovery_telemetry is None
        assert result.stats["nvm.data_writes"] > 0

    def test_events_jsonl_streams(self, tmp_path):
        from repro.bench.runner import config_for_scale, run_one

        path = str(tmp_path / "ev.jsonl")
        run_one(config_for_scale("smoke"), "star", "hash", 100,
                crash_and_recover=True, events_jsonl=path)
        lines = open(path).read().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"seq", "t", "kind"} <= set(first)
        # the trail is complete: recovery events stream into the same
        # sink even though they live in the separate recovery registry
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "crash" in kinds
        assert "recover_line" in kinds

    def test_star_stats_cli(self, capsys, tmp_path):
        from repro.tools.stats import main

        json_path = str(tmp_path / "t.json")
        prom_path = str(tmp_path / "t.prom")
        code = main([
            "--workload", "hash", "--operations", "150",
            "--memory-mb", "8", "--cache-kb", "4",
            "--json", json_path, "--prom", prom_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== counters " in out
        assert "== recovery " in out
        assert "recovery.star" in out
        payload = json.load(open(json_path))
        assert "run" in payload and "recovery" in payload
        # the Prometheus dump round-trips through the parser
        samples = parse_prometheus_text(open(prom_path).read())
        assert any(name.startswith("star_recovery_")
                   for name, _labels in samples)

    def test_star_stats_prefix_filter(self, capsys):
        from repro.tools.stats import main

        main(["--workload", "hash", "--operations", "100",
              "--memory-mb", "8", "--cache-kb", "4",
              "--no-crash", "--prefix", "nvm."])
        out = capsys.readouterr().out
        counters = out.split("== counters ")[1].split("\n== ")[0]
        assert "nvm." in counters
        assert "ctrl." not in counters
