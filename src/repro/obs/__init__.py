"""Observability: metric registry, span tracing, structured event log.

The telemetry substrate every simulator layer reports into:

* :class:`MetricRegistry` — counters (the seed's flat ``Stats``
  namespace now lives here), gauges, and log-scale histograms;
* :class:`SpanTracer` — nested, exception-aware phase spans on two
  clocks, the deterministic NVM op clock and host wall time
  (``with tracer.span("recovery.rebuild", lines=n): ...``, or
  ``tracer.wrap(obj, method, name)``), exported as Chrome traces by
  :func:`repro.obs.tracing.write_chrome_trace`;
* :class:`EventLog` — a bounded ring of causally ordered structured
  events (``meta_evict``, ``force_flush``, ``ra_spill``, ``crash``,
  ``recover_line``) with an opt-in JSONL file sink;
* exporters (:func:`telemetry_snapshot`, :func:`to_json`,
  :func:`to_prometheus_text`) and terminal renderers
  (:mod:`repro.obs.render`, behind the ``star-stats`` tool).

Every :class:`~repro.util.stats.Stats` instance owns one registry, so
any component holding the machine's stats object can record
distributions, spans and events without new plumbing. See
``docs/observability.md`` for the metric-name catalogue and span
conventions.
"""

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
from repro.obs.tracing import Span, SpanTracer

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Span",
    "SpanTracer",
    "bucket_exponent",
    "escape_help",
    "escape_label_value",
    "parse_prometheus_text",
    "sanitize_metric_name",
    "telemetry_snapshot",
    "to_json",
    "to_prometheus_text",
]
