"""Exporters: JSON snapshot and Prometheus text exposition format.

The JSON snapshot is the canonical machine-readable dump (it is what
``RunResult.extras["telemetry"]`` carries and what ``star-stats
--json`` writes). The Prometheus exporter renders the registry in the
text exposition format — ``_total`` counters, gauges, and cumulative
``_bucket{le="..."}`` histogram series — with the original dotted
metric name preserved in the HELP line (escaped per the format's
rules). :func:`parse_prometheus_text` is the matching reader used by
the round-trip tests and by anything that wants to scrape a dump back.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset.

    >>> sanitize_metric_name("nvm.data_writes")
    'nvm_data_writes'
    >>> sanitize_metric_name("9lives")
    '_9lives'
    """
    sanitized = _NAME_OK.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_help(text: str) -> str:
    """Escape a HELP string: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value: backslash, double-quote and newline."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus_text(registry: MetricRegistry,
                       namespace: str = "star") -> str:
    """Render the registry in the Prometheus text exposition format."""
    prefix = sanitize_metric_name(namespace) + "_" if namespace else ""
    lines: List[str] = []
    for name, value in registry.counters():
        metric = prefix + sanitize_metric_name(name) + "_total"
        lines.append("# HELP %s counter %s" % (metric, escape_help(name)))
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %d" % (metric, value))
    for name, gauge in registry.gauges():
        metric = prefix + sanitize_metric_name(name)
        lines.append("# HELP %s gauge %s" % (metric, escape_help(name)))
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _format_number(gauge.value)))
        lines.append("%s{watermark=\"high\"} %s"
                     % (metric, _format_number(gauge.high)))
    for name, histogram in registry.histograms():
        metric = prefix + sanitize_metric_name(name)
        lines.append("# HELP %s histogram %s"
                     % (metric, escape_help(name)))
        lines.append("# TYPE %s histogram" % metric)
        for upper, cumulative in histogram.cumulative_buckets():
            lines.append(
                '%s_bucket{le="%s"} %d'
                % (metric, escape_label_value(_format_number(upper)),
                   cumulative)
            )
        lines.append("%s_sum %s"
                     % (metric, _format_number(float(histogram.total))))
        lines.append("%s_count %d" % (metric, histogram.count))
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$'
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_SEQUENCE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(text: str) -> str:
    r"""Invert :func:`escape_label_value` with one left-to-right pass.

    Sequential ``str.replace`` calls are *not* an inverse: the literal
    two-character value ``\n`` (backslash, letter n) escapes to the
    three characters ``\\n``, but a replace-``\n``-first pipeline finds
    the trailing two characters and yields backslash + newline — the
    backslash pair was consumed half-and-half by two different passes.
    Scanning escape sequences left to right consumes each backslash
    exactly once. Unknown escape sequences pass through verbatim,
    matching the Prometheus text-format reference parsers.
    """

    def _one(match: "re.Match[str]") -> str:
        char = match.group(1)
        return _UNESCAPE_MAP.get(char, match.group(0))

    return _ESCAPE_SEQUENCE.sub(_one, text)


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back into ``(name, labels) -> value``.

    Labels are a sorted tuple of ``(key, value)`` pairs. HELP/TYPE
    comment lines are skipped. This is the inverse the exporter tests
    round-trip through.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError("unparseable exposition line: %r" % line)
        labels: List[Tuple[str, str]] = []
        if match.group("labels"):
            for key, value in _LABEL.findall(match.group("labels")):
                labels.append((key, _unescape_label_value(value)))
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples


def registry_snapshot(registry: MetricRegistry) -> Dict:
    """The mergeable (counters/gauges/histograms) slice of a registry.

    Spans and events are left out: they are bulky, and the live plane
    (:mod:`repro.obs.live`) aggregates *metrics*; event tails ship
    through the flight recorder instead (:mod:`repro.obs.flight`).
    """
    return {
        "counters": dict(registry.counters()),
        "gauges": {
            name: {"value": gauge.value, "high": gauge.high}
            for name, gauge in registry.gauges()
        },
        "histograms": {
            name: histogram.to_dict()
            for name, histogram in registry.histograms()
        },
    }


def telemetry_snapshot(registry: MetricRegistry,
                       events_limit: Optional[int] = None) -> dict:
    """The full registry as one JSON-ready dict: the
    :func:`registry_snapshot` plus spans and events."""
    events = registry.events
    retained = (
        events.events() if events_limit is None
        else events.tail(events_limit)
    )
    snapshot = registry_snapshot(registry)
    snapshot["spans"] = registry.tracer.to_list()
    snapshot["events"] = {
        "dropped": events.dropped,
        "entries": retained,
    }
    return snapshot


def to_json(registry: MetricRegistry, indent: int = 2) -> str:
    """The telemetry snapshot as a JSON document."""
    return json.dumps(
        telemetry_snapshot(registry), indent=indent, default=str
    )
