"""Terminal rendering of telemetry snapshots.

All functions take the plain-dict snapshot produced by
:func:`repro.obs.export.telemetry_snapshot`, so they work equally on a
live run and on a JSON dump loaded from disk (``star-stats`` uses both
paths).
"""

from __future__ import annotations

from typing import Dict, List, Optional

BAR_WIDTH = 32
SPAN_TREE_ROOTS = 20
"""Root spans :func:`render_span_tree` prints before eliding the rest."""


def _bar(count: int, peak: int, width: int = BAR_WIDTH) -> str:
    if peak <= 0:
        return ""
    length = max(1, round(width * count / peak)) if count else 0
    return "#" * length


def render_counters(counters: Dict[str, int],
                    prefix: Optional[str] = None) -> str:
    """Aligned ``name value`` lines, optionally one subsystem only."""
    names = sorted(
        name for name in counters
        if prefix is None or name.startswith(prefix)
    )
    if not names:
        return "(no counters%s)" % (
            " matching %r" % prefix if prefix else ""
        )
    pad = max(len(name) for name in names)
    return "\n".join(
        "%-*s %d" % (pad, name, counters[name]) for name in names
    )


def render_gauges(gauges: Dict[str, dict]) -> str:
    if not gauges:
        return "(no gauges)"
    pad = max(len(name) for name in gauges)
    return "\n".join(
        "%-*s %g (high %g)"
        % (pad, name, gauges[name]["value"], gauges[name]["high"])
        for name in sorted(gauges)
    )


def render_histogram(name: str, histogram: dict) -> str:
    """One histogram as a labelled ASCII bar chart."""
    header = "%s  n=%d mean=%.3g min=%g max=%g" % (
        name, histogram["count"], histogram["mean"],
        histogram["min"] if histogram["min"] is not None else 0,
        histogram["max"] if histogram["max"] is not None else 0,
    )
    buckets = histogram.get("buckets") or []
    if not buckets:
        return header + "\n  (empty)"
    peak = max(count for _upper, count in buckets)
    lines = [header]
    for upper, count in buckets:
        lines.append(
            "  le %-10g %7d %s" % (upper, count, _bar(count, peak))
        )
    return "\n".join(lines)


def render_histograms(histograms: Dict[str, dict],
                      prefix: Optional[str] = None) -> str:
    names = sorted(
        name for name in histograms
        if prefix is None or name.startswith(prefix)
    )
    if not names:
        return "(no histograms)"
    return "\n\n".join(
        render_histogram(name, histograms[name]) for name in names
    )


def render_span_tree(spans: List[dict]) -> str:
    """The span forest as an indented tree with per-phase op counts and
    timings; a profiled run holds thousands of roots, so only the first
    :data:`SPAN_TREE_ROOTS` print."""
    if not spans:
        return "(no spans)"
    lines: List[str] = []
    if len(spans) > SPAN_TREE_ROOTS:
        lines.append("(showing first %d of %d root spans)"
                     % (SPAN_TREE_ROOTS, len(spans)))

    def walk(span: dict, indent: int) -> None:
        attrs = span.get("attrs") or {}
        detail = " ".join(
            "%s=%s" % (key, attrs[key]) for key in sorted(attrs)
        )
        error = span.get("error")
        lines.append("%s%-*s %8d ops %9.3f ms%s%s" % (
            "  " * indent,
            max(1, 40 - 2 * indent), span["name"],
            span["ops"], span["duration_s"] * 1e3,
            "  " + detail if detail else "",
            "  [error: %s]" % error if error else "",
        ))
        for child in span.get("children") or []:
            walk(child, indent + 1)

    for root in spans[:SPAN_TREE_ROOTS]:
        walk(root, 0)
    return "\n".join(lines)


def render_phase_table(aggregate: Dict[str, Dict]) -> str:
    """A fixed-width per-phase table for ``star-stats --trace``."""
    if not aggregate:
        return "(no phases recorded)"
    width = max(len(name) for name in aggregate)
    lines = ["%-*s %10s %12s %12s"
             % (width, "phase", "count", "ops", "wall_ms")]
    for name, row in aggregate.items():
        lines.append(
            "%-*s %10d %12d %12.3f"
            % (width, name, row["count"], row["ops"], row["wall_ms"])
        )
    return "\n".join(lines)


def render_events(events: dict, limit: int = 20) -> str:
    """The tail of the event log, one line per event."""
    entries = events.get("entries") or []
    dropped = events.get("dropped", 0)
    lines: List[str] = []
    if dropped:
        lines.append("(%d older events dropped from the ring)" % dropped)
    shown = entries[-limit:] if limit else entries
    if len(entries) > len(shown):
        lines.append("(showing last %d of %d retained)"
                     % (len(shown), len(entries)))
    for event in shown:
        fields = " ".join(
            "%s=%s" % (key, event[key])
            for key in sorted(event)
            if key not in ("seq", "t", "kind")
        )
        lines.append("#%-6d %10.6fs %-14s %s" % (
            event["seq"], event["t"], event["kind"], fields
        ))
    if not lines:
        return "(no events)"
    return "\n".join(lines)


def render_snapshot(snapshot: dict, prefix: Optional[str] = None,
                    events_limit: int = 20) -> str:
    """A full pretty-printed telemetry report (``star-stats`` body)."""
    sections = [
        ("counters", render_counters(
            snapshot.get("counters", {}), prefix
        )),
        ("gauges", render_gauges(snapshot.get("gauges", {}))),
        ("histograms", render_histograms(
            snapshot.get("histograms", {}), prefix
        )),
        ("spans", render_span_tree(snapshot.get("spans", []))),
        ("events", render_events(
            snapshot.get("events", {}), events_limit
        )),
    ]
    out: List[str] = []
    for title, body in sections:
        out.append("== %s %s" % (title, "=" * max(1, 60 - len(title))))
        out.append(body)
        out.append("")
    return "\n".join(out).rstrip() + "\n"
