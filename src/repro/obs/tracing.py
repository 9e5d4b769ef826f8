"""One span model for simulator phases, on two clocks.

Usage::

    with tracer.span("recovery.rebuild", lines=n):
        ...
    tracer.wrap(controller, "write_data", "ctrl.write_data")

Every span carries the **op clock** — the tracer's ``op_clock`` read at
open (``ts``) and close (``ops``, the difference); a machine installs
:meth:`repro.mem.nvm.NVM.accesses`, so it counts NVM line accesses and
is a pure function of the workload — and **host wall time**
(``duration_s``, from :func:`time.perf_counter`). Spans nest into a
tree (children attach to the innermost open span), record keyword
attributes, and when the body raises are tagged with the exception
type before re-raising, so a crashed phase shows where it unwound.
:meth:`SpanTracer.wrap` puts a method behind a span, the way the write
sanitizers wrap the write paths. The tracer keeps the first
``capacity`` root spans and counts the rest in ``dropped``.

The exports take a machine's tracers (run, then recovery, which records
into a registry of its own): :func:`write_chrome_trace` publishes
Chrome trace-event JSON (Perfetto-loadable) whose ``ts``/``dur`` are op
counts, so same-seed runs write bit-identical files, and
:func:`phase_aggregate` totals count, ops and wall time per phase
behind ``star-stats --trace``'s table.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import wraps
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from pathlib import Path

SPAN_CAPACITY = 100_000
"""Retained root spans per tracer; later roots are counted, not kept."""


def _no_op_clock() -> int:
    return 0


class Span:
    """One phase: name, attributes, children, outcome, both clocks."""

    __slots__ = ("name", "attrs", "children", "ts", "ops", "start_s",
                 "duration_s", "error")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.ts = 0
        self.ops = 0
        self.start_s = 0.0
        self.duration_s = 0.0
        self.error: Optional[str] = None

    def to_dict(self) -> dict:
        record: dict = {
            "name": self.name,
            "duration_s": self.duration_s,
            "ops": self.ops,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.error is not None:
            record["error"] = self.error
        if self.children:
            record["children"] = [
                child.to_dict() for child in self.children
            ]
        return record

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return "Span(%s, %d ops, %.3gms, children=%d%s)" % (
            self.name, self.ops, self.duration_s * 1e3,
            len(self.children),
            ", error=%s" % self.error if self.error else "",
        )


class SpanTracer:
    """Builds a tree of spans timed on the op clock and the host clock."""

    def __init__(self, enabled: bool = True,
                 capacity: int = SPAN_CAPACITY) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.op_clock: Callable[[], int] = _no_op_clock
        self.roots: List[Span] = []
        self.dropped = 0
        self._stack: List[Span] = []

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        span = Span(name, attrs)
        span.ts = self.op_clock()
        self._stack.append(span)
        span.start_s = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span.start_s
        span.ops = self.op_clock() - span.ts
        self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._adopt_root(span)

    @contextmanager
    def span(self, name: str,
             **attrs: object) -> Iterator[Optional[Span]]:
        """Open a span; nesting and both clocks are automatic."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, attrs)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Run every later call of ``obj.method`` inside a span ``name``."""
        inner = getattr(obj, method)
        open_span, close_span = self._open, self._close

        @wraps(inner)
        def traced(*args: object, **kwargs: object) -> object:
            span = open_span(name, {})
            try:
                return inner(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                close_span(span)

        setattr(obj, method, traced)

    def _adopt_root(self, span: Span) -> None:
        if len(self.roots) < self.capacity:
            self.roots.append(span)
        else:
            self.dropped += 1

    def adopt(self, spans: List[Span]) -> None:
        """Attach completed root spans recorded by another tracer."""
        for span in spans:
            self._adopt_root(span)

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def to_list(self) -> List[dict]:
        return [span.to_dict() for span in self.roots]

    def reset(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self.dropped = 0


# ----------------------------------------------------------------------
# exports over a machine's tracers
# ----------------------------------------------------------------------
def _with_depth(span: Span, depth: int) -> Iterator[Tuple[Span, int]]:
    yield span, depth
    for child in span.children:
        yield from _with_depth(child, depth + 1)


def chrome_trace(tracers: Sequence[SpanTracer]) -> Dict:
    """Chrome trace-event JSON (Perfetto-loadable) on the op clock.

    ``ts``/``dur`` carry the op clock (presented in the format's
    microsecond unit), so the file is bit-identical across same-seed
    runs. Events are sorted by ``(ts, -dur, depth)`` so parents precede
    their children at equal start points; ties keep tracer order.
    """
    spans = [
        entry
        for tracer in tracers
        for root in tracer.roots
        for entry in _with_depth(root, 0)
    ]
    spans.sort(key=lambda entry: (entry[0].ts, -entry[0].ops, entry[1]))
    return {
        "traceEvents": [
            {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": span.ts,
                "dur": span.ops,
                "pid": 0,
                "tid": 0,
                "args": {"ops": span.ops},
            }
            for span, _depth in spans
        ],
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "nvm-op-counter",
            "dropped": sum(tracer.dropped for tracer in tracers),
        },
    }


def write_chrome_trace(path: Union[str, "Path"],
                       tracers: Sequence[SpanTracer]) -> None:
    """Publish :func:`chrome_trace` at ``path`` atomically."""
    # tmp-write + os.replace: trace consumers (the CI cmp step,
    # a browser pointed at a live run directory) must never see a
    # torn JSON prefix
    tmp = "%s.tmp" % path
    with open(tmp, "w") as handle:
        json.dump(chrome_trace(tracers), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def phase_aggregate(tracers: Sequence[SpanTracer]) -> Dict[str, Dict]:
    """Per-phase totals: span count, op-clock volume and wall time.

    Nested spans are *inclusive* (a ``tree.update`` inside
    ``ctrl.write_data`` counts toward both), matching how flame views
    read.
    """
    table: Dict[str, Dict] = {}
    for tracer in tracers:
        for root in tracer.roots:
            for span in root.walk():
                row = table.setdefault(
                    span.name, {"count": 0, "ops": 0, "wall_ms": 0.0},
                )
                row["count"] += 1
                row["ops"] += span.ops
                row["wall_ms"] += span.duration_s * 1000.0
    return {name: table[name] for name in sorted(table)}
