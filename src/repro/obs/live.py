"""Cross-process telemetry shipping: heartbeats + parent aggregation.

The lab's worker pools and the fuzzer's pool workers are
opaque while a campaign executes — their metric registries live in
other processes and only surface (if at all) when the campaign ends.
This module is the live plane underneath ``star-top``:

* :class:`HeartbeatWriter` — each participating process periodically
  publishes one small JSONL snapshot (a liveness record plus an
  optional metrics record) into a shared per-campaign ``telemetry/``
  directory. Publication is atomic (write temp file, ``os.replace``),
  so a reader never sees a torn snapshot, and a crashed worker simply
  stops refreshing its file.
* :func:`scan_heartbeats` / :func:`aggregate_heartbeats` — the
  parent-side reader: collect every worker's latest snapshot, rebuild
  each shipped registry (:func:`registry_from_snapshot`), merge them
  into one campaign-wide :class:`~repro.obs.metrics.MetricRegistry`,
  flag workers whose snapshot has gone stale, and count files a dead
  worker left zero-byte or half-written (``live.heartbeats_corrupt``)
  instead of silently skipping them.

Timestamps use epoch seconds through the sanctioned
:class:`repro.lab.clock.Clock` seam (``clock.wall()``) because
``perf_counter`` zero points are not comparable across processes.
Heartbeat files are advisory observability state: they live under the
store root but are never read by ``star-lab export``, so kill/resume
campaigns stay bit-identical to serial runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.obs.export import registry_snapshot
from repro.obs.metrics import Histogram, MetricRegistry
from repro.util.stats import Stats

if TYPE_CHECKING:
    from repro.lab.clock import Clock

PathLike = Union[str, Path]

SNAPSHOT_VERSION = 1


def registry_from_snapshot(payload: Dict) -> MetricRegistry:
    """Rehydrate a :func:`registry_snapshot` into a live registry."""
    registry = MetricRegistry(enabled=True)
    for name, value in payload.get("counters", {}).items():
        registry.counter(name).value = int(value)
    for name, levels in payload.get("gauges", {}).items():
        gauge = registry.gauge(name)
        gauge.value = levels.get("value", 0.0)
        gauge.high = levels.get("high", gauge.value)
    for name, histogram in payload.get("histograms", {}).items():
        registry._histograms[name] = Histogram.from_dict(name, histogram)
    return registry


class HeartbeatWriter:
    """Atomically publish one process's liveness + metrics snapshot.

    Each writer owns one file, ``<directory>/<worker>.jsonl``, holding
    the *latest* snapshot only (two JSON lines: a ``heartbeat`` record
    and, when a registry is supplied, a ``metrics`` record). ``write``
    is throttled to one publication per ``interval_s`` unless forced,
    so workers can call it after every unit of work without turning
    telemetry into an I/O workload.
    """

    def __init__(self, directory: PathLike, worker: str,
                 clock: Optional["Clock"] = None,
                 interval_s: float = 1.0,
                 stats: Optional[Stats] = None) -> None:
        if clock is None:
            from repro.lab.clock import Clock

            clock = Clock()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.worker = worker
        self.clock = clock
        self.interval_s = interval_s
        self.stats = stats
        self.seq = 0
        self._last_wall: Optional[float] = None

    @property
    def path(self) -> Path:
        return self.directory / (self.worker + ".jsonl")

    def write(self, registry: Optional[MetricRegistry] = None,
              progress: Optional[Dict] = None,
              force: bool = False) -> bool:
        """Publish a snapshot; ``False`` when throttled away."""
        wall = self.clock.wall()
        if (not force and self._last_wall is not None
                and wall - self._last_wall < self.interval_s):
            return False
        self._last_wall = wall
        lines = [json.dumps({
            "type": "heartbeat",
            "version": SNAPSHOT_VERSION,
            "worker": self.worker,
            "seq": self.seq,
            "wall_s": wall,
            "progress": progress or {},
        }, sort_keys=True)]
        if registry is not None:
            lines.append(json.dumps(
                {"type": "metrics",
                 "metrics": registry_snapshot(registry)},
                sort_keys=True, default=str,
            ))
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, self.path)
        self.seq += 1
        if self.stats is not None:
            self.stats.add("live.heartbeats_written")
        return True


def scan_heartbeats(directory: PathLike) -> Tuple[List[Dict], int]:
    """Every worker's latest snapshot, plus a damaged-file count.

    Publication is atomic per file, but a worker can die at any
    instant: SIGKILL between creating its temp file and ``os.replace``
    leaves a zero-byte or half-line ``.jsonl`` behind on some
    filesystems, and a torn final write leaves a heartbeat line
    followed by a truncated metrics line. None of that may take the
    dashboard down — but it must not be *silent* either (a farm whose
    telemetry is rotting looks identical to a healthy idle farm
    otherwise). Damaged files therefore count into the second return
    value, which :func:`aggregate_heartbeats` surfaces as the
    ``live.heartbeats_corrupt`` gauge. A file whose heartbeat line
    survived still contributes its snapshot (liveness is best-effort)
    while counting as damaged.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return [], 0
    snapshots: List[Dict] = []
    corrupt = 0
    for path in sorted(directory.glob("*.jsonl")):
        try:
            with open(path) as handle:
                content = handle.read()
        except OSError:
            corrupt += 1
            continue
        if not content.strip():
            corrupt += 1  # zero-byte: died mid-publication
            continue
        heartbeat: Optional[Dict] = None
        metrics: Optional[Dict] = None
        damaged = False
        for line in content.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                damaged = True  # half-written trailing line
                break
            if not isinstance(record, dict):
                damaged = True
                break
            if record.get("type") == "heartbeat":
                heartbeat = record
            elif record.get("type") == "metrics":
                metrics = record.get("metrics")
        if heartbeat is None:
            corrupt += 1
            continue
        if damaged:
            corrupt += 1
        heartbeat["metrics"] = metrics
        snapshots.append(heartbeat)
    return snapshots, corrupt


@dataclass
class WorkerView:
    """One worker's liveness as the aggregator sees it."""

    worker: str
    seq: int
    wall_s: float
    age_s: float
    stale: bool
    progress: Dict = field(default_factory=dict)


@dataclass
class LiveAggregate:
    """The campaign-wide merged view ``star-top`` renders."""

    registry: MetricRegistry
    workers: List[WorkerView]
    corrupt: int = 0

    @property
    def stale_workers(self) -> List[WorkerView]:
        return [view for view in self.workers if view.stale]


def aggregate_heartbeats(directory: PathLike, now_wall: float,
                         stale_after_s: float = 10.0) -> LiveAggregate:
    """Merge every worker snapshot into one registry + liveness list.

    Counters and histograms add across workers; gauges keep the last
    writer's value with a max'd high-watermark (the
    :meth:`MetricRegistry.merge` contract). The aggregate also carries
    its own ``live.*`` gauges so the merged registry is self-describing
    when exported over ``/metrics``.
    """
    registry = MetricRegistry(enabled=True)
    workers: List[WorkerView] = []
    max_age = 0.0
    snapshots, corrupt = scan_heartbeats(directory)
    for snapshot in snapshots:
        age = max(0.0, now_wall - float(snapshot.get("wall_s", 0.0)))
        max_age = max(max_age, age)
        workers.append(WorkerView(
            worker=str(snapshot.get("worker", "?")),
            seq=int(snapshot.get("seq", 0)),
            wall_s=float(snapshot.get("wall_s", 0.0)),
            age_s=age,
            stale=age > stale_after_s,
            progress=snapshot.get("progress") or {},
        ))
        if snapshot.get("metrics"):
            registry.merge(registry_from_snapshot(snapshot["metrics"]))
    stale = sum(1 for view in workers if view.stale)
    registry.gauge("live.workers").set(float(len(workers)))
    registry.gauge("live.workers_stale").set(float(stale))
    registry.gauge("live.snapshot_age_s").set(max_age)
    registry.gauge("live.heartbeats_corrupt").set(float(corrupt))
    return LiveAggregate(registry=registry, workers=workers,
                         corrupt=corrupt)
