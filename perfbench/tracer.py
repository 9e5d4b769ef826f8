"""Per-layer host-time attribution for the benchmark's traced run.

The tracer wraps the public entry points of each simulator and lab
layer *from outside the package*: it replaces methods on the classes
(and module-level functions where callers look them up) with closures
that record one span per call, then restores the originals. Nothing
under ``src/`` knows it exists, and untraced runs never install it.

A span is keyed by ``(layer, parent layer)`` and aggregated in memory
(calls, inclusive seconds, self seconds), because ``paper_tables``
makes millions of layer calls. A call into the layer that is already
on top of the stack opens no span: nested calls stay in their layer's
self time and are counted as pass-through calls.

The tracer's own cost is measured on a no-op by
:meth:`Tracer.calibrate`, sampled throughout the traced unit, and
subtracted per span (the part inside a span from that layer, the part
around it from the caller), so layers with millions of cheap calls are
not overstated.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"
"""Time outside every layer: the benchmark's own loop, the fuzz executor
and the farm's own glue."""

LAYERS = [
    "workloads", "sim.machine", "mem.hierarchy", "sim.controller.write",
    "sim.controller.read", "meta_cache", "tree.sit", "crypto.otp",
    "mem.nvm", "sim.timing", "schemes", "obs", "recovery", "fuzz.oracle",
    "lab.scheduler", "lab.store", "lab.lease",
]

# (module, class, methods, layer): class methods wrapped in place
_METHODS = [
    ("repro.sim.machine", "Machine", ["run", "result"], "sim.machine"),
    ("repro.sim.machine", "Machine", ["crash"], "recovery"),
    ("repro.mem.hierarchy", "CacheHierarchy", ["access", "drop"],
     "mem.hierarchy"),
    ("repro.sim.controller", "SecureMemoryController",
     ["write_data", "persist_metadata_line", "persist_branch",
      "flush_metadata_cache"], "sim.controller.write"),
    ("repro.sim.controller", "SecureMemoryController", ["read_data"],
     "sim.controller.read"),
    ("repro.mem.cache", "SetAssociativeCache",
     ["lookup", "insert", "remove", "victim_for", "mark_dirty",
      "mark_clean", "pin", "unpin", "dirty_lines", "dirty_count",
      "clear"], "meta_cache"),
    ("repro.tree.sit", "SITAuthenticator",
     ["node_mac", "make_node_image", "verify_node_image", "data_mac",
      "make_data_image", "verify_data_image"], "tree.sit"),
    ("repro.crypto.otp", "CounterModeEngine",
     ["one_time_pad", "encrypt", "decrypt"], "crypto.otp"),
    ("repro.mem.nvm", "NVM",
     ["read_data", "write_data", "migrate_data", "peek_data",
      "data_lines", "read_meta", "write_meta", "flush_meta", "peek_meta",
      "meta_lines", "meta_is_touched", "read_ra", "write_ra", "flush_ra",
      "peek_ra", "ra_is_touched", "read_st", "write_st", "clear_st",
      "st_slots", "tamper_data", "tamper_meta", "tamper_ra",
      "total_writes", "total_reads"], "mem.nvm"),
    ("repro.sim.timing", "TimingModel",
     ["advance_instructions", "cache_hit", "memory_reads",
      "memory_writes", "device_read", "device_write", "persist_barrier"],
     "sim.timing"),
    ("repro.mem.writequeue", "WritePendingQueue",
     ["enqueue", "drain_time", "reset"], "sim.timing"),
    ("repro.util.stats", "Stats",
     ["add", "get", "snapshot", "prefixed", "merge", "ratio", "reset",
      "observe", "gauge_set", "event", "span"], "obs"),
    ("repro.obs.metrics", "Counter", ["inc"], "obs"),
    ("repro.obs.metrics", "Gauge", ["set", "inc", "dec"], "obs"),
    ("repro.obs.metrics", "Histogram", ["observe", "merge"], "obs"),
    ("repro.obs.metrics", "MetricRegistry",
     ["counter", "gauge", "histogram", "counters", "gauges",
      "histograms", "counter_values", "merge", "reset"], "obs"),
    ("repro.obs.events", "EventLog", ["emit", "events", "tail"], "obs"),
    ("repro.obs.live", "HeartbeatWriter", ["write"], "obs"),
    ("repro.lab.scheduler", "Scheduler", ["run"], "lab.scheduler"),
    ("repro.lab.store", "ResultStore",
     ["__init__", "get", "put", "hashes", "records", "export",
      "import_from", "close", "__contains__", "__len__"], "lab.store"),
    ("repro.lab.farm", "Coordinator", ["merge"], "lab.store"),
    ("repro.lab.lease", "LeaseBoard",
     ["__init__", "close", "seed", "settle", "requeue", "claim", "renew",
      "complete", "fail", "counts", "finished", "hashes", "lease_row",
      "rows", "failures"], "lab.lease"),
]

# (module, function, layer): patched in the module its callers read
_FUNCTIONS = [
    ("repro.obs.export", "telemetry_snapshot", "obs"),
    ("repro.obs.flight", "arm_flight_recorder", "obs"),
    ("repro.fuzz.executor", "arm_flight_recorder", "obs"),
    ("repro.fuzz.executor", "flight_tail", "obs"),
    ("repro.fuzz.executor", "judge", "fuzz.oracle"),
    ("repro.fuzz.executor", "audit_machine", "fuzz.oracle"),
    ("repro.fuzz.oracle", "audit_machine", "fuzz.oracle"),
    ("repro.lab.scheduler", "write_journal", "lab.scheduler"),
    ("repro.lab.farm", "write_journal", "lab.scheduler"),
    ("repro.lab.scheduler", "git_revision", "lab.store"),
    # a fuzz cell executed by the lab is simulation, not lab time
    ("repro.fuzz.executor", "run_case", UNATTRIBUTED),
]

_SCHEME_HOOKS = [
    "attach", "on_dirty_transition", "on_parent_modified",
    "on_data_persist", "on_metadata_persist", "after_data_write",
    "on_cache_install", "on_cache_evict",
]

# tags: extra inclusive timers / call counters on single entry points
_TIMED_TAGS = {
    ("repro.lab.scheduler", "git_revision"): "lab.store.provenance_s",
    ("Coordinator", "merge"): "lab.store.merge_s",
}
_COUNTED_TAGS = {
    ("repro.lab.scheduler", "write_journal"): "lab.scheduler.journal_writes",
    ("repro.lab.farm", "write_journal"): "lab.scheduler.journal_writes",
}

SAMPLE_EVERY_S = 0.25
"""Seconds between calibration samples during the traced unit."""

SIM_COUNTERS = {
    "cpu_hits": ("cpu.read_hits", "cpu.write_hits"),
    "cpu_misses": ("cpu.read_misses", "cpu.write_misses"),
    "meta_hits": ("meta_cache.hits",),
    "meta_misses": ("meta_cache.misses",),
    "meta_evictions": ("ctrl.meta_evictions",),
    "meta_persists": ("ctrl.meta_persists",),
    "wpq_stalls": ("wpq.full_stalls",),
    "adr_accesses": ("adr.accesses",),
    "adr_misses": ("adr.misses",),
}


class Tracer:
    """Span stack, per-(layer, parent) aggregates and sim-count harvest.

    The stack is three parallel lists (layer, child seconds, pass-through
    calls) and the aggregates are nested dicts, so a span allocates no
    container the garbage collector tracks.
    """

    def __init__(self) -> None:
        self.layers: List[str] = [UNATTRIBUTED]
        self.child: List[float] = [0.0]
        self.passes: List[int] = [0]
        # layer -> parent -> [calls, inclusive s, self s, pass-throughs]
        self.rows: Dict[str, Dict[str, list]] = {}
        self.tags: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.cost: Dict[str, float] = {"inner": 0.0, "outer": 0.0,
                                       "pass": 0.0}
        self._patches: List[Tuple[object, str, object]] = []
        self._machines: List[object] = []
        self._samples: List[Tuple[float, float, float]] = []
        self._last_sample = 0.0
        self.sampling_s = 0.0
        """Seconds spent calibrating inside the traced section. They are
        counted as child time of the span on top of the stack, so they
        are in no layer's self time, nor in :data:`UNATTRIBUTED`'s
        (the root's child time includes them)."""

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, tag: Optional[str] = None,
             count: Optional[str] = None,
             only_name: Optional[str] = None) -> Callable:
        """``fn`` with one span per call into ``layer``.

        With ``only_name``, a call on an instance whose ``name`` differs
        is a pass-through of the caller's layer (the CPU cache levels
        share the metadata cache's class). ``tag`` adds the call's
        inclusive time to a named timer; ``count`` counts every call,
        nested ones included.
        """
        layers, child, passes = self.layers, self.child, self.passes
        by_parent = self.rows.setdefault(layer, {})
        tags = self.tags
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            parent = layers[-1]
            if parent == layer or (
                    only_name is not None and args[0].name != only_name):
                passes[-1] += 1
                return fn(*args, **kwargs)
            layers.append(layer)
            child.append(0.0)
            passes.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layers.pop()
                own_child = child.pop()
                own_passes = passes.pop()
                child[-1] += elapsed
                row = by_parent.get(parent)
                if row is None:
                    row = by_parent[parent] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - own_child
                row[3] += own_passes
                if tag is not None:
                    tags[tag] = tags.get(tag, 0.0) + elapsed

        functools.update_wrapper(traced, fn)
        return traced

    def _wrap_ops(self, fn: Callable) -> Callable:
        """A workload's ``ops()`` generator, one span per op pulled."""
        tracer = self

        def ops(*args, **kwargs):
            return _TracedOps(fn(*args, **kwargs), tracer)

        functools.update_wrapper(ops, fn)
        return ops

    def _wrap_machine_init(self, fn: Callable) -> Callable:
        """Build machines in ``sim.machine`` and remember them, so their
        counters are harvested once the cell that built them is done."""
        traced = self.wrap(fn, "sim.machine")
        machines = self._machines
        harvest = self.harvest

        def init(machine, *args, **kwargs):
            harvest()
            self._maybe_sample()
            traced(machine, *args, **kwargs)
            machines.append(machine)

        functools.update_wrapper(init, fn)
        return init

    def _wrap_recover(self, fn: Callable) -> Callable:
        traced = self.wrap(fn, "recovery")
        add = self.add_count

        def recover(*args, **kwargs):
            report = traced(*args, **kwargs)
            add("recovery.stale_lines", report.stale_lines)
            add("recovery.line_accesses", report.line_accesses)
            return report

        functools.update_wrapper(recover, fn)
        return recover

    def add_count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def harvest(self) -> None:
        """Add the simulated counters of finished machines to
        :attr:`counts`. Reads the registries directly so the harvest
        itself records no ``obs`` spans."""
        for machine in self._machines:
            registries = [machine.stats.registry]
            if machine.recovery_stats is not None:
                registries.append(machine.recovery_stats.registry)
            for registry in registries:
                values = registry._counters
                for name, counter in values.items():
                    if name.startswith("nvm."):
                        if name.endswith("_reads"):
                            self.add_count("mem.nvm.reads", counter.value)
                        elif name.endswith("_writes"):
                            self.add_count("mem.nvm.writes", counter.value)
                for key, names in SIM_COUNTERS.items():
                    for name in names:
                        counter = values.get(name)
                        if counter is not None:
                            self.add_count(key, counter.value)
            self.add_count("sim.timing.cycles", machine.timing.cycles)
        self._machines.clear()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer entry point (undone by :meth:`uninstall`)."""
        for module_name, class_name, methods, layer in _METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            only_name = "meta_cache" if layer == "meta_cache" else None
            for name in methods:
                fn = cls.__dict__.get(name)
                if not inspect.isfunction(fn):
                    continue
                self._patch(cls, name, self.wrap(
                    fn, layer, tag=_TIMED_TAGS.get((class_name, name)),
                    only_name=only_name))
        for module_name, name, layer in _FUNCTIONS:
            module = importlib.import_module(module_name)
            key = (module_name, name)
            self._patch(module, name, self.wrap(
                getattr(module, name), layer,
                tag=_TIMED_TAGS.get(key), count=_COUNTED_TAGS.get(key)))
        from repro.schemes import SIT_SCHEMES
        from repro.schemes.base import PersistenceScheme
        for cls in [PersistenceScheme, *SIT_SCHEMES.values()]:
            for name in _SCHEME_HOOKS:
                if inspect.isfunction(cls.__dict__.get(name)):
                    self._patch(cls, name,
                                self.wrap(cls.__dict__[name], "schemes"))
            if inspect.isfunction(cls.__dict__.get("recover")):
                self._patch(cls, "recover",
                            self.wrap(cls.__dict__["recover"], "recovery"))
        from repro.workloads.registry import WORKLOAD_CLASSES
        for cls in set(WORKLOAD_CLASSES.values()):
            owner = next(base for base in cls.__mro__ if "ops" in vars(base))
            if not any(patched is owner and name == "ops"
                       for patched, name, _ in self._patches):
                self._patch(owner, "ops", self._wrap_ops(owner.ops))
        from repro.sim.machine import Machine
        self._patch(Machine, "__init__",
                    self._wrap_machine_init(Machine.__dict__["__init__"]))
        self._patch(Machine, "recover",
                    self._wrap_recover(Machine.__dict__["recover"]))

    def uninstall(self) -> None:
        self.harvest()
        self._update_cost()
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # calibration and the breakdown
    # ------------------------------------------------------------------
    def calibrate(self, samples: int = 5) -> None:
        """Measure the tracer's cost per span and per pass-through.

        ``inner`` is the part a span adds inside its own interval (to
        the callee's time), ``outer`` the part around it (to the
        caller's self time), ``pass`` a nested same-layer call. Each is
        the median of no-op samples: these few before the traced unit,
        then one whenever a machine is built at least
        :data:`SAMPLE_EVERY_S` after the last, so the samples see the
        same mix of the host's fast and slow stretches as the spans.
        """
        for _ in range(samples):
            self._samples.append(_calibration_sample())
        self._update_cost()

    def _maybe_sample(self) -> None:
        start = time.perf_counter()
        if start - self._last_sample < SAMPLE_EVERY_S:
            return
        self._samples.append(_calibration_sample())
        self._last_sample = time.perf_counter()
        spent = self._last_sample - start
        # not the caller's time: keep it out of every layer's self time
        # (enclosing spans and the root see it as child time)
        self.child[-1] += spent
        self.sampling_s += spent

    def _update_cost(self) -> None:
        self.cost = {
            name: statistics.median(sample[index]
                                    for sample in self._samples)
            for index, name in enumerate(("inner", "outer", "pass"))
        }

    def spans(self) -> Tuple[int, int]:
        """(spans recorded, pass-through calls) so far."""
        spans = nested = 0
        for by_parent in self.rows.values():
            for row in by_parent.values():
                spans += row[0]
                nested += row[3]
        return spans, nested + self.passes[0]

    def overhead_s(self) -> float:
        """The tracer's estimated total cost in the traced section."""
        spans, nested = self.spans()
        return (spans * (self.cost["inner"] + self.cost["outer"])
                + nested * self.cost["pass"])

    def breakdown(self, traced_s: float) -> Dict[str, Dict[str, float]]:
        """Calibrated ``{layer: {calls, self_s}}`` for a traced section
        of ``traced_s`` seconds; :data:`UNATTRIBUTED` gets the rest."""
        inner = self.cost["inner"]
        outer = self.cost["outer"]
        passing = self.cost["pass"]
        out = {layer: {"calls": 0, "self_s": 0.0}
               for layer in LAYERS + [UNATTRIBUTED]}
        out[UNATTRIBUTED]["self_s"] = (traced_s - self.child[0]
                               - self.passes[0] * passing)
        for layer, by_parent in self.rows.items():
            for parent, (calls, _total, self_s, nested) in \
                    by_parent.items():
                row = out[layer]
                row["calls"] += calls
                row["self_s"] += self_s - calls * inner - nested * passing
                out[parent]["self_s"] -= calls * outer
        return out


class _TracedOps:
    """Iterator proxy timing each ``next`` as a ``workloads`` span."""

    __slots__ = ("_ops", "_tracer")

    def __init__(self, ops, tracer: Tracer) -> None:
        self._ops = ops
        self._tracer = tracer

    def __iter__(self) -> "_TracedOps":
        return self

    def __next__(self):
        tracer = self._tracer
        layers, child, passes = tracer.layers, tracer.child, tracer.passes
        parent = layers[-1]
        layers.append("workloads")
        child.append(0.0)
        passes.append(0)
        start = time.perf_counter()
        try:
            op = next(self._ops)
        finally:
            elapsed = time.perf_counter() - start
            layers.pop()
            own_child = child.pop()
            own_passes = passes.pop()
            child[-1] += elapsed
            by_parent = tracer.rows.setdefault("workloads", {})
            row = by_parent.get(parent)
            if row is None:
                row = by_parent[parent] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - own_child
            row[3] += own_passes
        tracer.counts["workloads.refs"] = (
            tracer.counts.get("workloads.refs", 0) + 1)
        return op


def _noop(_value: object) -> None:
    return None


def _calibration_sample(calls: int = 2000) -> Tuple[float, float, float]:
    """(inner, outer, pass-through) seconds per call of a traced no-op."""
    clock = time.perf_counter
    loop = range(calls)
    probe = Tracer()
    traced = probe.wrap(_noop, "calibration")
    start = clock()
    for _ in loop:
        pass
    empty = clock() - start
    start = clock()
    for _ in loop:
        _noop(1)
    direct = clock() - start - empty
    start = clock()
    for _ in loop:
        traced(1)
    wrapped = clock() - start - empty
    recorded = probe.rows["calibration"][UNATTRIBUTED][1]
    probe.layers.append("calibration")
    probe.child.append(0.0)
    probe.passes.append(0)
    start = clock()
    for _ in loop:
        traced(1)
    nested = clock() - start - empty
    return (max(0.0, (recorded - direct) / calls),
            max(0.0, (wrapped - recorded) / calls),
            max(0.0, (nested - direct) / calls))
