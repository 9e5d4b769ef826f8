"""The full simulated machine.

Wires a workload trace through the CPU cache hierarchy into the secure
memory controller, accumulates timing/energy, and implements the crash /
recovery lifecycle:

* :meth:`Machine.run` replays trace ops,
* :meth:`Machine.crash` models a power failure: the cache-tree root is
  latched into the on-chip register (in hardware it is maintained there
  continuously), the scheme performs its ADR battery flush, all volatile
  state is dropped, and an oracle snapshot of the dirty metadata is kept
  for test verification,
* :meth:`Machine.recover` invokes the scheme's recovery procedure with a
  fresh stat namespace so recovery traffic is reported separately.

Both namespaces' span tracers read ``nvm.accesses`` as their op clock,
so every span — a recovery phase, or a phase that ``profile=True``
wraps — counts the NVM line accesses it cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.errors import ConfigError, RecoveryError, VerificationError
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.nvm import NVM
from repro.schemes.base import PersistenceScheme, RecoveryReport
from repro.sim.controller import SecureMemoryController
from repro.sim.energy import energy_from_stats
from repro.sim.registers import OnChipRegisters
from repro.sim.results import RunResult
from repro.sim.timing import TimingModel
from repro.util.stats import Stats
from repro.workloads.trace import Op, OpKind

_READ = OpKind.READ
_PERSIST = OpKind.PERSIST

PROFILED_PHASES = (
    # (machine attribute, method, span name)
    ("controller", "write_data", "ctrl.write_data"),
    ("controller", "read_data", "ctrl.read_data"),
    ("controller", "_get_node", "tree.verify"),
    ("controller", "_persist_node", "tree.update"),
    ("timing", "persist_barrier", "wpq.drain"),
)
PROFILED_BITMAP_PHASES = (
    # STAR's bitmap manager; AdrRegion is __slots__-ed, so its
    # line-load front door (register or ADR, spilling to the RA) stands
    # in for the ADR
    ("mark_stale", "bitmap.maintain"),
    ("mark_fresh", "bitmap.maintain"),
    ("_load", "adr.load"),
)


class Machine:
    """A secure-NVM system under one persistence scheme."""

    def __init__(self, config: SystemConfig,
                 scheme: Union[str, PersistenceScheme] = "star",
                 registers: Optional[OnChipRegisters] = None,
                 nvm: Optional[NVM] = None,
                 telemetry: bool = True,
                 sanitize: bool = False,
                 profile: bool = False) -> None:
        """``registers`` and ``nvm`` allow booting a machine on state
        that survived a crash (the reboot-after-recovery scenario).
        ``telemetry=False`` turns off histograms/spans/events (counters
        always count) for overhead-sensitive sweeps. ``sanitize=True``
        installs the runtime write sanitizers (``repro.sim.sanitize``);
        ``profile=True`` wraps every phase in :data:`PROFILED_PHASES`
        (and STAR's bitmap phases), plus ``recover``, in a span on the
        run registry's tracer, so it needs telemetry on. Both are off by
        default, so hot paths stay unwrapped."""
        if profile and not telemetry:
            raise ConfigError(
                "profile=True records spans, which telemetry=False "
                "turns off"
            )
        self.config = config
        self.stats = Stats(enabled=telemetry)
        self.recovery_stats: Optional[Stats] = None
        if nvm is None:
            self.nvm = NVM(self.stats)
        else:
            self.nvm = nvm
            self.nvm.stats = self.stats
        # the op clock lives on the NVM: binding it to the machine would
        # keep the machine alive in a reference cycle after ``del``
        self.stats.registry.tracer.op_clock = self.nvm.accesses
        self.registers = registers if registers is not None \
            else OnChipRegisters()
        if isinstance(scheme, str):
            # imported here to break the schemes -> core -> sim cycle
            from repro.schemes import make_scheme
            scheme = make_scheme(scheme)
        self.scheme = scheme
        self.controller = SecureMemoryController(
            config, self.nvm, scheme, self.registers, self.stats
        )
        levels = [
            cache for cache in (config.l1, config.l2, config.llc)
            if cache is not None
        ]
        self.hierarchy = CacheHierarchy(levels, self.stats)
        self.timing = TimingModel(stats=self.stats)
        self.crashed = False
        self.pre_crash_dirty: Dict[int, Tuple[int, ...]] = {}
        self._dirty_fraction_at_crash: Optional[float] = None
        self.sanitizer = None
        if sanitize:
            # imported lazily: the sanitizer is diagnostics, not hot path
            from repro.sim.sanitize import install_sanitizers

            self.sanitizer = install_sanitizers(self)
        self.profile = profile
        if profile:
            tracer = self.stats.registry.tracer
            for owner, method, name in PROFILED_PHASES:
                tracer.wrap(getattr(self, owner), method, name)
            tracer.wrap(self, "recover", "recovery")
            self._profile_bitmap()

    def _profile_bitmap(self) -> None:
        """Wrap the scheme's bitmap phases; ``scheme.attach`` builds a
        new bitmap manager, so :meth:`recover` calls this again."""
        bitmap = getattr(self.scheme, "bitmap", None)
        if bitmap is None:
            return
        tracer = self.stats.registry.tracer
        for method, name in PROFILED_BITMAP_PHASES:
            tracer.wrap(bitmap, method, name)

    # ==================================================================
    # running traces
    # ==================================================================
    def run(self, ops: Iterable[Op]) -> None:
        """Replay a trace through the machine, one op at a time."""
        for op in ops:
            self.apply(op)

    def apply(self, op: Op) -> None:
        if self.crashed:
            raise RecoveryError("machine has crashed; recover first")
        timing = self.timing
        timing.advance_instructions(op.instructions)
        kind = op.kind
        if kind is _PERSIST:
            timing.persist_barrier()
            return
        addr = op.addr
        # the controller's entry points are looked up per call:
        # ``profile=True`` wraps them on the instance
        if kind is _READ:
            event = self.hierarchy.access(addr, is_write=False)
            if event.hit_level is not None:
                timing.cache_hit(event.hit_level)
            else:
                self._charged(self.controller.read_data, addr)
        else:
            event = self.hierarchy.access(
                addr, is_write=True, persistent=op.persistent
            )
            if event.hit_level is not None:
                timing.cache_hit(event.hit_level)
            if event.fills:
                self._charged(self.controller.read_data, addr)
            for line in event.persists:
                self._charged(self.controller.write_data, line)
        for line in event.writebacks:
            self._charged(self.controller.write_data, line)

    def _charged(self, operation, addr: int) -> None:
        """Run a controller operation and charge its NVM traffic."""
        nvm = self.nvm
        reads_before = nvm.total_reads()
        writes_before = nvm.total_writes()
        operation(addr)
        reads = nvm.total_reads() - reads_before
        if reads:
            self.timing.memory_reads(reads)
        writes = nvm.total_writes() - writes_before
        if writes:
            self.timing.memory_writes(writes)

    # ==================================================================
    # crash / recovery lifecycle
    # ==================================================================
    def crash(self) -> None:
        """Power failure: drop volatile state, keep NVM + registers.

        The cache-tree root register is latched from the current dirty
        cache population — in hardware it is maintained incrementally and
        holds exactly this value at the instant of the crash.
        """
        if self.crashed:
            raise RecoveryError("machine already crashed")
        self.registers.cache_tree_root = (
            self.controller.compute_cache_tree_root()
        )
        self.scheme.on_crash()
        self.pre_crash_dirty = {
            line.addr: tuple(line.payload.counters)
            for line in self.controller.meta_cache.dirty_lines()
        }
        self._dirty_fraction_at_crash = self.controller.dirty_fraction()
        self.stats.event(
            "crash",
            dirty_lines=len(self.pre_crash_dirty),
            dirty_fraction=round(self._dirty_fraction_at_crash, 4),
        )
        self.controller.meta_cache.clear()
        self.hierarchy.drop()
        self.timing.wpq.reset()
        self.crashed = True

    def recover(self, raise_on_failure: bool = False) -> RecoveryReport:
        """Run the scheme's recovery; traffic lands in a fresh Stats."""
        if not self.crashed:
            raise RecoveryError("recover called without a crash")
        recovery_stats = Stats(enabled=self.stats.enabled)
        recovery_stats.registry.tracer.op_clock = self.nvm.accesses
        run_events = self.stats.registry.events
        if run_events.enabled and not recovery_stats.enabled:
            # the flight recorder armed the event log on an otherwise
            # dark machine; keep recording through recovery
            from repro.obs.flight import arm_flight_recorder

            arm_flight_recorder(recovery_stats)
        # keep the run's JSONL trail complete: recovery events stream
        # into the same sink (the run log still owns and closes it)
        run_sink = self.stats.registry.events.sink
        if run_sink is not None:
            recovery_stats.registry.events.attach_sink(run_sink)
        saved = self.nvm.stats
        self.nvm.stats = recovery_stats
        try:
            report = self.scheme.recover(self)
        finally:
            self.nvm.stats = saved
        self.recovery_stats = recovery_stats
        self.crashed = False
        # Re-attach the scheme so its volatile state (Anubis/Phoenix ST
        # slot mirrors, STAR's bitmap manager + ADR residency) restarts
        # from the recovered NVM, exactly as a reboot would rebuild it.
        # Without this, continuing to run on the same Machine leaked
        # shadow-table ways (IndexError after a few crash cycles) and
        # replayed stale ADR bits into the next recovery.
        self.scheme.attach(self.controller)
        if self.sanitizer is not None:
            self.sanitizer.rewire_scheme()
        if self.profile:
            self._profile_bitmap()
        if raise_on_failure and not report.verified:
            raise VerificationError(
                "recovery verification failed: attack detected"
            )
        return report

    def oracle_check(self, report: RecoveryReport) -> bool:
        """Did recovery restore every pre-crash dirty node exactly?"""
        for line, counters in self.pre_crash_dirty.items():
            if report.restored.get(line) != counters:
                return False
        return True

    # ==================================================================
    # results
    # ==================================================================
    def _adr_hit_ratio(self) -> float:
        """Traffic-free fraction of bitmap-line accesses (Table II).

        Cold misses (first touches, no recovery-area copy to read) cost
        no NVM traffic, so only real ``adr.misses`` count against the
        ratio.
        """
        accesses = self.stats.get("adr.accesses")
        if accesses == 0:
            return 0.0
        return (accesses - self.stats.get("adr.misses")) / accesses

    def result(self, workload: str = "",
               recovery: Optional[RecoveryReport] = None) -> RunResult:
        energy = energy_from_stats(self.stats, self.timing.now_ns)
        extras: dict = {}
        if self.stats.enabled:
            from repro.obs.export import telemetry_snapshot

            telemetry = {"run": telemetry_snapshot(self.stats.registry)}
            if self.recovery_stats is not None:
                telemetry["recovery"] = telemetry_snapshot(
                    self.recovery_stats.registry
                )
            extras["telemetry"] = telemetry
        return RunResult(
            scheme=self.scheme.name,
            workload=workload,
            stats=self.stats.snapshot(),
            instructions=self.timing.instructions,
            cycles=self.timing.cycles,
            ipc=self.timing.ipc,
            energy_read_nj=energy.read_nj,
            energy_write_nj=energy.write_nj,
            energy_static_nj=energy.static_nj,
            dirty_fraction=(
                self._dirty_fraction_at_crash
                if self._dirty_fraction_at_crash is not None
                else self.controller.dirty_fraction()
            ),
            adr_hit_ratio=self._adr_hit_ratio(),
            recovery=recovery,
            extras=extras,
        )
