"""Case execution and the parallel campaign driver.

One case runs entirely single-process: materialize the workload trace,
replay it up to the sampled crash point (pausing once mid-run so replay
attacks can take their snapshots), power-fail the machine, optionally
tamper with the NVM, recover, and hand the outcome to the oracle stack.

Campaigns fan the case list out over a ``multiprocessing`` pool using
the *spawn* start method — the same cold-start a reproducing developer
gets — so that a failure seen in a worker is guaranteed to replay
byte-identically from its serialized :class:`FuzzCase` alone.

``DEFECTS`` holds test-only fault injections (e.g. a recovery that
forgets to compare the cache-tree root). They exist to prove the oracle
stack catches real detection bugs end-to-end; the CLI exposes them
behind ``--inject-defect`` for self-tests.
"""

from __future__ import annotations

import multiprocessing
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig, small_config
from repro.errors import RecoveryError
from repro.fuzz.attacks import make_attack
from repro.fuzz.oracle import Verdict, judge
from repro.obs.flight import arm_flight_recorder, flight_tail
from repro.fuzz.sampling import CampaignSpec, FuzzCase, sample_cases
from repro.schemes.base import RecoveryReport
from repro.sim.crash import Attacker
from repro.sim.machine import Machine
from repro.sim.validate import audit_machine
from repro.util.stats import Stats
from repro.workloads.registry import TraceSpec
from repro.workloads.trace import Op


def campaign_config() -> SystemConfig:
    """The fixed machine every case runs on.

    A single shared configuration keeps case specs small and replay
    trivial; :func:`repro.config.small_config` gives deep evictions
    with short traces, which is exactly the stress a crash fuzzer wants.
    """
    return small_config()


def _defect_skip_root_verify(report: RecoveryReport) -> None:
    """Test-only bug: recovery 'forgets' to compare the cache-tree
    root, reporting success regardless — the §III-E detection hole the
    oracle stack must catch via its golden shadow copy."""
    report.verified = True


DEFECTS: Dict[str, Callable[[RecoveryReport], None]] = {
    "skip-root-verify": _defect_skip_root_verify,
}


@dataclass
class CaseResult:
    """Everything the corpus (and the minimizer) needs about one run."""

    case: FuzzCase
    ops_total: int = 0
    crash_at: int = 0
    tampered: bool = False
    tamper_desc: Optional[str] = None
    detected_by: Optional[str] = None
    verified: Optional[bool] = None
    stale_lines: int = 0
    restored_lines: int = 0
    readback_lines: int = 0
    violations: List[Dict[str, str]] = field(default_factory=list)
    events_tail: List[Dict] = field(default_factory=list)
    """Flight-recorder tail: the last events before the verdict (no
    wall-clock fields, so serial and pooled runs serialize
    identically). Empty on results recorded before the recorder
    existed."""

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    @property
    def signature(self) -> tuple:
        """The failure equivalence class used by the minimizer."""
        return tuple(sorted({v["kind"] for v in self.violations}))

    def to_dict(self) -> Dict:
        payload = {
            "case": self.case.to_dict(),
            "ops_total": self.ops_total,
            "crash_at": self.crash_at,
            "tampered": self.tampered,
            "tamper_desc": self.tamper_desc,
            "detected_by": self.detected_by,
            "verified": self.verified,
            "stale_lines": self.stale_lines,
            "restored_lines": self.restored_lines,
            "readback_lines": self.readback_lines,
            "violations": self.violations,
            "events_tail": self.events_tail,
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CaseResult":
        fields = dict(payload)
        case = FuzzCase.from_dict(fields.pop("case"))
        fields.pop("type", None)
        return cls(case=case, **fields)


def run_case(case: FuzzCase, ops: Optional[Sequence[Op]] = None,
             defect: Optional[str] = None,
             sanitize: bool = False) -> CaseResult:
    """Execute one case single-process and judge it.

    ``ops`` overrides the workload-derived trace (the minimizer's
    entry point); the crash then happens after the last op. ``defect``
    names a :data:`DEFECTS` fault injection. ``sanitize`` runs the case
    on a ``Machine(sanitize=True)``; a sanitizer trip surfaces as an
    ``exception`` violation like any other simulator failure.
    """
    config = campaign_config()
    if ops is None:
        trace = list(TraceSpec(case.workload, config.num_data_lines,
                               case.operations, case.seed).ops())
        crash_at = case.crash_index(len(trace))
        ops = trace[:crash_at]
    else:
        ops = list(ops)
        crash_at = len(ops)
    result = CaseResult(case=case, ops_total=len(ops), crash_at=crash_at)
    machine = Machine(config, scheme=case.scheme, telemetry=False,
                      sanitize=sanitize)
    # flight recorder: keep the ring-buffered event log running on the
    # otherwise telemetry-dark machine so failures carry their tail
    arm_flight_recorder(machine.stats)
    try:
        _execute(machine, case, ops, defect, result)
    except Exception:
        summary = traceback.format_exc(limit=4).strip().splitlines()
        result.violations.append({
            "kind": "exception",
            "detail": "harness/simulator raised: %s" % summary[-1],
        })
    if result.failed:
        result.events_tail = flight_tail(machine)
    return result


def _execute(machine: Machine, case: FuzzCase, ops: Sequence[Op],
             defect: Optional[str], result: CaseResult) -> None:
    attacker = Attacker(machine.nvm)
    attack = make_attack(case.attack) if case.attack else None

    prepare_at = case.prepare_index(len(ops))
    machine.run(ops[:prepare_at])
    if attack is not None and attack.needs_prepare:
        attack.prepare(
            machine, attacker,
            random.Random("fuzz-prepare:%d" % case.attack_seed),
        )
    machine.run(ops[prepare_at:])

    pre_violations = audit_machine(machine)
    machine.crash()

    if not machine.scheme.supports_sit_recovery:
        # the WB baseline: crashing loses metadata by design — the
        # contract under test is just that it *says so*
        verdict = Verdict()
        for finding in pre_violations:
            verdict.add("pre-crash-audit", finding)
        try:
            machine.recover()
            verdict.add(
                "unexpected-recovery",
                "scheme %r recovered despite not supporting SIT "
                "recovery" % case.scheme,
            )
        except RecoveryError:
            pass
        result.violations = verdict.violations
        return

    golden = {
        line: machine.nvm.peek_data(line)
        for line in machine.nvm.data_lines()
    }
    tamper_desc = None
    if attack is not None:
        tamper_desc = attack.apply(
            machine, attacker,
            random.Random("fuzz-apply:%d" % case.attack_seed),
        )
    report = machine.recover()
    if defect is not None:
        DEFECTS[defect](report)

    result.tampered = tamper_desc is not None
    result.tamper_desc = tamper_desc
    result.verified = report.verified
    result.stale_lines = report.stale_lines
    result.restored_lines = report.restored_lines

    verdict = judge(machine, case, report, golden, tamper_desc,
                    pre_violations)
    result.detected_by = verdict.detected_by
    result.readback_lines = verdict.readback_lines
    result.violations = verdict.violations


# ----------------------------------------------------------------------
# the parallel campaign driver
# ----------------------------------------------------------------------
def _campaign_worker(payload) -> Dict:
    """Top-level (picklable) pool entry point."""
    case_dict, defect, sanitize = payload
    case = FuzzCase.from_dict(case_dict)
    return run_case(case, defect=defect, sanitize=sanitize).to_dict()


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run."""

    spec: CampaignSpec
    results: List[CaseResult]
    stats: Stats

    @property
    def failures(self) -> List[CaseResult]:
        return [result for result in self.results if result.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict:
        return {
            "cases": len(self.results),
            "failures": len(self.failures),
            "tampered": sum(1 for r in self.results if r.tampered),
            "detected": {
                by: sum(1 for r in self.results if r.detected_by == by)
                for by in ("recovery", "on-use", "audit", "healed")
            },
            "counters": self.stats.snapshot(),
        }


def run_campaign(spec: CampaignSpec, jobs: int = 1,
                 progress: Optional[Callable[[CaseResult], None]] = None,
                 sanitize: bool = False,
                 telemetry_dir=None,
                 heartbeat_interval_s: float = 1.0) -> CampaignResult:
    """Run every sampled case, serially or across a process pool.

    ``telemetry_dir`` opts into the live plane: this process, which
    counts every finished case, publishes the campaign's one heartbeat
    + metric snapshot there for ``star-top`` — see
    :mod:`repro.obs.live`. Heartbeats never influence results.
    """
    cases = sample_cases(spec)
    payloads = [
        (case.to_dict(), spec.defect, sanitize) for case in cases
    ]
    stats = Stats()
    results: List[CaseResult] = []
    beat = None
    if telemetry_dir is not None:
        from repro.lab.clock import Clock
        from repro.obs.live import HeartbeatWriter

        # no stats for the writer: its live.* counter would land in the
        # campaign's counters, which the corpus summary records
        beat = HeartbeatWriter(telemetry_dir, "coordinator",
                               clock=Clock(),
                               interval_s=heartbeat_interval_s)

    def publish(force: bool) -> None:
        if beat is not None:
            beat.write(registry=stats.registry,
                       progress={"cases": len(results),
                                 "last_case": results[-1].case.case_id},
                       force=force)

    def consume(payload: Dict) -> None:
        result = CaseResult.from_dict(payload)
        results.append(result)
        _count(stats, result)
        publish(force=result.failed)  # failures always force a beat
        if progress is not None:
            progress(result)

    if jobs <= 1:
        for item in payloads:
            consume(_campaign_worker(item))
    else:
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=jobs) as pool:
            for payload in pool.imap_unordered(
                _campaign_worker, payloads, chunksize=1
            ):
                consume(payload)
    if results:
        publish(force=True)  # the final counts, past the throttle
    results.sort(key=lambda result: result.case.index)
    return CampaignResult(spec=spec, results=results, stats=stats)


def _count(stats: Stats, result: CaseResult) -> None:
    stats.add("fuzz.cases")
    stats.add("fuzz.scheme.%s" % result.case.scheme)
    stats.add("fuzz.workload.%s" % result.case.workload)
    if result.case.attack:
        stats.add("fuzz.attack.%s" % result.case.attack)
    if result.tampered:
        stats.add("fuzz.tamper_applied")
    if result.detected_by:
        stats.add("fuzz.detected.%s" % result.detected_by.replace("-", "_"))
    if result.failed:
        stats.add("fuzz.failures")
        stats.add("fuzz.violations", len(result.violations))
