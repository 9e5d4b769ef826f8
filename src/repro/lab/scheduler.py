"""The sharded execute loop, and the campaign journal format.

A campaign is an ordered list of :class:`~repro.lab.spec.RunSpec`
cells, and every campaign runs on a lease board
(:mod:`repro.lab.farm`): ``star-lab run`` on an in-memory one,
``star-lab serve`` on a shared one. Whichever board feeds it, the
cells execute in :meth:`Scheduler.execute`, the loop each farm
worker drives. It reads its specs lazily, one per free shard, commits
each result to the worker's store and reports every finished cell to
its caller at once. Because every cell's payload is a pure function of
its spec, a sharded run commits exactly the records a serial run
would: kill-and-resume equivalence is a store property, not a
scheduling property.

The loop's robustness machinery:

* per-job timeout — a stuck worker process is terminated and the cell
  reported failed (the board's fixed retry policy decides whether and
  when it runs again),
* graceful SIGINT draining — the first Ctrl-C stops taking cells and
  lets in-flight cells finish and report; the second kills them.

The campaign journal under ``<store>/campaigns/<id>.json`` is written
by the campaign's owner, a :class:`~repro.lab.farm.Coordinator`, and
read by ``star-lab status``/``resume`` and ``star-top``; its writer
and readers live here.

Metrics (see ``repro.obs.catalog``): ``lab.jobs.scheduled`` /
``completed`` / ``timeouts`` / ``failed`` count executions and
``lab.job.wall_ms`` times them; ``lab.jobs.resumed`` (cells the
store already held) is the coordinator's. Store hits/misses are
counted by :class:`~repro.lab.store.ResultStore` itself.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    cast,
)

from repro.lab.clock import Clock
from repro.lab.executor import execute
from repro.lab.spec import RunSpec, canonical_json
from repro.lab.store import ResultStore, git_revision
from repro.util.stats import Stats

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

Outcome = Tuple[str, object]
"""("ok", payload) or ("error", message)."""

CellCallback = Callable[[RunSpec, Optional[str]], None]
"""Told about each finished cell: its spec and error text (``None``
when the payload was committed)."""

SignalHandler = Union[
    Callable[[int, Optional[FrameType]], Any], int, signal.Handlers, None
]
"""What :func:`signal.signal` accepts and returns."""

CHECKPOINT_LIMIT = 64
"""Journal checkpoint entries retained (a bounded progress history —
enough for throughput/ETA estimation, small enough to keep journal
rewrites cheap)."""


# ----------------------------------------------------------------------
# job runners (real processes in production, fakes in tests)
# ----------------------------------------------------------------------
def _worker_main(conn: "Connection", spec_dict: Dict) -> None:
    """Child-process entry point: execute one spec, send the payload."""
    try:
        conn.send(("ok", execute(RunSpec.from_dict(spec_dict))))
    except BrokenPipeError:
        pass  # parent killed mid-job; the lease system re-runs the cell
    except BaseException:
        try:
            conn.send(("error",
                       traceback.format_exc(limit=6).strip()))
        except BrokenPipeError:
            pass
    finally:
        conn.close()


class JobHandle(Protocol):
    """What the scheduler needs from one in-flight job."""

    started: float

    def poll(self) -> Optional[Outcome]: ...

    def stop(self) -> None: ...


class JobRunner(Protocol):
    """What the scheduler needs from a job launcher."""

    def start(self, spec: RunSpec, clock: Clock) -> JobHandle: ...


class InlineHandle:
    """A job executed synchronously in the scheduler process."""

    def __init__(self, spec: RunSpec, started: float) -> None:
        self.started = started
        try:
            self._outcome: Outcome = ("ok", execute(spec))
        except Exception:
            self._outcome = (
                "error", traceback.format_exc(limit=6).strip()
            )

    def poll(self) -> Optional[Outcome]:
        return self._outcome

    def stop(self) -> None:
        pass


class InlineRunner:
    """Serial execution: no processes, no preemption (jobs <= 1)."""

    def start(self, spec: RunSpec, clock: Clock) -> InlineHandle:
        return InlineHandle(spec, clock.now())


class ProcessHandle:
    """One spawned worker process executing one cell."""

    def __init__(self, context: "BaseContext", spec: RunSpec,
                 started: float) -> None:
        self.started = started
        self._recv, child = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main, args=(child, spec.to_dict()),
        )
        self.process.start()
        child.close()
        self._outcome: Optional[Outcome] = None

    def poll(self) -> Optional[Outcome]:
        if self._outcome is not None:
            return self._outcome
        if self._recv.poll(0):
            try:
                self._outcome = self._recv.recv()
            except (EOFError, OSError):
                self._outcome = ("error", "worker pipe closed early")
            self.process.join()
            return self._outcome
        if not self.process.is_alive():
            self.process.join()
            self._outcome = (
                "error",
                "worker exited with code %s without a result"
                % self.process.exitcode,
            )
            return self._outcome
        return None

    def stop(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self._recv.close()


class ProcessRunner:
    """Spawn-start workers: the cold start a reproducing dev gets."""

    def __init__(self) -> None:
        self._context = multiprocessing.get_context("spawn")

    def start(self, spec: RunSpec, clock: Clock) -> ProcessHandle:
        return ProcessHandle(self._context, spec, clock.now())


# ----------------------------------------------------------------------
# campaign bookkeeping
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """What one campaign invocation did."""

    campaign_id: str
    name: str
    total: int
    resumed: int = 0
    completed: int = 0
    failed: int = 0
    interrupted: bool = False
    failures: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.interrupted

    @property
    def remaining(self) -> int:
        return self.total - self.resumed - self.completed - self.failed

    def summary(self) -> Dict:
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "total": self.total,
            "resumed": self.resumed,
            "completed": self.completed,
            "failed": self.failed,
            "remaining": self.remaining,
            "interrupted": self.interrupted,
        }


class Scheduler:
    """Execute cells into one store with bounded worker shards."""

    def __init__(self, store: ResultStore, jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 poll_interval_s: float = 0.02,
                 runner: Optional[JobRunner] = None) -> None:
        self.store = store
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else store.stats
        self.poll_interval_s = poll_interval_s
        if runner is None:
            runner = (InlineRunner() if self.jobs <= 1
                      else ProcessRunner())
        self.runner = runner
        self._stop_requests = 0

    # ------------------------------------------------------------------
    # stopping (SIGINT draining)
    # ------------------------------------------------------------------
    def request_stop(self) -> int:
        """Ask the loop to stop: once drains, twice aborts."""
        self._stop_requests += 1
        return self._stop_requests

    @property
    def stop_requests(self) -> int:
        """How many stops were requested (0: keep going)."""
        return self._stop_requests

    @contextmanager
    def draining_sigint(self) -> Iterator[None]:
        """Route Ctrl-C to :meth:`request_stop` while the block runs
        (main thread only), then restore the previous handler."""
        old_handler = self._install_sigint()
        try:
            yield
        finally:
            if old_handler is not None:
                signal.signal(signal.SIGINT, old_handler)

    def _install_sigint(self) -> SignalHandler:
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum: int, frame: Optional[FrameType]) -> None:
            count = self.request_stop()
            message = (
                "star-lab: draining in-flight cells "
                "(interrupt again to abort)..."
                if count == 1 else "star-lab: aborting in-flight cells"
            )
            print(message, flush=True)

        try:
            return signal.signal(signal.SIGINT, handler)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # the execute loop
    # ------------------------------------------------------------------
    def execute(self, specs: Iterable[Optional[RunSpec]],
                on_cell: Optional[CellCallback] = None) -> None:
        """Run cells as shards free up, reporting each as it finishes.

        ``specs`` is read lazily, one spec per free shard; a ``None``
        means "nothing to start yet" and is asked again once a running
        cell finishes (at once when none runs). A finished cell's
        payload is committed to the store, then ``on_cell`` sees the
        spec with ``None``; a failed or timed-out cell is reported with
        its error text and never retried here — the caller's lease
        board decides whether it runs again. The first stop request
        stops reading ``specs`` and lets in-flight cells finish and
        report; the second aborts them unreported.
        """
        source = iter(specs)
        provenance = {"git_rev": git_revision()}
        running: List[Tuple[RunSpec, JobHandle]] = []
        exhausted = waiting = False
        while True:
            progressed = False
            waiting = waiting and bool(running)
            while (not exhausted and not waiting
                   and len(running) < self.jobs
                   and self._stop_requests == 0):
                try:
                    spec = next(source)
                except StopIteration:
                    exhausted = True
                    break
                if spec is None:
                    waiting = True
                    break
                running.append((spec, self.runner.start(spec,
                                                        self.clock)))
                self.stats.add("lab.jobs.scheduled")
                progressed = True

            for entry in list(running):
                spec, handle = entry
                outcome = handle.poll()
                elapsed_s = self.clock.now() - handle.started
                if (outcome is None and self.timeout_s is not None
                        and elapsed_s > self.timeout_s):
                    handle.stop()
                    self.stats.add("lab.jobs.timeouts")
                    outcome = (
                        "error", "timed out after %.1fs" % self.timeout_s,
                    )
                if outcome is None:
                    continue
                running.remove(entry)
                progressed = True
                waiting = False
                status, value = outcome
                error = None
                if status == "ok":
                    self._commit(spec, cast(Dict, value), provenance,
                                 elapsed_s)
                else:
                    error = str(value)
                    self.stats.add("lab.jobs.failed")
                if on_cell is not None:
                    on_cell(spec, error)

            if self._stop_requests >= 2:
                for _spec, handle in running:
                    handle.stop()
                running.clear()
            if not running and (exhausted or self._stop_requests):
                return
            if not progressed:
                self.clock.sleep(self.poll_interval_s)

    def _commit(self, spec: RunSpec, payload: Dict, provenance: Dict,
                elapsed_s: float) -> None:
        spec_provenance = dict(provenance)
        spec_provenance["config_digest"] = _short_digest(spec.config)
        self.store.put(spec, payload, spec_provenance,
                       wall_time_s=elapsed_s)
        self.stats.add("lab.jobs.completed")
        self.stats.observe("lab.job.wall_ms", elapsed_s * 1000.0)


def _short_digest(config_payload: Dict) -> str:
    encoded = canonical_json(config_payload).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


# ----------------------------------------------------------------------
# journal writer (the coordinator's)
# ----------------------------------------------------------------------
def journal_path(store: ResultStore, cid: str) -> Path:
    return store.campaigns_path / (cid + ".json")


def write_journal(store: ResultStore, cid: str, name: str,
                  spec_dicts: List[Dict], status: str,
                  report: CampaignReport,
                  checkpoints: List[Dict], sitting: Dict) -> None:
    """Atomically publish one campaign journal under the store.

    The journal is the single checkpoint format every progress reader
    (``star-lab status``/``resume``, ``star-top``) consumes. Only the
    campaign's owner, a :class:`~repro.lab.farm.Coordinator`, writes
    it. ``spec_dicts`` is the campaign's spec list as
    :meth:`RunSpec.to_dict` data, built once per campaign rather than
    at every checkpoint. ``sitting`` is the (wall clock, cells stored)
    sample at the start of the current invocation, which rates are
    measured from.
    """
    payload = {
        "campaign_id": cid,
        "name": name,
        "status": status,
        "counts": report.summary(),
        "failures": report.failures,
        "checkpoints": checkpoints[-CHECKPOINT_LIMIT:],
        "sitting": sitting,
        "git_rev": git_revision(),
        "specs": spec_dicts,
    }
    store.campaigns_path.mkdir(exist_ok=True)
    path = journal_path(store, cid)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# journal readers (status / resume)
# ----------------------------------------------------------------------
def _read_journal(path: Path) -> Optional[Dict]:
    try:
        with open(path) as handle:
            journal = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(journal, dict) and "campaign_id" in journal:
        return journal
    return None


def read_journals(store: ResultStore) -> List[Dict]:
    """Every campaign journal in the store, sorted by id."""
    journals = []
    for path in sorted(store.campaigns_path.glob("*.json")):
        journal = _read_journal(path)
        if journal is not None:
            journals.append(journal)
    return journals


def journal_checkpoints(store: ResultStore, cid: str) -> List[Dict]:
    """A campaign's checkpoint history so far (empty without a
    journal), so a resumed or re-served campaign continues it instead
    of resetting its throughput history."""
    journal = _read_journal(journal_path(store, cid)) or {}
    checkpoints = journal.get("checkpoints", [])
    if not isinstance(checkpoints, list):
        return []
    return [entry for entry in checkpoints if isinstance(entry, dict)]


def journal_specs(journal: Dict) -> List[RunSpec]:
    return [RunSpec.from_dict(entry)
            for entry in journal.get("specs", [])]


def find_journal(store: ResultStore, id_prefix: str
                 ) -> Optional[Dict]:
    matches = [
        journal for journal in read_journals(store)
        if journal["campaign_id"].startswith(id_prefix)
    ]
    return matches[0] if len(matches) == 1 else None


def _is_sample(entry: object) -> bool:
    """A (wall clock, cells stored) progress sample."""
    return (isinstance(entry, dict)
            and "wall_s" in entry and "stored" in entry)


def checkpoint_rates(journal: Dict, now_wall: Optional[float] = None,
                     stale_after_s: float = 30.0
                     ) -> Tuple[Optional[float], Optional[float], bool]:
    """Derive (throughput cells/s, ETA seconds, stale?) from a
    journal's checkpoint history.

    Throughput is cells stored per wall second over the current
    sitting: from the journal's ``sitting`` sample to the last
    checkpoint, so the time between a campaign's invocations does not
    count as work time (journals without one start at the first
    checkpoint). ETA extrapolates the remaining cell count at that
    rate. ``stale`` is true for a *running* campaign whose last
    checkpoint is older than ``stale_after_s`` — a local campaign
    checkpoints after every settled cell, so silence means the process
    died or hung. Either rate is ``None`` when the history can't
    support it (no checkpoint after the start, or no forward progress
    yet).
    """
    checkpoints = [
        entry for entry in journal.get("checkpoints", [])
        if _is_sample(entry)
    ]
    stale = False
    if (now_wall is not None and checkpoints
            and journal.get("status") == "running"):
        age = now_wall - float(checkpoints[-1]["wall_s"])
        stale = age > stale_after_s
    if not checkpoints:
        return None, None, stale
    sitting = journal.get("sitting")
    first = sitting if _is_sample(sitting) else checkpoints[0]
    last = checkpoints[-1]
    elapsed = float(last["wall_s"]) - float(first["wall_s"])
    stored = int(last["stored"]) - int(first["stored"])
    if elapsed <= 0 or stored <= 0:
        return None, None, stale
    throughput = stored / elapsed
    counts = journal.get("counts", {})
    remaining = counts.get("remaining")
    eta = None
    if isinstance(remaining, int) and remaining >= 0:
        eta = remaining / throughput
    return throughput, eta, stale
