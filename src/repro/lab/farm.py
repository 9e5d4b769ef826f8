"""Campaigns on a lease board: a coordinator plus work-stealing workers.

Every campaign in ``repro.lab`` runs here, with one topology:

* a **coordinator** expands grids into cells, seeds the
  :class:`~repro.lab.lease.LeaseBoard` (settling cells the
  authoritative store already holds), then watches the board —
  writing journal checkpoints and heartbeats for ``star-lab status``
  / ``star-top`` — until every cell is terminal;
* **workers** claim one lease per free shard, execute the cell through
  the execute loop of a private
  :class:`~repro.lab.scheduler.Scheduler` (→ :mod:`repro.lab.executor`)
  and settle it on the board as soon as it finishes, under the
  lease's fencing token. A failed cell goes back to the board, whose
  fixed retry policy (:data:`~repro.lab.lease.MAX_ATTEMPTS` attempts,
  requeued after :data:`~repro.lab.lease.REQUEUE_BACKOFF`) is the one
  retry budget. A worker that dies (SIGKILL, host loss, partition)
  simply stops renewing — once its deadlines pass, the surviving
  workers steal its cells.

Two deployments share that code:

* **Local campaigns** (``star-lab run``/``resume``, :func:`run_local`):
  the coordinator and one in-process worker pool share an in-memory
  board, re-seeded from the grid and the store on every invocation.
  The worker writes straight into the authoritative store and the
  coordinator checkpoints the journal after every settled cell. The
  store stays the only durable progress record, so a killed run
  leaves no leases behind to wait out.
* **Farms** (``star-lab serve`` + ``star-lab work``) over a shared
  directory. Each worker computes into its own store — blobs and index
  only, no journal — and once the board is terminal the coordinator
  **merges** the worker stores into the authoritative store through
  :meth:`~repro.lab.store.ResultStore.import_from`. One farm
  directory serves one campaign.

Farm layout, under one shared directory::

    <farm>/
      leases.sqlite        the lease board (the only coordination state)
      farm.json            manifest: campaign id/name, cells, transport
      workers/<id>/store/  per-worker ResultStore (merged, then disposable)
      telemetry/           worker + coordinator heartbeats (star-top)

The board dependency is an interface, not a file: workers program
against :class:`~repro.lab.net.transport.LeaseTransport`, which the
SQLite board satisfies directly (shared-filesystem farms and local
campaigns) and :class:`~repro.lab.net.client.HttpLeaseClient`
satisfies over the wire (``star-lab work --coordinator URL``). In HTTP
mode the worker's ``farm_dir`` is just its private workdir — store and
telemetry land there, no filesystem is shared with the coordinator —
and each computed payload is shipped back as a gzip export upload
*before* its cell is completed, so a ``done`` row always has its
payload on the coordinator side.

Determinism: payloads are pure functions of their specs, so however
many workers computed (or double-computed, after a steal) a cell, the
authoritative store's deterministic export is byte-identical to a
serial ``star-lab run`` of the same grid — the property the
``farm-smoke`` CI job pins with ``cmp``. All timing goes through the
injectable :class:`~repro.lab.clock.Clock`, so churn scenarios are
tested on a FakeClock, and no wall-clock value ever reaches a result
payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.errors import ConfigError
from repro.lab.clock import BackoffPolicy, Clock
from repro.lab.gridfile import campaign_id
from repro.lab.lease import Lease, LeaseBoard
from repro.lab.net.client import HttpLeaseClient
from repro.lab.net.transport import LeaseTransport, TransportError
from repro.lab.scheduler import (
    CampaignReport,
    JobRunner,
    Scheduler,
    journal_checkpoints,
    write_journal,
)
from repro.lab.spec import RunSpec
from repro.lab.store import ResultStore, StoreError
from repro.util.stats import Stats

if TYPE_CHECKING:
    from repro.obs.live import HeartbeatWriter

PathLike = Union[str, Path]

BOARD_NAME = "leases.sqlite"
MANIFEST_NAME = "farm.json"
WORKERS_DIR = "workers"
TELEMETRY_DIR = "telemetry"


def board_path(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / BOARD_NAME


def manifest_path(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / MANIFEST_NAME


def telemetry_dir(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / TELEMETRY_DIR


def worker_store_path(farm_dir: PathLike, worker_id: str) -> Path:
    return Path(farm_dir) / WORKERS_DIR / worker_id / "store"


def _heartbeat(directory: PathLike, name: str, clock: Clock,
               interval_s: float,
               stats: Optional[Stats]) -> "HeartbeatWriter":
    from repro.obs.live import HeartbeatWriter

    return HeartbeatWriter(directory, name, clock=clock,
                           interval_s=interval_s, stats=stats)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """Seed the board, watch it converge, merge the worker stores.

    The coordinator owns the *authoritative* store and the campaign
    journal; it never executes cells itself. A campaign is
    :meth:`prepare`, then :meth:`watch` passes until one reports the
    campaign settled, then :meth:`finish`; :meth:`run` polls that
    loop for a farm, and a local campaign calls :meth:`watch` after
    each settled cell instead.

    Restarting a farm coordinator against the same farm directory
    re-adopts the existing board (in-flight leases keep their owners
    and fences) and re-merges whatever the workers have shipped since
    — coordination state lives entirely on disk. An injected
    ``board`` (a local campaign's in-memory one) needs no
    ``farm_dir`` and gets no ``farm.json``. ``telemetry`` is where
    heartbeats go: ``True`` for ``<farm>/telemetry``, a directory, or
    ``False`` for none.
    """

    def __init__(self, store: ResultStore,
                 farm_dir: Optional[PathLike],
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 poll_interval_s: float = 0.5,
                 heartbeat_interval_s: float = 1.0,
                 telemetry: Union[bool, PathLike] = True,
                 transport_meta: Optional[Dict] = None,
                 board: Optional[LeaseBoard] = None) -> None:
        self.store = store
        self.farm_dir = Path(farm_dir) if farm_dir is not None else None
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else store.stats
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        if telemetry is True:
            telemetry = telemetry_dir(self._require_farm_dir())
        self.telemetry_dir = (None if isinstance(telemetry, bool)
                              else Path(telemetry))
        # what the manifest advertises to star-top: how workers reach
        # the board (file path on a shared FS, or an http URL)
        self.transport_meta = transport_meta
        self._manifest = board is None
        if board is None:
            board = LeaseBoard(board_path(self._require_farm_dir()),
                               clock=self.clock)
        self.board = board
        self._beat: Optional["HeartbeatWriter"] = None
        # the prepared campaign
        self._cid = self._name = ""
        self._specs: List[RunSpec] = []
        self._spec_dicts: List[Dict] = []
        self._started = 0.0
        self._sitting: Dict = {}
        self._resumed = 0
        self._checkpoints: List[Dict] = []

    def _require_farm_dir(self) -> Path:
        if self.farm_dir is None:
            raise ConfigError("a coordinator without an injected board "
                              "or telemetry directory needs a farm_dir")
        return self.farm_dir

    def close(self) -> None:
        self.board.close()

    # ------------------------------------------------------------------
    def prepare(self, specs: List[RunSpec],
                name: str = "farm") -> CampaignReport:
        """Seed (or re-adopt) the board for a campaign.

        Cells the authoritative store already holds are settled as done
        without ever being claimable — the resume path. The checkpoint
        history continues: this coordinator's own, or else the
        journal's; progress rates count from this sitting. A board
        holding cells outside this campaign is refused: its merge would
        wait on cells nobody serves.
        """
        hashes = {spec.spec_hash for spec in specs}
        foreign = [spec_hash for spec_hash in self.board.hashes()
                   if spec_hash not in hashes]
        if foreign:
            raise ConfigError(
                "farm directory %s already holds another campaign's "
                "lease board (%d of its cells are not in %s); serve "
                "that campaign's grids, or use a fresh farm directory"
                % (self.farm_dir, len(foreign), name)
            )
        self.board.seed(specs)
        resumed = 0
        for spec in specs:
            if self.store.get(spec) is not None:
                self.board.settle(spec.spec_hash)
                resumed += 1
        if resumed:
            self.stats.add("lab.jobs.resumed", resumed)
        self.stats.gauge_set("lab.farm.cells", float(len(specs)))
        cid = campaign_id(specs)
        if cid != self._cid:
            self._checkpoints = journal_checkpoints(self.store, cid)
        self._cid, self._name, self._specs = cid, name, specs
        # serialized once for every journal write of this campaign
        self._spec_dicts = [spec.to_dict() for spec in specs]
        self._started = self.clock.wall()
        self._resumed = resumed
        if self._manifest:
            self._write_manifest()
        if self.telemetry_dir is not None and self._beat is None:
            self._beat = _heartbeat(self.telemetry_dir, "coordinator",
                                    self.clock,
                                    self.heartbeat_interval_s,
                                    self.stats)
        report = self._report()
        self._sitting = {"wall_s": self._started,
                         "stored": report.resumed + report.completed}
        self._checkpoint(report)
        self._journal("running", report)
        self._publish(report)
        return report

    def _write_manifest(self) -> None:
        farm_dir = self._require_farm_dir()
        manifest = {
            "campaign_id": self._cid,
            "name": self._name,
            "cells": len(self._specs),
            "transport": (dict(self.transport_meta)
                          if self.transport_meta is not None
                          else {"kind": "file",
                                "board": str(board_path(farm_dir))}),
        }
        path = manifest_path(farm_dir)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def _report(self) -> CampaignReport:
        counts = self.board.counts()
        report = CampaignReport(
            campaign_id=self._cid, name=self._name,
            total=len(self._specs), resumed=self._resumed,
            completed=max(0, counts["done"] - self._resumed),
            failed=counts["failed"],
        )
        report.failures = self.board.failures()
        self.stats.gauge_set("lab.farm.pending",
                             float(counts["pending"]))
        self.stats.gauge_set("lab.farm.leased", float(counts["leased"]))
        self.stats.gauge_set("lab.farm.done", float(counts["done"]))
        self.stats.gauge_set("lab.farm.failed", float(counts["failed"]))
        return report

    def _checkpoint(self, report: CampaignReport) -> bool:
        """Append a (wall clock, cells stored) progress sample when the
        stored count moved since the last one."""
        stored = report.resumed + report.completed
        if self._checkpoints and self._checkpoints[-1].get(
                "stored") == stored:
            return False
        self._checkpoints.append({"wall_s": self.clock.wall(),
                                  "stored": stored})
        return True

    def _journal(self, status: str, report: CampaignReport) -> None:
        write_journal(self.store, self._cid, self._name,
                      self._spec_dicts, status, report, self._checkpoints,
                      self._sitting)

    def _publish(self, report: CampaignReport,
                 force: bool = False) -> None:
        if self._beat is not None:
            self._beat.write(registry=self.stats.registry,
                             progress=report.summary(), force=force)

    def merge(self) -> int:
        """Import every worker store into the authoritative store.

        Workers are visited in name order and records in spec-hash
        order; since payloads are spec-pure, the result is independent
        of worker count, interleaving, and double-computed cells.
        """
        if self.farm_dir is None:
            return 0  # a local campaign's worker wrote the store itself
        workers_root = self.farm_dir / WORKERS_DIR
        if not workers_root.is_dir():
            return 0
        merged = 0
        for worker_root in sorted(workers_root.iterdir()):
            store_root = worker_root / "store"
            if not store_root.is_dir():
                continue
            with ResultStore(store_root) as source:
                merged += self.store.import_from(source)
        if merged:
            self.stats.add("lab.farm.merged_records", merged)
        return merged

    # ------------------------------------------------------------------
    def watch(self) -> bool:
        """One pass over the board; ``True`` once the campaign settled.

        Checkpoints the journal when the stored count moved and
        publishes a heartbeat. Once every cell is terminal it merges
        the worker stores, and puts back on the board any ``done`` row
        whose payload never shipped (a worker store lost wholesale).
        """
        report = self._report()
        if self.board.finished():
            self.merge()
            done = set(self.board.hashes("done"))
            missing = [
                spec.spec_hash for spec in self._specs
                if spec.spec_hash in done
                and self.store.peek(spec) is None
            ]
            if not missing:
                return True  # finish writes the final checkpoint
            self.board.requeue(missing)
            self.stats.add("lab.farm.cells_requeued", len(missing))
        if self._checkpoint(report):
            self._journal("running", report)
        self._publish(report)
        return False

    def finish(self, interrupted: bool = False) -> CampaignReport:
        """Finalize the journal: ``complete``, ``failed``, or
        ``interrupted`` while cells remain."""
        report = self._report()
        report.interrupted = interrupted or report.remaining > 0
        self._checkpoint(report)
        status = ("interrupted" if report.interrupted
                  else "failed" if report.failed else "complete")
        self._journal(status, report)
        self.stats.gauge_set("lab.farm.wall_s",
                             self.clock.wall() - self._started)
        self._publish(report, force=True)
        return report

    def run(self, specs: List[RunSpec], name: str = "farm",
            max_wall_s: Optional[float] = None) -> CampaignReport:
        """Serve one farm campaign to completion (or ``max_wall_s``).

        Blocks while workers chew through the board, polling
        :meth:`watch`, then finalizes. ``max_wall_s`` bounds the watch
        loop — the controlled interruption knob (the campaign stays
        resumable: re-run ``serve`` to re-adopt it).
        """
        self.prepare(specs, name=name)
        interrupted = False
        try:
            while not self.watch():
                if (max_wall_s is not None and self.clock.wall()
                        - self._started >= max_wall_s):
                    interrupted = True
                    break
                self.clock.sleep(self.poll_interval_s)
        except KeyboardInterrupt:
            interrupted = True
        return self.finish(interrupted)


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
class Worker:
    """One work-stealing worker pool: claim, execute, settle, repeat.

    Feeds the execute loop of one private :class:`Scheduler` (process
    shards and timeouts come along for free) one lease per free shard,
    and settles each cell on the board the moment it finishes, so a
    slow cell never holds up its peers. Leases still running are
    renewed at most once every quarter lease, whenever a shard asks
    for its next cell. The scheduler does not retry: a failed
    execution goes back to the board, whose fixed policy is the one
    retry budget. Results land in the worker's own store, which holds
    only blobs and their index: the campaign journal is the
    coordinator's. Completion is reported under the lease fence, so a
    worker that outlived its lease discards the completion (not the
    result — the merge path dedups identical payloads).

    When nothing is claimable and no cell of its own is running, the
    worker idles under an exponential backoff from ``poll_interval_s``
    until either work appears (a peer's lease expires: the stealing
    path, or a failed cell's backoff passes) or the board reports
    every cell terminal, at which point it exits. ``max_cells`` bounds
    how many leases it claims in all.

    One SIGINT handler covers the whole claim loop: the first Ctrl-C
    (or :meth:`request_stop`) lets in-flight cells finish and settle,
    then stops claiming; the second aborts them, and their leases
    expire back to the board.

    A local campaign (:func:`run_local`) injects the coordinator's
    ``board`` and authoritative ``store`` and passes ``on_settle``,
    called after every settled cell.
    """

    def __init__(self, farm_dir: PathLike, worker_id: str,
                 store: Optional[ResultStore] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 jobs: int = 1,
                 lease_s: float = 60.0,
                 timeout_s: Optional[float] = None,
                 poll_interval_s: float = 0.2,
                 heartbeat_interval_s: float = 1.0,
                 telemetry: bool = True,
                 runner: Optional[JobRunner] = None,
                 wait_s: float = 30.0,
                 max_cells: Optional[int] = None,
                 coordinator: Optional[str] = None,
                 net_timeout_s: float = 10.0,
                 net_retries: int = 5,
                 net_backoff: Optional[BackoffPolicy] = None,
                 board: Optional[LeaseTransport] = None,
                 on_settle: Optional[Callable[[], object]] = None
                 ) -> None:
        self.farm_dir = Path(farm_dir)
        self.worker_id = worker_id
        self.coordinator = coordinator
        self.net_timeout_s = net_timeout_s
        self.net_retries = net_retries
        self.net_backoff = net_backoff
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else Stats(enabled=True)
        if store is None:
            store = ResultStore(
                worker_store_path(self.farm_dir, worker_id),
                stats=self.stats,
            )
        self.store = store
        self.lease_s = lease_s
        self.idle_backoff = BackoffPolicy(
            base_s=poll_interval_s, cap_s=max(1.0, lease_s / 4),
        )
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.telemetry = telemetry
        self.scheduler = Scheduler(
            self.store, jobs=jobs, timeout_s=timeout_s,
            clock=self.clock, stats=self.stats, runner=runner,
        )
        self.wait_s = wait_s
        self.max_cells = max_cells
        self.board = board
        self.on_settle = on_settle
        self.done = 0
        self.failed = 0
        self.stolen = 0

    # ------------------------------------------------------------------
    def _wait_for_board(self) -> Optional[LeaseTransport]:
        """Connect the lease transport, waiting up to ``wait_s``.

        An injected board is used as is. With a ``coordinator`` URL
        the wait is a ping loop against its snapshot endpoint;
        otherwise it polls for the board file the coordinator creates
        on the shared filesystem.
        """
        if self.board is not None:
            return self.board
        waited = 0.0
        if self.coordinator is not None:
            client = HttpLeaseClient(
                self.coordinator, clock=self.clock, stats=self.stats,
                timeout_s=self.net_timeout_s, retries=self.net_retries,
                backoff=self.net_backoff,
            )
            while True:
                try:
                    client.ping()
                    return client
                except TransportError:
                    if waited >= self.wait_s:
                        return None
                    self.clock.sleep(self.poll_interval_s)
                    waited += self.poll_interval_s
        path = board_path(self.farm_dir)
        while not path.exists():
            if waited >= self.wait_s:
                return None
            self.clock.sleep(self.poll_interval_s)
            waited += self.poll_interval_s
        return LeaseBoard(path, clock=self.clock)

    def request_stop(self) -> int:
        """Ask the worker to stop: once finishes and settles the
        in-flight cells and stops claiming, twice aborts them
        (``star-lab run``'s two stages)."""
        return self.scheduler.request_stop()

    def _ship(self, board: LeaseTransport, lease: Lease) -> bool:
        """Upload one computed payload (HTTP farms only).

        Runs *before* settling, so by the time a cell's ``complete``
        lands on the board its payload is already in the
        coordinator's store — a ``done`` row can't outrun its data.
        Returns ``False`` when the upload could not be delivered; the
        cell is then left unsettled, its lease expires, and a
        connected peer (or this worker, reconnected) recomputes or
        reships — the convergence path churn already exercises.
        """
        upload = getattr(board, "upload_results", None)
        if upload is None:
            return True  # file transport: the merge path reads disk
        entries = self.store.export(spec_hashes=[lease.spec_hash])
        if not entries:
            return True
        try:
            upload(entries)
        except TransportError:
            return False
        self.stats.add("lab.farm.results_shipped", len(entries))
        return True

    def _settle(self, board: LeaseTransport, lease: Lease,
                error: Optional[str],
                beat: Optional["HeartbeatWriter"]) -> None:
        """Report one finished cell on the board, under its fence."""
        try:
            if error is None:
                # an undelivered upload leaves the cell unsettled
                if self._ship(board, lease):
                    self._complete(board, lease)
            else:
                outcome = board.fail(self.worker_id, lease.spec_hash,
                                     lease.fence, error)
                if outcome == "failed":
                    self.failed += 1
                    self.stats.add("lab.farm.cells_failed")
                elif outcome == "requeued":
                    self.stats.add("lab.farm.cells_requeued")
                else:
                    self.stats.add("lab.farm.stale_fences")
        except TransportError:
            # an unreported outcome just lets the lease expire;
            # outcomes already on the board stand
            pass
        if beat is not None:
            beat.write(registry=self.stats.registry,
                       progress={"state": "running", "done": self.done,
                                 "stolen": self.stolen})
        if self.on_settle is not None:
            self.on_settle()

    def _complete(self, board: LeaseTransport, lease: Lease) -> None:
        if board.complete(self.worker_id, lease.spec_hash, lease.fence):
            self.done += 1
            self.stats.add("lab.farm.cells_done")
        else:
            self.stats.add("lab.farm.stale_fences")

    def _renew(self, board: LeaseTransport,
               held: Dict[str, Lease]) -> None:
        try:
            for lease in held.values():
                if board.renew(self.worker_id, lease.spec_hash,
                               lease.fence, self.lease_s):
                    self.stats.add("lab.farm.lease_renewals")
        except TransportError:
            # renewal is best-effort: missed renewals only widen the
            # steal window
            pass

    def _claims(self, board: LeaseTransport, held: Dict[str, Lease],
                beat: Optional["HeartbeatWriter"]
                ) -> Iterator[Optional[RunSpec]]:
        """The execute loop's spec source: one claimed lease per free
        shard, ``None`` while only this worker's own cells remain, and
        exhausted once the board is terminal, ``max_cells`` leases
        were claimed, or a stop arrived during an idle wait."""
        claimed = idle_attempts = 0
        renewed_at = self.clock.now()
        while (not self.scheduler.stop_requests
               and (self.max_cells is None
                    or claimed < self.max_cells)):
            if held and (self.clock.now() - renewed_at
                         >= self.lease_s / 4):
                renewed_at = self.clock.now()
                self._renew(board, held)
            # past the client's retry budget the coordinator is gone,
            # not flapping: exit with what we have — the board remains
            # authoritative, and unfinished leases expire back to
            # whoever reaches it next
            try:
                leases = board.claim(self.worker_id, self.lease_s,
                                     limit=1)
                if not leases and not held and board.finished():
                    return
            except TransportError:
                return
            if not leases:
                if held:
                    yield None  # ask again once one of ours settles
                    continue
                # peers hold every remaining cell, or a failed one is
                # backing off; pace re-claims with the idle backoff
                # (a peer's lease may expire — the stealing path)
                idle_attempts += 1
                if beat is not None:
                    beat.write(registry=self.stats.registry,
                               progress={"state": "idle",
                                         "done": self.done})
                self.clock.sleep(max(self.poll_interval_s,
                                     self.idle_backoff.delay(
                                         idle_attempts)))
                continue
            idle_attempts = 0
            (lease,) = leases
            claimed += 1
            self.stats.add("lab.farm.leases_claimed")
            if lease.stolen:
                self.stolen += 1
                self.stats.add("lab.farm.leases_stolen")
            if self.store.peek(lease.spec) is not None:
                # computed here before (a re-claimed or stolen-back
                # cell): settle it without running it again
                self._settle(board, lease, None, beat)
                continue
            held[lease.spec_hash] = lease
            yield lease.spec

    def run(self) -> Dict:
        """Work the board until the campaign is terminal.

        Returns a summary dict (cells done/failed here, steals) —
        diagnostics only; the authoritative outcome lives on the board
        and in the coordinator's store.
        """
        board = self._wait_for_board()
        if board is None:
            if self.coordinator is not None:
                raise TransportError(
                    "no coordinator answering at %s after waiting "
                    "%.0fs; is star-lab serve --http running there?"
                    % (self.coordinator, self.wait_s)
                )
            raise StoreError(
                "no lease board under %s after waiting %.0fs; is "
                "star-lab serve running against this farm directory?"
                % (self.farm_dir, self.wait_s)
            )
        beat = None
        if self.telemetry:
            beat = _heartbeat(telemetry_dir(self.farm_dir),
                              self.worker_id, self.clock,
                              self.heartbeat_interval_s, self.stats)
        held: Dict[str, Lease] = {}

        def settle(spec: RunSpec, error: Optional[str]) -> None:
            self._settle(board, held.pop(spec.spec_hash), error, beat)

        try:
            with self.scheduler.draining_sigint():
                self.scheduler.execute(self._claims(board, held, beat),
                                       on_cell=settle)
        finally:
            if beat is not None:
                beat.write(registry=self.stats.registry,
                           progress={"state": "exited",
                                     "done": self.done,
                                     "stolen": self.stolen},
                           force=True)
            if self.board is None:
                board.close()
        return {
            "worker": self.worker_id,
            "done": self.done,
            "failed": self.failed,
            "stolen": self.stolen,
            "interrupted": self.scheduler.stop_requests > 0,
        }


# ----------------------------------------------------------------------
# local campaigns
# ----------------------------------------------------------------------
def run_local(store: ResultStore, specs: List[RunSpec],
              name: str = "campaign", jobs: int = 1,
              timeout_s: Optional[float] = None,
              max_cells: Optional[int] = None,
              clock: Optional[Clock] = None,
              stats: Optional[Stats] = None,
              runner: Optional[JobRunner] = None,
              telemetry: Optional[PathLike] = None,
              heartbeat_interval_s: float = 1.0) -> CampaignReport:
    """Run one campaign on this host (``star-lab run``/``resume``).

    A coordinator and one worker pool of ``jobs`` shards share an
    in-memory lease board, seeded from ``specs`` and settled from the
    store, so only unstored cells run — a failed cell included, since
    nothing but the store outlives the invocation. The worker writes
    straight into ``store``, and the board's fixed policy retries a
    failed cell (:data:`~repro.lab.lease.MAX_ATTEMPTS` runs at most).
    ``max_cells`` bounds how many cells this invocation claims (cached
    cells are free) — the controlled-interruption knob. The
    coordinator journals the campaign and checkpoints it after every
    settled cell, and is the one heartbeat writer when ``telemetry``
    names a directory. Ctrl-C drains, twice aborts; the campaign then
    reports interrupted.
    """
    clock = clock if clock is not None else Clock()
    stats = stats if stats is not None else store.stats
    coordinator = Coordinator(
        store, None, clock=clock, stats=stats,
        heartbeat_interval_s=heartbeat_interval_s,
        telemetry=telemetry if telemetry is not None else False,
        board=LeaseBoard(":memory:", clock=clock),
    )
    worker = Worker(
        store.root, "local", store=store, clock=clock, stats=stats,
        jobs=jobs, timeout_s=timeout_s, telemetry=False, runner=runner,
        max_cells=max_cells, board=coordinator.board,
        on_settle=coordinator.watch,
    )
    try:
        # a Ctrl-C while the board is seeded already drains the run
        with worker.scheduler.draining_sigint():
            coordinator.prepare(specs, name=name)
            summary = worker.run()
        return coordinator.finish(interrupted=summary["interrupted"])
    finally:
        coordinator.close()
