"""The farm's lease board: SQLite cell leases with fencing tokens.

A farm campaign is a set of :class:`~repro.lab.spec.RunSpec` cells
that many worker processes (possibly on many hosts sharing a
filesystem) race to execute. The board is the single source of truth
for who owns which cell:

* every cell is one row keyed by ``spec_hash``, in one of four states
  — ``pending`` (claimable), ``leased`` (owned until a deadline),
  ``done``, ``failed``;
* a **claim** atomically moves a row to ``leased`` for one owner,
  stamps a deadline, and bumps the row's **fencing token** — a
  per-cell monotonic counter;
* a lease whose deadline has passed (``now >= deadline``, inclusive:
  expiry happens *exactly at* the deadline) is claimable again by any
  worker — that is the work-stealing path, and the steal bumps the
  fence, so the previous owner's token goes stale;
* **complete**/**renew**/**fail** only succeed when state, owner *and*
  fence all still match — a zombie worker (SIGKILLed, paused past its
  deadline, partitioned) that comes back after its cell was stolen is
  rejected instead of overwriting the thief's progress. Its computed
  payload is not wasted either: payloads are pure functions of the
  spec, so the merge path converges regardless of which owner's copy
  ships.

The board alone owns the retry policy, whichever worker or transport
reports a failure: a cell's :data:`MAX_ATTEMPTS`-th failed execution
is terminal, and each earlier one requeues it after the
:data:`REQUEUE_BACKOFF` delay (0.5 s, then 1.0 s). ``deadline``
doubles as a *not-claimable-before* stamp for ``pending`` rows, which
is how failed cells re-enter the queue without a separate column or a
sleeping coordinator.

All timestamps are epoch seconds through the injected
:class:`~repro.lab.clock.Clock` (``clock.wall()`` — the same
cross-process-comparable seam the heartbeat plane uses), so FakeClock
tests drive expiry and backoff deterministically. Writes use
``BEGIN IMMEDIATE`` transactions with a busy timeout, which is what
makes concurrent claims from separate processes race-safe on one
SQLite file.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ConfigError
from repro.lab.clock import BackoffPolicy, Clock
from repro.lab.spec import RunSpec, canonical_json

PathLike = Union[str, Path]

STATES = ("pending", "leased", "done", "failed")

MAX_ATTEMPTS = 3
"""Failed executions after which a cell is terminally ``failed``."""

REQUEUE_BACKOFF = BackoffPolicy(base_s=0.5, cap_s=30.0)
"""How long a failed cell waits before it is claimable again, by
failed attempt: 0.5 s after the first, 1.0 s after the second."""

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS leases (
    spec_hash TEXT PRIMARY KEY,
    spec_json TEXT NOT NULL,
    state     TEXT NOT NULL,
    owner     TEXT,
    deadline  REAL NOT NULL DEFAULT 0,
    fence     INTEGER NOT NULL DEFAULT 0,
    attempts  INTEGER NOT NULL DEFAULT 0,
    error     TEXT
)
"""

_CLAIMABLE_SQL = (
    "SELECT spec_hash, spec_json, state, owner, fence, attempts "
    "FROM leases WHERE state IN ('pending', 'leased') "
    "AND deadline <= ? ORDER BY spec_hash LIMIT ?"
)


@dataclass(frozen=True)
class Lease:
    """One claimed cell: the spec plus the claim's fencing credentials."""

    spec: RunSpec
    fence: int
    deadline: float
    stolen: bool = False
    attempts: int = 0

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash


class LeaseBoard:
    """The shared lease table one farm campaign coordinates through."""

    def __init__(self, path: PathLike, clock: Optional[Clock] = None,
                 busy_timeout_s: float = 10.0,
                 cross_thread: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock if clock is not None else Clock()
        # autocommit mode: transactions are opened explicitly with
        # BEGIN IMMEDIATE so claim's read-then-update is atomic across
        # processes. ``cross_thread`` lets the HTTP lease server share
        # one board across handler threads — the server serializes every
        # verb behind its own lock, so sqlite's same-thread check would
        # only get in the way.
        self._conn = sqlite3.connect(
            str(self.path), timeout=busy_timeout_s,
            isolation_level=None,
            check_same_thread=not cross_thread,
        )
        self._conn.execute(
            "PRAGMA busy_timeout = %d" % int(busy_timeout_s * 1000)
        )
        self._conn.execute(_TABLE_SQL)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "LeaseBoard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")

    # ------------------------------------------------------------------
    # seeding / adoption
    # ------------------------------------------------------------------
    def seed(self, specs: List[RunSpec]) -> int:
        """Add cells as ``pending``; existing rows are left untouched.

        Idempotent by construction (``INSERT OR IGNORE``), which is
        what makes a restarted coordinator *re-adopt* a board instead
        of resetting it: in-flight leases keep their owner, deadline
        and fence, and finished cells stay finished. Returns how many
        rows are new.
        """
        self._begin()
        try:
            added = 0
            for spec in specs:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO leases "
                    "(spec_hash, spec_json, state) "
                    "VALUES (?, ?, 'pending')",
                    (spec.spec_hash, canonical_spec_json(spec)),
                )
                added += cursor.rowcount
            self._conn.execute("COMMIT")
            return added
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def settle(self, spec_hash: str) -> bool:
        """Mark a cell ``done`` out-of-band (already in the store).

        Used by the coordinator for cells the authoritative store
        already holds — there is nothing to execute, so the row is
        finished regardless of its current state. A worker still
        holding a lease on it will get a clean state-mismatch rejection
        at completion time.
        """
        self._begin()
        try:
            cursor = self._conn.execute(
                "UPDATE leases SET state = 'done' "
                "WHERE spec_hash = ? AND state != 'done'",
                (spec_hash,),
            )
            self._conn.execute("COMMIT")
            return cursor.rowcount == 1
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def requeue(self, spec_hashes: List[str]) -> int:
        """Force cells back to ``pending`` (e.g. done rows whose
        payload never reached the authoritative store because a worker
        store was lost). The fence is bumped so any stale owner stays
        locked out."""
        self._begin()
        try:
            requeued = 0
            for spec_hash in spec_hashes:
                cursor = self._conn.execute(
                    "UPDATE leases SET state = 'pending', owner = NULL,"
                    " deadline = 0, fence = fence + 1 "
                    "WHERE spec_hash = ? AND state != 'pending'",
                    (spec_hash,),
                )
                requeued += cursor.rowcount
            self._conn.execute("COMMIT")
            return requeued
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------
    def claim(self, owner: str, lease_s: float,
              limit: int = 1) -> List[Lease]:
        """Atomically claim up to ``limit`` claimable cells.

        Claimable means ``pending`` past its not-before stamp, or
        ``leased`` past its deadline (a steal from a dead or stalled
        peer). Rows are taken in spec-hash order so claim order is
        deterministic for a given board state. Each claim bumps the
        row's fence.

        ``lease_s`` must be positive (a non-positive lease would seed
        an already-expired deadline, turning every claim into an
        instant steal target) and ``limit`` must be at least one (a
        zero batch would silently claim nothing, forever).
        """
        if lease_s <= 0:
            raise ConfigError(
                "claim lease_s must be positive, got %r: a "
                "non-positive lease seeds an already-expired deadline"
                % lease_s
            )
        if limit <= 0:
            raise ConfigError(
                "claim batch size must be at least 1, got %r" % limit
            )
        now = self.clock.wall()
        self._begin()
        try:
            rows = self._conn.execute(
                _CLAIMABLE_SQL, (now, limit)
            ).fetchall()
            leases = []
            for (spec_hash, spec_json, state, prior_owner, fence,
                 attempts) in rows:
                stolen = state == "leased" and prior_owner != owner
                self._conn.execute(
                    "UPDATE leases SET state = 'leased', owner = ?, "
                    "deadline = ?, fence = ? WHERE spec_hash = ?",
                    (owner, now + lease_s, fence + 1, spec_hash),
                )
                leases.append(Lease(
                    spec=spec_from_json(spec_json),
                    fence=fence + 1,
                    deadline=now + lease_s,
                    stolen=stolen,
                    attempts=attempts,
                ))
            self._conn.execute("COMMIT")
            return leases
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def _fenced_update(self, set_sql: str, params: tuple, owner: str,
                       spec_hash: str, fence: int) -> bool:
        cursor = self._conn.execute(
            "UPDATE leases SET %s WHERE spec_hash = ? AND "
            "state = 'leased' AND owner = ? AND fence = ?" % set_sql,
            params + (spec_hash, owner, fence),
        )
        return cursor.rowcount == 1

    def renew(self, owner: str, spec_hash: str, fence: int,
              lease_s: float) -> bool:
        """Extend a held lease's deadline; ``False`` on a stale fence
        (the cell was stolen, or already finished elsewhere)."""
        return self._fenced_update(
            "deadline = ?", (self.clock.wall() + lease_s,),
            owner, spec_hash, fence,
        )

    def complete(self, owner: str, spec_hash: str, fence: int) -> bool:
        """Mark a held cell ``done``; ``False`` on a stale fence, in
        which case the caller's result must not be reported as the
        cell's completion (the thief owns it now)."""
        return self._fenced_update(
            "state = 'done'", (), owner, spec_hash, fence,
        )

    def fail(self, owner: str, spec_hash: str, fence: int,
             error: str) -> str:
        """Record a failed execution attempt on a held cell.

        Returns ``"requeued"`` (back to ``pending``, claimable after
        the :data:`REQUEUE_BACKOFF` delay — by *any* worker, so a cell
        that fails on a sick host can succeed on a healthy one),
        ``"failed"`` (the :data:`MAX_ATTEMPTS`-th failure; terminal),
        or ``"stale"`` (fence mismatch: this owner no longer holds the
        cell, nothing recorded).
        """
        self._begin()
        try:
            row = self._conn.execute(
                "SELECT attempts FROM leases WHERE spec_hash = ? AND "
                "state = 'leased' AND owner = ? AND fence = ?",
                (spec_hash, owner, fence),
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return "stale"
            attempts = row[0] + 1
            if attempts >= MAX_ATTEMPTS:
                self._conn.execute(
                    "UPDATE leases SET state = 'failed', attempts = ?,"
                    " error = ? WHERE spec_hash = ?",
                    (attempts, error, spec_hash),
                )
                outcome = "failed"
            else:
                self._conn.execute(
                    "UPDATE leases SET state = 'pending', owner = NULL,"
                    " attempts = ?, error = ?, deadline = ? "
                    "WHERE spec_hash = ?",
                    (attempts, error,
                     self.clock.wall() + REQUEUE_BACKOFF.delay(attempts),
                     spec_hash),
                )
                outcome = "requeued"
            self._conn.execute("COMMIT")
            return outcome
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row counts by state (absent states count zero)."""
        out = {state: 0 for state in STATES}
        for state, count in self._conn.execute(
            "SELECT state, COUNT(*) FROM leases GROUP BY state"
        ):
            out[state] = count
        return out

    def finished(self) -> bool:
        """True when every cell is terminal (``done`` or ``failed``)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def hashes(self, state: Optional[str] = None) -> List[str]:
        """Spec hashes (optionally one state), in hash order."""
        if state is None:
            rows = self._conn.execute(
                "SELECT spec_hash FROM leases ORDER BY spec_hash"
            )
        else:
            rows = self._conn.execute(
                "SELECT spec_hash FROM leases WHERE state = ? "
                "ORDER BY spec_hash", (state,),
            )
        return [row[0] for row in rows]

    def lease_row(self, spec_hash: str) -> Optional[Dict]:
        """One cell's row as a dict (``None`` when unknown).

        Read-only: the HTTP lease server uses it to tell a *retried*
        ``complete`` (same owner and fence already landed the row in
        ``done`` — acknowledge, don't re-apply) from a genuinely stale
        one (someone else owns the cell — reject).
        """
        row = self._conn.execute(
            "SELECT spec_hash, state, owner, deadline, fence, "
            "attempts, error FROM leases WHERE spec_hash = ?",
            (spec_hash,),
        ).fetchone()
        if row is None:
            return None
        (spec_hash, state, owner, deadline, fence, attempts,
         error) = row
        return {"spec_hash": spec_hash, "state": state, "owner": owner,
                "deadline": deadline, "fence": fence,
                "attempts": attempts, "error": error}

    def rows(self) -> List[Dict]:
        """Every row as a dict, in spec-hash order (status surfaces)."""
        cursor = self._conn.execute(
            "SELECT spec_hash, state, owner, deadline, fence, "
            "attempts, error FROM leases ORDER BY spec_hash"
        )
        return [
            {"spec_hash": spec_hash, "state": state, "owner": owner,
             "deadline": deadline, "fence": fence,
             "attempts": attempts, "error": error}
            for (spec_hash, state, owner, deadline, fence, attempts,
                 error) in cursor
        ]

    def failures(self) -> List[Dict]:
        """Terminal failures in the journal's ``failures`` shape."""
        out = []
        cursor = self._conn.execute(
            "SELECT spec_hash, spec_json, attempts, error FROM leases "
            "WHERE state = 'failed' ORDER BY spec_hash"
        )
        for spec_hash, spec_json, attempts, error in cursor:
            out.append({
                "spec_hash": spec_hash,
                "label": spec_from_json(spec_json).label,
                "attempts": attempts,
                "error": (error or "unknown").splitlines()[-1],
            })
        return out


# ----------------------------------------------------------------------
# spec (de)hydration
# ----------------------------------------------------------------------
def canonical_spec_json(spec: RunSpec) -> str:
    return canonical_json(spec.to_dict())


def spec_from_json(spec_json: str) -> RunSpec:
    return RunSpec.from_dict(json.loads(spec_json))
