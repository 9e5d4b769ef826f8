"""The persistent experiment store: SQLite index + gzip-JSONL blobs.

Layout under one store root (conventionally ``.starlab/``)::

    .starlab/
      index.sqlite              # spec_hash -> row (the query surface)
      blobs/ab/abcdef....jsonl.gz   # the record of one cell
      campaigns/<id>.json       # campaign journals (owners only)
      quarantine/               # corrupt files moved aside, never read

Each blob is a self-contained gzip JSONL file holding the spec, the
result payload and the provenance record, so the SQLite index is pure
acceleration: a corrupt or truncated index is quarantined and rebuilt
from the blobs, and a corrupt blob is quarantined and its row dropped,
which turns the damage into a cache miss (the cell is recomputed)
rather than a crash.

Record equality rule: ``payload`` is the deterministic result of the
spec and is what :meth:`ResultStore.export` emits; ``provenance``
(git revision, config digest, schema version) and ``wall_time_s`` are
environment facts and stay out of exports, so a resumed campaign
exports bit-identically to a serial one.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sqlite3
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.lab.spec import (
    SCHEMA_VERSION,
    RunSpec,
    canonical_json,
)
from repro.util.stats import Stats

PathLike = Union[str, Path]

INDEX_NAME = "index.sqlite"
BLOBS_DIR = "blobs"
CAMPAIGNS_DIR = "campaigns"
QUARANTINE_DIR = "quarantine"

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS results (
    spec_hash      TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    kind           TEXT NOT NULL,
    scheme         TEXT NOT NULL,
    workload       TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    wall_time_s    REAL NOT NULL,
    spec_json      TEXT NOT NULL
)
"""

_BLOB_ERRORS = (
    OSError, EOFError, ValueError, KeyError, UnicodeDecodeError,
)

_INSERT_SQL = "INSERT OR REPLACE INTO results VALUES (?,?,?,?,?,?,?,?)"


class StoreError(ReproError):
    """The store root is unusable (not a directory, unwritable, ...)."""


@functools.lru_cache(maxsize=None)
def git_revision() -> str:
    """The revision of the checkout this package was imported from
    (provenance), or ``unknown``.

    Resolved once per process: the revision describes code the process
    has already imported, so neither the current directory nor a later
    checkout changes the answer. ``git_revision.cache_clear()`` resets
    the memo (tests).
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class ResultRecord:
    """One stored cell: spec + deterministic payload + environment."""

    spec_hash: str
    spec: Dict
    payload: Dict
    provenance: Dict
    wall_time_s: float = 0.0

    def export_entry(self) -> Dict:
        """The equality-relevant projection (no provenance/timing)."""
        return {
            "spec_hash": self.spec_hash,
            "spec": self.spec,
            "result": self.payload,
        }


def _spec_key(spec_or_hash: Union[RunSpec, str]) -> str:
    if isinstance(spec_or_hash, RunSpec):
        return spec_or_hash.spec_hash
    return spec_or_hash


def _new_record(spec: RunSpec, payload: Dict,
                provenance: Optional[Dict],
                wall_time_s: float) -> ResultRecord:
    provenance = dict(provenance or {})
    provenance.setdefault("schema", SCHEMA_VERSION)
    return ResultRecord(
        spec_hash=spec.spec_hash,
        spec=spec.to_dict(),
        payload=payload,
        provenance=provenance,
        wall_time_s=wall_time_s,
    )


def _index_row(record: ResultRecord) -> Tuple:
    """The ``results`` row indexing one record."""
    spec = record.spec
    return (
        record.spec_hash,
        record.provenance.get("schema", SCHEMA_VERSION),
        spec.get("kind", "?"),
        spec.get("scheme", "?"),
        spec.get("workload", "?"),
        spec.get("seed", 0),
        record.wall_time_s,
        canonical_json(spec),
    )


class ResultStore:
    """Content-addressed result store under one ``.starlab`` root."""

    def __init__(self, root: PathLike,
                 stats: Optional[Stats] = None,
                 cross_thread: bool = False) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError("store root %s is not a directory"
                             % self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / BLOBS_DIR).mkdir(exist_ok=True)
        self.stats = stats if stats is not None else Stats(enabled=False)
        # cross_thread: the HTTP lease server's ingestion store is
        # touched from handler threads; its lock serializes access,
        # and stock SQLite builds are serialized (threadsafety 3)
        self._cross_thread = cross_thread
        self._conn: Optional[sqlite3.Connection] = None

    @classmethod
    def existing(cls, root: PathLike,
                 stats: Optional[Stats] = None) -> "ResultStore":
        """Open a store that must already exist.

        Read-only verbs open their store this way, so a mistyped root
        is an error instead of a freshly created empty store.
        """
        if not (Path(root) / BLOBS_DIR).is_dir():
            raise StoreError("%s: no result store here" % root)
        return cls(root, stats=stats)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    @property
    def campaigns_path(self) -> Path:
        return self.root / CAMPAIGNS_DIR

    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_DIR

    def blob_path(self, spec_hash: str) -> Path:
        return (self.root / BLOBS_DIR / spec_hash[:2]
                / (spec_hash + ".jsonl.gz"))

    # ------------------------------------------------------------------
    # index lifecycle (with corruption recovery)
    # ------------------------------------------------------------------
    def _open_index(self) -> sqlite3.Connection:
        # a busy timeout because two connections may share the index:
        # the coordinator's own store plus the HTTP lease server's
        # ingestion store both point at the same root during a farm
        conn = sqlite3.connect(
            str(self.index_path), timeout=10.0,
            check_same_thread=not self._cross_thread,
        )
        conn.execute("PRAGMA busy_timeout = 10000")
        conn.execute(_TABLE_SQL)
        conn.commit()
        return conn

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        try:
            conn = self._open_index()
        except sqlite3.DatabaseError:
            self._quarantine(self.index_path, "index")
            conn = self._open_index()
            self._conn = conn
            self._rebuild_into(conn)
            return conn
        self._conn = conn
        return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _quarantine(self, path: Path, what: str) -> None:
        """Move a damaged file aside; never delete evidence."""
        if path == self.index_path:
            self.close()
        self.quarantine_path.mkdir(exist_ok=True)
        target = self.quarantine_path / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_path / (
                "%s.%d" % (path.name, suffix)
            )
        try:
            os.replace(path, target)
        except OSError:
            pass
        self.stats.add("lab.store.quarantined")
        self.stats.event("lab.quarantine", what=what, path=str(path))

    def _rebuild_into(self, conn: sqlite3.Connection) -> None:
        """Re-index every readable blob (after index corruption)."""
        for blob in sorted((self.root / BLOBS_DIR).glob("*/*.jsonl.gz")):
            try:
                record = self._read_blob_file(blob)
            except _BLOB_ERRORS:
                self._quarantine(blob, "blob")
                continue
            conn.execute(_INSERT_SQL, _index_row(record))
        conn.commit()

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def _read_blob_file(self, path: Path) -> ResultRecord:
        spec: Optional[Dict] = None
        payload: Optional[Dict] = None
        provenance: Dict = {}
        wall_time_s = 0.0
        with gzip.open(path, "rt", encoding="ascii") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("type")
                if kind == "spec":
                    spec = record["spec"]
                elif kind == "result":
                    payload = record["payload"]
                elif kind == "provenance":
                    provenance = record.get("provenance", {})
                    wall_time_s = record.get("wall_time_s", 0.0)
        if spec is None or payload is None:
            raise ValueError("blob %s is missing records" % path)
        spec_hash = RunSpec.from_dict(spec).spec_hash
        stem = path.name[: -len(".jsonl.gz")]
        if stem != spec_hash:
            raise ValueError(
                "blob %s does not hash to its file name" % path
            )
        return ResultRecord(
            spec_hash=spec_hash, spec=spec, payload=payload,
            provenance=provenance, wall_time_s=wall_time_s,
        )

    def _write_blob(self, record: ResultRecord) -> Path:
        path = self.blob_path(record.spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        # mtime=0 keeps blob bytes content-addressed (no timestamp in
        # the gzip header), so identical cells produce identical files
        with open(tmp, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb",
                               filename="", mtime=0) as handle:
                for line in (
                    {"type": "spec", "spec": record.spec},
                    {"type": "result", "payload": record.payload},
                    {"type": "provenance",
                     "provenance": record.provenance,
                     "wall_time_s": record.wall_time_s},
                ):
                    handle.write(
                        (canonical_json(line) + "\n").encode("ascii")
                    )
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # the public cache surface
    # ------------------------------------------------------------------
    def get(self, spec_or_hash: Union[RunSpec, str]
            ) -> Optional[ResultRecord]:
        """The stored record for a spec, else ``None`` (a miss).

        Counts ``lab.store.hits`` / ``lab.store.misses``; a blob that
        fails to parse is quarantined and reported as a miss so the
        scheduler recomputes the cell.
        """
        return self._load(_spec_key(spec_or_hash), count=True)

    def peek(self, spec_or_hash: Union[RunSpec, str]
             ) -> Optional[ResultRecord]:
        """Like :meth:`get` (the blob is read and validated, a corrupt
        one quarantined) but not counted as cache traffic: for presence
        checks on cells this process just computed or merged."""
        return self._load(_spec_key(spec_or_hash))

    def _load(self, spec_hash: str, count: bool = False
              ) -> Optional[ResultRecord]:
        """Fetch one record; ``count`` marks cache (not maintenance)
        reads, so exports and status scans don't inflate hit ratios."""
        conn = self._connect()
        row = conn.execute(
            "SELECT spec_hash FROM results WHERE spec_hash = ?",
            (spec_hash,),
        ).fetchone()
        if row is None:
            if count:
                self.stats.add("lab.store.misses")
            return None
        blob = self.blob_path(spec_hash)
        try:
            record = self._read_blob_file(blob)
        except _BLOB_ERRORS:
            self._quarantine(blob, "blob")
            conn.execute("DELETE FROM results WHERE spec_hash = ?",
                         (spec_hash,))
            conn.commit()
            if count:
                self.stats.add("lab.store.misses")
            return None
        if count:
            self.stats.add("lab.store.hits")
        return record

    def __contains__(self, spec_or_hash: Union[RunSpec, str]) -> bool:
        conn = self._connect()
        row = conn.execute(
            "SELECT 1 FROM results WHERE spec_hash = ?",
            (_spec_key(spec_or_hash),),
        ).fetchone()
        return row is not None

    def put(self, spec: RunSpec, payload: Dict,
            provenance: Optional[Dict] = None,
            wall_time_s: float = 0.0) -> ResultRecord:
        """Commit one computed cell (blob first, then the index row)."""
        record = _new_record(spec, payload, provenance, wall_time_s)
        self._write_blob(record)
        conn = self._connect()
        conn.execute(_INSERT_SQL, _index_row(record))
        conn.commit()
        self.stats.add("lab.store.puts")
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def hashes(self, prefix: str = "") -> List[str]:
        """All stored spec hashes (optionally by hash prefix), sorted."""
        conn = self._connect()
        rows = conn.execute(
            "SELECT spec_hash FROM results WHERE spec_hash LIKE ? "
            "ORDER BY spec_hash",
            (prefix + "%",),
        ).fetchall()
        return [row[0] for row in rows]

    def records(self, prefix: str = "") -> Iterator[ResultRecord]:
        """Every readable record, in spec-hash order."""
        for spec_hash in self.hashes(prefix):
            record = self._load(spec_hash)
            if record is not None:
                yield record

    def __len__(self) -> int:
        conn = self._connect()
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def export(self, spec_hashes: Optional[List[str]] = None,
               prefix: str = "") -> List[Dict]:
        """Deterministic export of result records.

        Sorted by spec hash; provenance and timing excluded, so two
        stores holding the same computed cells export byte-identically
        regardless of how (or in how many sittings) they were filled.
        """
        wanted = None if spec_hashes is None else set(spec_hashes)
        entries = []
        for spec_hash in self.hashes(prefix):
            if wanted is not None and spec_hash not in wanted:
                continue
            record = self._load(spec_hash)
            if record is not None:
                entries.append(record.export_entry())
        return entries

    def import_from(self,
                    source: Union["ResultStore", "ExportSource"],
                    spec_hashes: Optional[List[str]] = None) -> int:
        """Copy records this store is missing from another source.

        The deterministic half of the farm merge path: records are
        pulled in spec-hash order, already-present hashes are skipped,
        and each imported record keeps its original payload and
        provenance. Because a payload is a pure function of its spec,
        two stores that computed the same cell independently hold
        byte-identical payloads — so merging N worker stores in any
        order converges on the same :meth:`export`. The source can be
        another store on a shared filesystem or an
        :class:`ExportSource` wrapping an uploaded export payload (the
        HTTP farm path) — both land through the blob-then-index order
        of ``put``, batched: every blob is written first, outside any
        transaction, then all of them are indexed in one short one, so
        the SQLite write lock (which the HTTP ingestion store shares
        under a busy timeout) is never held across blob writes. A merge
        that fails part-way leaves at worst unindexed blobs, which the
        next merge rewrites byte-identically. Returns how many records
        were imported.
        """
        wanted = None if spec_hashes is None else set(spec_hashes)
        present = set(self.hashes())
        rows = []
        for spec_hash in source.hashes():
            if wanted is not None and spec_hash not in wanted:
                continue
            if spec_hash in present:
                continue
            loaded = source._load(spec_hash)
            if loaded is None:
                continue
            record = _new_record(RunSpec.from_dict(loaded.spec),
                                 loaded.payload, loaded.provenance,
                                 loaded.wall_time_s)
            self._write_blob(record)
            rows.append(_index_row(record))
        if rows:
            conn = self._connect()
            with conn:
                conn.executemany(_INSERT_SQL, rows)
            self.stats.add("lab.store.puts", len(rows))
        return len(rows)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild_index(self) -> int:
        """Drop and re-derive the index from blobs; returns row count."""
        conn = self._connect()
        conn.execute("DELETE FROM results")
        self._rebuild_into(conn)
        return len(self)

    def gc(self, keep_hashes: Optional[List[str]] = None,
           purge_quarantine: bool = False) -> Dict[str, int]:
        """Garbage-collect the store.

        With ``keep_hashes``, drop every record not in the set; always
        remove orphan blobs (no index row) and stray temp files.
        Returns counts of what was removed.
        """
        conn = self._connect()
        removed = {"records": 0, "orphan_blobs": 0, "quarantined": 0}
        if keep_hashes is not None:
            keep = set(keep_hashes)
            for spec_hash in self.hashes():
                if spec_hash in keep:
                    continue
                conn.execute(
                    "DELETE FROM results WHERE spec_hash = ?",
                    (spec_hash,),
                )
                blob = self.blob_path(spec_hash)
                if blob.exists():
                    blob.unlink()
                removed["records"] += 1
            conn.commit()
        indexed = set(self.hashes())
        for blob in sorted((self.root / BLOBS_DIR).glob("*/*")):
            stem = blob.name.split(".", 1)[0]
            if blob.name.endswith(".tmp") or stem not in indexed:
                blob.unlink()
                removed["orphan_blobs"] += 1
        if purge_quarantine and self.quarantine_path.exists():
            for path in sorted(self.quarantine_path.iterdir()):
                path.unlink()
                removed["quarantined"] += 1
        return removed


class ExportSource:
    """A read-only :meth:`ResultStore.import_from` source over
    export-shaped entries.

    The HTTP farm ships results as :meth:`ResultStore.export` payloads
    (``spec_hash`` / ``spec`` / ``result``); this adapter lets the
    coordinator ingest such a payload through the exact ``import_from``
    path a filesystem merge uses. Every entry's hash is recomputed
    from its spec and mismatches are rejected, so a corrupted or
    forged upload cannot land a payload under the wrong key.
    """

    def __init__(self, entries: List[Dict],
                 provenance: Optional[Dict] = None) -> None:
        base = dict(provenance or {})
        base.setdefault("schema", SCHEMA_VERSION)
        self._records: Dict[str, ResultRecord] = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise StoreError(
                    "malformed export entry: %r" % (entry,)
                )
            try:
                spec = entry["spec"]
                payload = entry["result"]
                claimed = entry["spec_hash"]
            except (KeyError, TypeError):
                raise StoreError(
                    "export entry is missing spec/result/spec_hash: "
                    "%r" % sorted(entry)
                ) from None
            try:
                spec_hash = RunSpec.from_dict(spec).spec_hash
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    "export entry %r carries an unusable spec: %s"
                    % (claimed, exc)
                ) from exc
            if spec_hash != claimed:
                raise StoreError(
                    "export entry claims hash %r but its spec hashes "
                    "to %r" % (claimed, spec_hash)
                )
            self._records[spec_hash] = ResultRecord(
                spec_hash=spec_hash, spec=spec, payload=payload,
                provenance=dict(base),
            )

    def __len__(self) -> int:
        return len(self._records)

    def hashes(self, prefix: str = "") -> List[str]:
        return sorted(spec_hash for spec_hash in self._records
                      if spec_hash.startswith(prefix))

    def _load(self, spec_hash: str, count: bool = False
              ) -> Optional[ResultRecord]:
        return self._records.get(spec_hash)
