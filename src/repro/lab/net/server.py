"""``LeaseServer``: the coordinator-side HTTP face of a lease board.

The board (and the authoritative result store) stays local to the
coordinator host; this server only *exposes* it. Every verb executes
against the SQLite board through the exact same methods the
filesystem farm uses, so fence-checked idempotency and steal
semantics are inherited — the server adds no coordination logic of
its own. One consequence is free retry safety:

* a duplicated ``claim`` just claims whatever is claimable *now* (a
  lost response means the first claim's leases quietly expire and are
  reclaimed — by the same owner that is no steal);
* a duplicated ``complete`` is detected by reading the row back: the
  first delivery already landed it in ``done`` under the same owner
  and fence, so the retry is acknowledged as a no-op instead of being
  rejected as stale;
* a genuinely stale verb (the cell was stolen) is rejected exactly as
  the board rejects it locally.

Results travel the other way as gzip ``PUT /results`` uploads of
:meth:`~repro.lab.store.ResultStore.export` payloads, ingested into
the authoritative store through
:meth:`~repro.lab.store.ResultStore.import_from` — the same merge
path a shared-filesystem farm uses, so merged exports stay
byte-identical to serial runs.

Threading: ``ThreadingHTTPServer`` hands each request its own thread,
but the board is one SQLite connection (opened ``cross_thread``) and
the store one index connection — a single lock serializes verb and
upload execution. Verbs are milliseconds against a local board, so
serialization is not the bottleneck; the network is.
"""

from __future__ import annotations

import gzip
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, ClassVar, Dict, Optional

from repro.errors import ReproError
from repro.lab.lease import LeaseBoard
from repro.lab.net.transport import lease_to_wire
from repro.lab.spec import RunSpec
from repro.lab.store import ExportSource, ResultStore
from repro.util.stats import Stats

#: Hard cap on request bodies (a full smoke-grid export is ~kilobytes;
#: anything near this is a protocol error, not a workload).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _UnknownVerb(Exception):
    """Internal: dispatch miss, reported as HTTP 404."""


class LeaseServer:
    """Serve a local lease board and result store over JSON/HTTP.

    ``board`` and ``store`` should be opened with
    ``cross_thread=True`` (handler threads share them; the server's
    lock serializes access). ``port=0`` binds an ephemeral port —
    read :attr:`url` after construction.
    """

    def __init__(self, board: LeaseBoard, store: ResultStore,
                 host: str = "127.0.0.1", port: int = 0,
                 stats: Optional[Stats] = None) -> None:
        self.board = board
        self.store = store
        self.stats = stats if stats is not None else Stats(enabled=False)
        self._lock = threading.Lock()
        self._verbs: Dict[str, Callable[[Dict], Dict]] = {
            "seed": self._verb_seed,
            "claim": self._verb_claim,
            "renew": self._verb_renew,
            "complete": self._verb_complete,
            "fail": self._verb_fail,
        }
        handler = type("_BoundLeaseHandler", (_LeaseHandler,),
                       {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return "http://%s:%d" % (host, port)

    def start(self) -> "LeaseServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="star-lab-lease-server",
        )
        thread.start()
        self._thread = thread
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LeaseServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # request execution (called from handler threads)
    # ------------------------------------------------------------------
    def handle_verb(self, verb: str, payload: Dict) -> Dict:
        handler = self._verbs.get(verb)
        if handler is None:
            raise _UnknownVerb(verb)
        with self._lock:
            return handler(payload)

    def handle_upload(self, body: bytes, gzipped: bool) -> Dict:
        raw = gzip.decompress(body) if gzipped else body
        entries = json.loads(raw.decode("ascii"))
        if not isinstance(entries, list):
            raise ValueError("upload body must be a JSON list of "
                             "export entries")
        source = ExportSource(entries,
                              provenance={"transport": "http"})
        with self._lock:
            self.stats.add("lab.net.upload_bytes", len(body))
            imported = self.store.import_from(source)
        return {"imported": imported, "received": len(entries)}

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "counts": self.board.counts(),
                "finished": self.board.finished(),
                "failures": self.board.failures(),
            }

    def count_request(self, attempt_header: Optional[str]) -> None:
        self.stats.add("lab.net.requests")
        if (attempt_header and attempt_header.isdigit()
                and int(attempt_header) > 1):
            # the client numbers its attempts, so a flapping network
            # is visible on the coordinator, not just worker logs
            self.stats.add("lab.net.retries")

    # ------------------------------------------------------------------
    # verbs (lock held; board methods only — no raw lease SQL here)
    # ------------------------------------------------------------------
    def _verb_seed(self, payload: Dict) -> Dict:
        specs = [RunSpec.from_dict(entry)
                 for entry in payload["specs"]]
        return {"added": self.board.seed(specs)}

    def _verb_claim(self, payload: Dict) -> Dict:
        leases = self.board.claim(
            str(payload["owner"]),
            float(payload["lease_s"]),
            int(payload.get("limit", 1)),
        )
        return {"leases": [lease_to_wire(lease) for lease in leases]}

    def _verb_renew(self, payload: Dict) -> Dict:
        ok = self.board.renew(
            str(payload["owner"]), str(payload["spec_hash"]),
            int(payload["fence"]), float(payload["lease_s"]),
        )
        if not ok:
            self.stats.add("lab.net.rejects")
        return {"ok": ok}

    def _verb_complete(self, payload: Dict) -> Dict:
        owner = str(payload["owner"])
        spec_hash = str(payload["spec_hash"])
        fence = int(payload["fence"])
        ok = self.board.complete(owner, spec_hash, fence)
        duplicate = False
        if not ok:
            row = self.board.lease_row(spec_hash)
            if (row is not None and row["state"] == "done"
                    and row["owner"] == owner
                    and row["fence"] == fence):
                # retried delivery: the first complete already landed
                # this row under the same credentials — acknowledge
                # without re-applying
                ok = duplicate = True
                self.stats.add("lab.net.duplicates")
            else:
                self.stats.add("lab.net.rejects")
        return {"ok": ok, "duplicate": duplicate}

    def _verb_fail(self, payload: Dict) -> Dict:
        outcome = self.board.fail(
            str(payload["owner"]), str(payload["spec_hash"]),
            int(payload["fence"]), str(payload["error"]),
        )
        if outcome == "stale":
            self.stats.add("lab.net.rejects")
        return {"outcome": outcome}


# ----------------------------------------------------------------------
# the HTTP plumbing
# ----------------------------------------------------------------------
class _LeaseHandler(BaseHTTPRequestHandler):
    """Routes ``POST /lease/<verb>``, ``GET /lease/snapshot`` and
    ``PUT /results`` to the bound :class:`LeaseServer`."""

    service: ClassVar[LeaseServer]
    # keep-alive matters: a worker issues thousands of small verbs
    protocol_version = "HTTP/1.1"

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ValueError("request body of %d bytes exceeds the "
                             "%d byte cap" % (length, MAX_BODY_BYTES))
        return self.rfile.read(length) if length > 0 else b""

    def _reply(self, code: int, payload: Dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n"
                ).encode("ascii")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        service = type(self).service
        service.count_request(self.headers.get("X-Star-Attempt"))
        path = self.path.split("?")[0]
        if not path.startswith("/lease/"):
            self._reply(404, {"error": "unknown path %r" % path})
            return
        verb = path[len("/lease/"):]
        try:
            payload = json.loads(self._read_body() or b"{}")
            result = service.handle_verb(verb, payload)
        except _UnknownVerb:
            self._reply(404, {"error": "unknown verb %r" % verb})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": "bad request: %s: %s"
                              % (type(exc).__name__, exc)})
        else:
            self._reply(200, result)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        service = type(self).service
        service.count_request(self.headers.get("X-Star-Attempt"))
        if self.path.split("?")[0] != "/lease/snapshot":
            self._reply(404, {"error": "try GET /lease/snapshot"})
            return
        self._reply(200, service.snapshot())

    def do_PUT(self) -> None:  # noqa: N802 (stdlib handler API)
        service = type(self).service
        service.count_request(self.headers.get("X-Star-Attempt"))
        if self.path.split("?")[0] != "/results":
            self._reply(404, {"error": "try PUT /results"})
            return
        gzipped = (self.headers.get("Content-Encoding", "")
                   .lower() == "gzip")
        try:
            body = self._read_body()
            result = service.handle_upload(body, gzipped)
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except (OSError, KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": "bad upload: %s: %s"
                              % (type(exc).__name__, exc)})
        else:
            self._reply(200, result)

    def log_message(self, format: str,
                    *args: object) -> None:  # noqa: A002
        pass  # the coordinator's terminal belongs to star-lab serve
