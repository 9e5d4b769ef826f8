"""``HttpLeaseClient``: the worker-side lease transport over HTTP.

Satisfies :class:`~repro.lab.net.transport.LeaseTransport`, so a
:class:`~repro.lab.farm.Worker` drives it exactly like a local SQLite
board. What the client adds is *delivery* discipline:

* every request carries a per-request timeout, so a hung coordinator
  costs one timeout, not a wedged worker;
* transient failures (connection refused, timeouts, truncated or
  garbled responses, HTTP 5xx) are retried under a
  :class:`~repro.lab.clock.BackoffPolicy`, sleeping through the
  injected clock so tests retry instantly;
* retries are numbered in an ``X-Star-Attempt`` header, giving the
  coordinator's ``lab.net.retries`` counter visibility into a
  flapping network;
* definitive rejections (HTTP 4xx) raise
  :class:`~repro.lab.net.transport.TransportError` immediately — a
  malformed verb will not become less malformed by retrying. The one
  exception is ``PUT /results``, where a 4xx usually means the body
  was damaged in transit (the hash check on ingest catches it), so
  uploads retry their 4xxs too.

Every verb is safe to retry because the board is fenced: a replayed
``complete`` is acknowledged as a duplicate no-op by the server, a
replayed ``claim`` only re-claims cells whose first response was
lost (their leases simply expire back to the same owner), and stale
fences are rejected identically to the local path.
"""

from __future__ import annotations

import gzip
import json
import urllib.error
import urllib.request
from http.client import HTTPException
from typing import Dict, List, Optional

from repro.lab.clock import BackoffPolicy, Clock
from repro.lab.lease import Lease
from repro.lab.net.transport import TransportError, lease_from_wire
from repro.lab.spec import RunSpec
from repro.util.stats import Stats


class HttpLeaseClient:
    """Lease verbs and result uploads against a coordinator URL."""

    def __init__(self, url: str, clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 timeout_s: float = 10.0, retries: int = 5,
                 backoff: Optional[BackoffPolicy] = None) -> None:
        self.url = url.rstrip("/")
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else Stats(enabled=False)
        self.timeout_s = timeout_s
        self.retries = retries
        # defaults bridge a coordinator restart of a few seconds:
        # 0.2 + 0.4 + 0.8 + 1.6 + 3.2 ≈ 6s of patience
        self.backoff = (backoff if backoff is not None
                        else BackoffPolicy(base_s=0.2, cap_s=5.0))

    # ------------------------------------------------------------------
    # the LeaseTransport surface
    # ------------------------------------------------------------------
    def seed(self, specs: List[RunSpec]) -> int:
        payload = {"specs": [spec.to_dict() for spec in specs]}
        return int(self._verb("seed", payload)["added"])

    def claim(self, owner: str, lease_s: float,
              limit: int = 1) -> List[Lease]:
        data = self._verb("claim", {
            "owner": owner, "lease_s": lease_s, "limit": limit,
        })
        return [lease_from_wire(entry) for entry in data["leases"]]

    def renew(self, owner: str, spec_hash: str, fence: int,
              lease_s: float) -> bool:
        data = self._verb("renew", {
            "owner": owner, "spec_hash": spec_hash, "fence": fence,
            "lease_s": lease_s,
        })
        return bool(data["ok"])

    def complete(self, owner: str, spec_hash: str, fence: int) -> bool:
        data = self._verb("complete", {
            "owner": owner, "spec_hash": spec_hash, "fence": fence,
        })
        return bool(data["ok"])

    def fail(self, owner: str, spec_hash: str, fence: int,
             error: str) -> str:
        data = self._verb("fail", {
            "owner": owner, "spec_hash": spec_hash, "fence": fence,
            "error": error,
        })
        return str(data["outcome"])

    def counts(self) -> Dict[str, int]:
        counts = self.snapshot()["counts"]
        return {str(state): int(count)
                for state, count in counts.items()}

    def finished(self) -> bool:
        return bool(self.snapshot()["finished"])

    def failures(self) -> List[Dict]:
        return list(self.snapshot()["failures"])

    def close(self) -> None:
        pass  # nothing held open: urllib connections are per-request

    # ------------------------------------------------------------------
    # beyond the protocol: liveness and result shipping
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        return self._request("GET", "/lease/snapshot")

    def ping(self) -> Dict:
        """One un-retried snapshot — the worker's wait-for-coordinator
        probe, where the *caller* owns the patience budget."""
        return self._request("GET", "/lease/snapshot", retries=0)

    def upload_results(self, entries: List[Dict]) -> int:
        """Ship export entries; returns how many the coordinator was
        missing. Gzipped (mtime=0: same entries, same bytes), and 4xx
        responses are retried — see the module docstring."""
        body = gzip.compress(
            json.dumps(entries, sort_keys=True).encode("ascii"),
            mtime=0,
        )
        data = self._request(
            "PUT", "/results", body=body,
            headers={"Content-Encoding": "gzip"},
            retry_client_errors=True,
        )
        self.stats.add("lab.net.upload_bytes", len(body))
        return int(data["imported"])

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _verb(self, verb: str, payload: Dict) -> Dict:
        return self._request("POST", "/lease/" + verb, payload=payload)

    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None,
                 body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 retries: Optional[int] = None,
                 retry_client_errors: bool = False) -> Dict:
        if body is None and payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("ascii")
        budget = self.retries if retries is None else retries
        attempt = 0
        detail = "no attempt made"
        while True:
            attempt += 1
            try:
                return self._once(method, path, body, headers or {},
                                  attempt)
            except urllib.error.HTTPError as exc:
                detail = self._error_detail(exc)
                if (400 <= exc.code < 500
                        and not retry_client_errors):
                    self.stats.add("lab.net.errors")
                    raise TransportError(
                        "%s %s%s rejected: %s"
                        % (method, self.url, path, detail)
                    ) from exc
            except (HTTPException, OSError, ValueError) as exc:
                detail = "%s: %s" % (type(exc).__name__, exc)
            if attempt > budget:
                self.stats.add("lab.net.errors")
                raise TransportError(
                    "%s %s%s failed after %d attempt%s: %s"
                    % (method, self.url, path, attempt,
                       "" if attempt == 1 else "s", detail)
                )
            self.stats.add("lab.net.retries")
            self.clock.sleep(self.backoff.delay(attempt))

    def _once(self, method: str, path: str, body: Optional[bytes],
              headers: Dict[str, str], attempt: int) -> Dict:
        self.stats.add("lab.net.requests")
        request_headers = {
            "Content-Type": "application/json",
            "X-Star-Attempt": str(attempt),
        }
        request_headers.update(headers)
        request = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers=request_headers,
        )
        with urllib.request.urlopen(
            request, timeout=self.timeout_s
        ) as response:
            raw = response.read()
        result = json.loads(raw.decode("ascii"))
        if not isinstance(result, dict):
            raise ValueError("response is not a JSON object")
        return result

    @staticmethod
    def _error_detail(exc: urllib.error.HTTPError) -> str:
        try:
            body = json.loads(exc.read().decode("ascii"))
            message = body.get("error")
        except (OSError, ValueError, AttributeError):
            message = None
        if message:
            return "HTTP %d: %s" % (exc.code, message)
        return "HTTP %d: %s" % (exc.code, exc.reason)
