"""``repro.lab.net``: the HTTP lease transport for farm campaigns.

The PR-7 farm coordinates workers through a SQLite lease board, which
confines a fleet to hosts sharing a filesystem. This package lifts the
worker-facing half of the board onto HTTP so a campaign can span
machines: the coordinator keeps the board local (single source of
truth — fencing and steal semantics are *inherited*, not
reimplemented) and serves the lease verbs as JSON; workers talk to it
through a retrying client and ship computed results back as gzip
export payloads.

* :mod:`repro.lab.net.transport` — the :class:`LeaseTransport`
  protocol both the SQLite board and the HTTP client satisfy, plus
  the wire (de)hydration helpers.
* :mod:`repro.lab.net.server` — :class:`LeaseServer`, the
  coordinator-side ``ThreadingHTTPServer`` over a local board and
  store.
* :mod:`repro.lab.net.client` — :class:`HttpLeaseClient`, the
  worker-side transport with per-request timeouts and
  :class:`~repro.lab.clock.BackoffPolicy` retries.

The fault-injecting proxy the transport tests run through (drop /
delay / duplicate / truncate) is test code: ``tests/flaky_proxy.py``.
"""

from repro.lab.net.client import HttpLeaseClient
from repro.lab.net.server import LeaseServer
from repro.lab.net.transport import LeaseTransport, TransportError

__all__ = [
    "HttpLeaseClient",
    "LeaseServer",
    "LeaseTransport",
    "TransportError",
]
