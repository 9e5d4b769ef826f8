"""The lease transport seam: one protocol, two implementations.

:class:`~repro.lab.lease.LeaseBoard` (SQLite on a shared filesystem)
and :class:`~repro.lab.net.client.HttpLeaseClient` (JSON verbs against
a coordinator) both satisfy :class:`LeaseTransport` structurally, so
:class:`~repro.lab.farm.Worker` runs unchanged over either. The
protocol is deliberately the *worker-facing* surface only — seeding,
settling and requeueing stay coordinator-side, where the board is
always local.

The wire helpers here define the one serialization both ends share:
a :class:`~repro.lab.lease.Lease` travels as its spec dict plus the
fencing credentials. Keeping (de)hydration in one module means a
wire-format change cannot drift between client and server.
"""

from __future__ import annotations

from typing import Dict, List, Protocol

from repro.errors import ReproError
from repro.lab.lease import Lease
from repro.lab.spec import RunSpec


class TransportError(ReproError):
    """The lease transport failed permanently.

    Raised only after the client's retry budget is spent (connection
    refused, timeouts, truncated responses) or on a definitive server
    rejection (HTTP 4xx) — *stale-fence* outcomes are not errors; they
    come back as the verb's normal return value, exactly as the SQLite
    board reports them.
    """


class LeaseTransport(Protocol):
    """What a farm worker needs from a lease board, wherever it lives.

    The SQLite :class:`~repro.lab.lease.LeaseBoard` satisfies this
    directly; :class:`~repro.lab.net.client.HttpLeaseClient` satisfies
    it over the wire. Verb semantics (fencing, steal detection, the
    retry policy) are defined once by the board — a transport only
    moves the arguments and results.
    """

    def claim(self, owner: str, lease_s: float,
              limit: int = 1) -> List[Lease]:
        ...

    def renew(self, owner: str, spec_hash: str, fence: int,
              lease_s: float) -> bool:
        ...

    def complete(self, owner: str, spec_hash: str, fence: int) -> bool:
        ...

    def fail(self, owner: str, spec_hash: str, fence: int,
             error: str) -> str:
        ...

    def counts(self) -> Dict[str, int]:
        ...

    def finished(self) -> bool:
        ...

    def failures(self) -> List[Dict]:
        ...

    def close(self) -> None:
        ...


# ----------------------------------------------------------------------
# wire (de)hydration
# ----------------------------------------------------------------------
def lease_to_wire(lease: Lease) -> Dict:
    """A lease as JSON-ready data: spec dict + fencing credentials."""
    return {
        "spec": lease.spec.to_dict(),
        "fence": lease.fence,
        "deadline": lease.deadline,
        "stolen": lease.stolen,
        "attempts": lease.attempts,
    }


def lease_from_wire(payload: Dict) -> Lease:
    return Lease(
        spec=RunSpec.from_dict(payload["spec"]),
        fence=int(payload["fence"]),
        deadline=float(payload["deadline"]),
        stolen=bool(payload.get("stolen", False)),
        attempts=int(payload.get("attempts", 0)),
    )

