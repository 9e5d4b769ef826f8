"""``repro.lab`` — persistent experiment store + campaign engine.

The lab layer turns one-shot experiment scripts into resumable,
cache-hitting campaigns:

* :mod:`repro.lab.spec` — :class:`RunSpec`, the declarative,
  content-hashed identity of one cell (scheme, workload, config,
  seed, crash behaviour, metric selection),
* :mod:`repro.lab.store` — :class:`ResultStore`, a SQLite-indexed,
  gzip-JSONL-blobbed result store with corruption quarantine,
* :mod:`repro.lab.scheduler` — :class:`Scheduler`, the execute loop
  every worker drives (multiprocess shards, per-job timeout, SIGINT
  draining), and the campaign journal (``star-lab status``/``resume``),
* :mod:`repro.lab.gridfile` — grid files re-expressing the paper's
  sweeps (Figs. 10-14, Table II) as campaigns,
* :mod:`repro.lab.lease` / :mod:`repro.lab.farm` — the one campaign
  engine: a SQLite lease board with fencing tokens and the one retry
  policy, a :class:`Coordinator` that seeds and journals it, and
  work-stealing :class:`Worker` pools. :func:`run_local`
  (``star-lab run``/``resume``) puts a coordinator and one pool on an
  in-memory board; a farm (``star-lab serve`` + ``star-lab work``)
  shares the board on disk or over HTTP and merges worker stores that
  export byte-identically to a serial run,
* :mod:`repro.lab.bridge` — :class:`LabCache`, the read-through cache
  ``star-bench --lab DIR`` serves figures from,
* :mod:`repro.lab.cli` — the ``star-lab
  run|status|resume|export|gc|serve|work|merge`` command line.
"""

from repro.lab.bridge import LabCache
from repro.lab.clock import BackoffPolicy, Clock, FakeClock
from repro.lab.farm import Coordinator, Worker, run_local
from repro.lab.lease import Lease, LeaseBoard
from repro.lab.executor import execute, payload_to_run_result
from repro.lab.gridfile import (
    BUILTIN_GRIDS,
    campaign_id,
    expand,
    load_grid,
    resolve_specs,
)
from repro.lab.scheduler import CampaignReport, Scheduler
from repro.lab.spec import (
    SCHEMA_VERSION,
    RunSpec,
    bench_spec,
    canonical_config,
    config_from_canonical,
    fuzz_spec,
)
from repro.lab.store import ResultRecord, ResultStore, StoreError

__all__ = [
    "BUILTIN_GRIDS",
    "BackoffPolicy",
    "CampaignReport",
    "Clock",
    "Coordinator",
    "FakeClock",
    "LabCache",
    "Lease",
    "LeaseBoard",
    "ResultRecord",
    "ResultStore",
    "RunSpec",
    "SCHEMA_VERSION",
    "Scheduler",
    "StoreError",
    "Worker",
    "bench_spec",
    "campaign_id",
    "canonical_config",
    "config_from_canonical",
    "execute",
    "expand",
    "fuzz_spec",
    "load_grid",
    "payload_to_run_result",
    "resolve_specs",
    "run_local",
]
