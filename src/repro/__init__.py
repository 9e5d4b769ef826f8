"""STAR: a write-friendly, fast-recovery scheme for security metadata in
non-volatile memories — a full reproduction of the HPCA 2021 paper.

Quickstart::

    from repro import Machine, TraceSpec, sim_config

    config = sim_config()
    machine = Machine(config, scheme="star")
    trace = TraceSpec("btree", config.num_data_lines, operations=500)
    machine.run(trace.ops())
    machine.crash()
    report = machine.recover(raise_on_failure=True)
    assert machine.oracle_check(report)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import (
    CacheConfig,
    StarConfig,
    SystemConfig,
    paper_config,
    sim_config,
    small_config,
)
from repro.errors import (
    AllocationError,
    ConfigError,
    IntegrityError,
    RecoveryError,
    ReproError,
    VerificationError,
)
from repro.schemes import SIT_SCHEMES, RecoveryReport, make_scheme
from repro.sim import Attacker, Machine, RunResult
from repro.workloads import (
    ALL_WORKLOADS,
    MACRO_WORKLOADS,
    MICRO_WORKLOADS,
    TraceSpec,
    make_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "AllocationError",
    "Attacker",
    "CacheConfig",
    "ConfigError",
    "IntegrityError",
    "MACRO_WORKLOADS",
    "MICRO_WORKLOADS",
    "Machine",
    "RecoveryError",
    "RecoveryReport",
    "ReproError",
    "RunResult",
    "SIT_SCHEMES",
    "StarConfig",
    "SystemConfig",
    "TraceSpec",
    "VerificationError",
    "make_scheme",
    "make_workload",
    "paper_config",
    "sim_config",
    "small_config",
]
