"""Feature-combination integration matrix.

The optional layers (start-gap wear leveling, threaded traces) must
compose with every scheme without perturbing correctness: traffic
identical where expected, invariants intact, crash-recovery exact.
"""

import pytest

from repro.config import small_config
from repro.mem.wearlevel import WearLevelingNVM
from repro.sim.machine import Machine
from repro.sim.validate import audit_machine
from repro.workloads.registry import TraceSpec, make_workload

SCHEMES = ["wb", "strict", "anubis", "star", "phoenix"]


def build_machine(scheme, wear_level=0):
    config = small_config()
    nvm = None
    if wear_level:
        nvm = WearLevelingNVM(config.num_data_lines, wear_level)
    return Machine(config, scheme=scheme, nvm=nvm)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_runs_with_a_clean_audit(scheme):
    machine = build_machine(scheme)
    workload = make_workload("ycsb", machine.config.num_data_lines,
                             operations=100, seed=3)
    machine.run(workload.ops())
    assert machine.timing.ipc > 0
    assert audit_machine(machine) == []


@pytest.mark.parametrize("scheme", ["star", "anubis", "phoenix"])
def test_recovery_composes_with_wear_leveling_and_threads(scheme):
    machine = build_machine(scheme, wear_level=64)
    trace = TraceSpec("hash", machine.config.num_data_lines, 60, seed=5,
                      threads=2)
    machine.run(trace.ops())
    machine.crash()
    report = machine.recover()
    assert machine.oracle_check(report), (
        "%s recovery broke under wear leveling + threads" % scheme
    )


def test_wear_leveling_does_not_change_logical_traffic_counts():
    plain = build_machine("star")
    leveled = build_machine("star", wear_level=32)
    for machine in (plain, leveled):
        workload = make_workload("array", machine.config.num_data_lines,
                                 operations=120, seed=1)
        machine.run(workload.ops())
    # gap-move migrations add device traffic, but the controller-level
    # counts (data writes issued) are identical
    assert plain.stats["ctrl.data_writes"] == \
        leveled.stats["ctrl.data_writes"]
    assert leveled.stats["wearlevel.gap_moves"] > 0
