"""Device-timing ablation: flat latency + WPQ vs the bank-level model.

The default experiments use the flat timing model (DESIGN.md §6); this
bench checks that upgrading to the NVMain-lite bank/row/tFAW device
does not change any *relative* conclusion — the substitution argument
made executable.
"""

from dataclasses import replace

from conftest import SCALE

from repro.bench.runner import config_for_scale
from repro.sim.machine import Machine
from repro.workloads.registry import make_workload


def _ipcs(device_timing: bool, workload: str = "hash",
          operations: int = 400):
    config = config_for_scale(SCALE)
    if device_timing:
        config = replace(config, device_timing=True)
    ipcs = {}
    for scheme in ("wb", "anubis", "star", "strict"):
        machine = Machine(config, scheme=scheme)
        bench = make_workload(workload, config.num_data_lines,
                              operations=operations, seed=42)
        machine.run(bench.ops())
        ipcs[scheme] = machine.timing.ipc
    return ipcs


def test_device_timing_preserves_scheme_ordering():
    flat, banked = _ipcs(device_timing=False), _ipcs(device_timing=True)
    for ipcs in (flat, banked):
        normalized = {
            scheme: value / ipcs["wb"] for scheme, value in ipcs.items()
        }
        assert normalized["star"] >= normalized["anubis"] - 0.02
        assert normalized["anubis"] >= normalized["strict"]


def test_device_row_locality_visible():
    """Sequential workloads enjoy higher row-hit ratios than random
    ones — the banked model actually models something."""
    ratios = {}
    for workload in ("array", "hash"):
        config = replace(config_for_scale(SCALE),
                         device_timing=True)
        machine = Machine(config, scheme="wb")
        bench = make_workload(workload, config.num_data_lines,
                              operations=400, seed=42)
        machine.run(bench.ops())
        ratios[workload] = machine.timing.device.row_hit_ratio()
    assert ratios["array"] > ratios["hash"]
