"""Ablations of STAR's design choices (Section IV-G).

The paper attributes its gains to three mechanisms; these benches
isolate each one:

* **counter-MAC synergization** removes the extra per-write persistence
  write that Anubis pays — ablated by comparing STAR's and Anubis'
  *extra* traffic over WB on identical traces;
* **bitmap lines / multi-layer index** bound recovery to the stale
  lines — ablated by comparing the index-guided walk against a full
  metadata-space scan;
* **ADR capacity** trades on-chip space for spill traffic — ablated by
  sweeping the ADR line budget and measuring the spill writes.
"""

from conftest import SCALE

from repro.bench.runner import config_for_scale, run_one
from repro.core.index import MultiLayerIndex
from repro.sim.machine import Machine
from repro.workloads.registry import make_workload


def _run(scheme, config, workload="hash", operations=300, crash=False):
    return run_one(config, scheme, workload, operations,
                   crash_and_recover=crash)


def test_ablation_synergization_removes_persistence_writes():
    """Without synergization every modification needs its own write
    (Anubis); with it, the modification rides the payload write."""
    config = config_for_scale(SCALE)
    star = _run("star", config)
    anubis = _run("anubis", config)
    wb = _run("wb", config)
    star_extra = star.nvm_writes - wb.nvm_writes
    anubis_extra = anubis.nvm_writes - wb.nvm_writes
    assert star_extra < 0.3 * anubis_extra


def test_ablation_index_guided_walk_vs_full_scan():
    """Recovery without the multi-layer index would read the entire
    recovery area; with it, only non-zero lines are read."""
    config = config_for_scale(SCALE)
    machine = Machine(config, scheme="star")
    bench = make_workload("hash", config.num_data_lines,
                          operations=300, seed=42)
    machine.run(bench.ops())
    machine.crash()
    report = machine.recover(raise_on_failure=True)
    index = MultiLayerIndex(
        machine.controller.geometry.total_nodes,
        config.star.bitmap_fanout,
    )
    full_scan_reads = sum(index.layer_counts)
    walk_reads = machine.recovery_stats["nvm.ra_reads"]
    assert report.verified
    assert walk_reads <= full_scan_reads
    # at paper scale (2 GB metadata, 3 layers) the gap is ~1000x; at
    # smoke scale the index still never loses to the scan
    if report.stale_lines == 0:
        assert walk_reads == 0


def test_ablation_adr_budget_vs_spill_traffic():
    """More ADR lines -> fewer recovery-area spills (Table II's dual)."""
    spills = {}
    for lines in (2, 8, 32):
        config = config_for_scale(SCALE, adr_bitmap_lines=lines)
        result = _run("star", config)
        spills[lines] = result.bitmap_writes
    assert spills[2] >= spills[8] >= spills[32]


def test_ablation_recovery_cost_tracks_dirty_count():
    """Crashing earlier (fewer dirty lines) must shorten recovery —
    the property Anubis lacks (its cost is fixed by the cache size)."""
    config = config_for_scale(SCALE)
    costs = []
    for operations in (50, 400):
        machine = Machine(config, scheme="star")
        bench = make_workload("hash", config.num_data_lines,
                              operations=operations, seed=42)
        machine.run(bench.ops())
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        costs.append(report)
    early, late = costs
    assert early.stale_lines <= late.stale_lines
    assert early.line_accesses <= late.line_accesses
