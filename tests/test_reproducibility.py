"""Reproducibility guarantees.

A reproduction package must produce identical inputs and results on any
machine and Python build: the workload generators seed their RNGs with
SHA-512-based string seeding (never hash randomization), the crypto is
keyed BLAKE2b, and the simulator contains no wall-clock or iteration-
order dependence. These tests pin golden digests so an accidental
change to any of that surfaces as a loud, explicit failure.

If one of these fails after an *intentional* workload or crypto change,
update the digest and say so in the changelog — the numbers in
EXPERIMENTS.md implicitly changed with it.

The machine-level digests further down pin the simulator's outputs
(NVM image and wear, counters, timing, telemetry, recovery reports) on
the CI smoke grid, a fuzz-campaign sample and the ``run_one`` export
surface, so a change to the engine that moves any observable fails
here even when every figure still looks plausible.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.runner import config_for_scale, run_one
from repro.config import small_config
from repro.crypto.hashing import keyed_hash
from repro.fuzz import CampaignSpec, sample_cases
from repro.fuzz.executor import campaign_config, materialize_trace
from repro.obs.export import telemetry_snapshot
from repro.sim.machine import Machine
from repro.workloads.capture import format_op
from repro.workloads.registry import make_workload

SMOKE_GRID = Path(__file__).resolve().parent.parent / "grids" / "ci_smoke.json"

GOLDEN_TRACE_DIGESTS = {
    "array": "5d56e8ae7456c667",
    "btree": "311d322033693c6e",
    "hash": "c8519b7c584b0784",
    "queue": "49ea36dc367ba3b6",
    "rbtree": "a0dcb62ed644f6a2",
    "tpcc": "687c5d879eadeeb4",
    "ycsb": "af42876aac3418a5",
}


def trace_digest(name: str) -> str:
    workload = make_workload(name, 64 * 1024, operations=120, seed=42)
    hasher = hashlib.blake2b(digest_size=8)
    for op in workload.ops():
        hasher.update(format_op(op).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
def test_workload_traces_are_frozen(name):
    assert trace_digest(name) == GOLDEN_TRACE_DIGESTS[name], (
        "the %r trace changed; if intentional, update the golden "
        "digest and re-record EXPERIMENTS.md" % name
    )


def test_crypto_is_frozen():
    """The MAC construction itself is part of the reproducibility
    contract (it determines every image and root in the system)."""
    assert keyed_hash(b"key", "probe", 7) == 0x0181D94D323B57AE


def test_simulation_is_deterministic_end_to_end():
    """Two fresh machines on the same trace agree on *everything*."""
    def run():
        machine = Machine(small_config(), scheme="star")
        workload = make_workload(
            "hash", machine.config.num_data_lines,
            operations=150, seed=9,
        )
        machine.run(workload.ops())
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        return (machine.stats.snapshot(), machine.timing.now_ns,
                machine.registers.cache_tree_root,
                sorted(report.restored.items()))

    assert run() == run()


# ----------------------------------------------------------------------
# golden machine outputs
# ----------------------------------------------------------------------
NVM_REGIONS = ("_data", "_meta", "_ra", "_st")

TIMING_FIELDS = (
    "now_ns", "instructions", "read_stall_ns", "write_stall_ns",
    "barrier_stall_ns",
)

GOLDEN_SMOKE_GRID_DIGESTS = {
    "array-star": "888ddf12a8a6cdd6",
    "array-wb": "7d13f53facdcb798",
    "hash-star": "2c5f790945feac16",
    "hash-wb": "e708a14ad4e1cc53",
}

GOLDEN_FUZZ_SAMPLE_DIGESTS = {
    "c000000-wb-queue": "20cfbbbdeede8eb3",
    "c000001-anubis-array": "7f3bf148e7370470",
    "c000002-strict-array": "81e0dbc23a52c5bc",
    "c000003-star-queue": "35092d8bae0994bf",
    "c000004-anubis-queue": "dc5947895ea3dfcd",
    "c000005-wb-hash": "3e63979cb00598fb",
}

GOLDEN_RUN_ONE_DIGESTS = {
    "anubis": "178ab9539a7e3c74",
    "star": "6a83e900c8b4340e",
}


def _strip_wall_clock(value):
    """Recursively drop host-time fields (event ``t``, span
    ``duration_s``): they measure the host, not the simulation."""
    if isinstance(value, dict):
        return {
            key: _strip_wall_clock(item)
            for key, item in value.items()
            if key not in ("t", "duration_s")
        }
    if isinstance(value, list):
        return [_strip_wall_clock(item) for item in value]
    return value


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def machine_digest(config, scheme, ops, crash) -> str:
    """Replay ``ops`` on a fresh machine (crashing and recovering when
    asked) and digest every observable surface it leaves behind."""
    machine = Machine(config, scheme=scheme, telemetry=True)
    machine.run(ops)
    recovery = None
    if crash:
        machine.crash()
        recovery = machine.recover()
    nvm = machine.nvm
    return _digest({
        "nvm": {
            region: repr(sorted(getattr(nvm, region).items()))
            for region in NVM_REGIONS
        },
        "wear": repr(sorted(nvm.wear.items())),
        "stats": machine.stats.snapshot(),
        "timing": {
            field: getattr(machine.timing, field)
            for field in TIMING_FIELDS
        },
        "telemetry": _strip_wall_clock(
            telemetry_snapshot(machine.stats.registry)
        ),
        "recovery": (
            None if recovery is None else dataclasses.asdict(recovery)
        ),
    })


def _frozen(kind, key, actual, golden):
    assert actual == golden[key], (
        "the %s output for %r changed; if intentional, update the "
        "golden digest and say why in the changelog" % (kind, key)
    )


@pytest.mark.parametrize("cell", sorted(GOLDEN_SMOKE_GRID_DIGESTS))
def test_ci_smoke_grid_outputs_are_frozen(cell):
    """The CI smoke grid's cells; ``star`` crashes and recovers."""
    grid = json.loads(SMOKE_GRID.read_text())
    workload, scheme = cell.split("-")
    assert scheme in grid["schemes"] and workload in grid["workloads"]
    config = config_for_scale(grid["scale"])
    ops = list(
        make_workload(
            workload, config.num_data_lines,
            operations=grid["operations"], seed=grid["seed"],
        ).ops()
    )
    actual = machine_digest(config, scheme, ops, crash=(scheme != "wb"))
    _frozen("smoke-grid", cell, actual, GOLDEN_SMOKE_GRID_DIGESTS)


def _fuzz_sample():
    # attack_rate=0 pins the machine, not the attacker (the fuzz
    # oracle owns attack semantics); the six cases cover the wb,
    # strict, anubis and star schemes on three workloads
    return sample_cases(CampaignSpec(cases=6, seed=29, attack_rate=0.0))


@pytest.mark.parametrize(
    "case", _fuzz_sample(), ids=lambda case: case.case_id
)
def test_fuzz_sample_outputs_are_frozen(case):
    """Fuzz cases cut at their crash index; every scheme but ``wb``
    crashes and recovers."""
    config = campaign_config()
    trace = materialize_trace(case, config)
    ops = trace[: case.crash_index(len(trace))]
    actual = machine_digest(config, case.scheme, ops,
                            crash=(case.scheme != "wb"))
    _frozen("fuzz-case", case.case_id, actual, GOLDEN_FUZZ_SAMPLE_DIGESTS)


@pytest.mark.parametrize("scheme", sorted(GOLDEN_RUN_ONE_DIGESTS))
def test_run_one_export_is_frozen(scheme):
    """The ``run_one`` export surface, compared as canonical JSON."""
    result = run_one(config_for_scale("smoke"), scheme, "hash",
                     operations=200, seed=11, crash_and_recover=True)
    actual = _digest(_strip_wall_clock(dataclasses.asdict(result)))
    _frozen("run_one", scheme, actual, GOLDEN_RUN_ONE_DIGESTS)
