"""Cross-process determinism of workload generation.

The fuzzer's replay contract rests on every workload producing a
byte-identical trace for a fixed seed regardless of which process
generates it. A spawn-started child has fresh interpreter state (no
inherited hash seed effects, no module-level RNG reuse), so comparing
its trace bytes against the parent's catches any hidden process-local
nondeterminism.
"""

import multiprocessing

from repro.fuzz import CampaignSpec, campaign_config, sample_cases
from repro.workloads.capture import format_op
from repro.workloads.registry import ALL_WORKLOADS, TraceSpec, make_workload

NUM_LINES = 1 << 13
OPERATIONS = 120
SEED = 97


def _render(name):
    workload = make_workload(name, NUM_LINES, operations=OPERATIONS,
                             seed=SEED)
    return "\n".join(format_op(op) for op in workload.ops())


def _render_case(case_dict):
    from repro.fuzz.sampling import FuzzCase

    case = FuzzCase.from_dict(case_dict)
    ops = TraceSpec(case.workload, campaign_config().num_data_lines,
                    case.operations, case.seed).ops()
    return "\n".join(format_op(op) for op in ops)


def _lab_spec_hashes(_index=0):
    from repro.bench.runner import config_for_scale
    from repro.lab.spec import bench_spec

    config = config_for_scale("smoke")
    return [
        bench_spec(config, scheme, workload, OPERATIONS,
                   seed=SEED).spec_hash
        for scheme in ("wb", "anubis", "star")
        for workload in ("array", "hash")
    ]


class TestCrossProcessDeterminism:
    def test_every_workload_identical_in_spawned_child(self):
        parent = {name: _render(name) for name in ALL_WORKLOADS}
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=2) as pool:
            child = dict(zip(ALL_WORKLOADS,
                             pool.map(_render, ALL_WORKLOADS)))
        assert child == parent

    def test_fuzz_case_traces_identical_in_spawned_child(self):
        cases = sample_cases(CampaignSpec(cases=6, seed=13))
        payloads = [case.to_dict() for case in cases]
        parent = [_render_case(payload) for payload in payloads]
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=2) as pool:
            child = pool.map(_render_case, payloads)
        assert child == parent

    def test_lab_spec_hashes_identical_in_spawned_child(self):
        # the lab store is content-addressed by these hashes, so two
        # shards (or two sittings of a resumed campaign) must agree on
        # every cell key
        parent = _lab_spec_hashes()
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=2) as pool:
            children = pool.map(_lab_spec_hashes, range(2))
        assert all(child == parent for child in children)
