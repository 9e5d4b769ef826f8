"""Tests for multi-threaded trace interleaving (the paper's 8-thread
benchmark setup)."""

import hashlib

import pytest

from repro.bench.runner import config_for_scale
from repro.config import sim_config, small_config
from repro.errors import ConfigError
from repro.schemes import SIT_SCHEMES
from repro.sim.machine import Machine
from repro.sim.validate import audit_machine
from repro.workloads.capture import format_op
from repro.workloads.registry import TraceSpec, make_workload
from repro.workloads.trace import Op, OpKind, interleave_traces


class TestInterleave:
    def test_preserves_all_ops(self):
        a = [Op(OpKind.READ, 1), Op(OpKind.READ, 2)]
        b = [Op(OpKind.WRITE, 3)]
        merged = list(interleave_traces([a, b], chunk=1, seed=0))
        assert sorted(op.addr for op in merged) == [1, 2, 3]

    def test_preserves_per_thread_order(self):
        a = [Op(OpKind.READ, addr) for addr in range(10)]
        b = [Op(OpKind.READ, addr) for addr in range(100, 110)]
        merged = list(interleave_traces([a, b], chunk=3, seed=1))
        thread_a = [op.addr for op in merged if op.addr < 100]
        thread_b = [op.addr for op in merged if op.addr >= 100]
        assert thread_a == list(range(10))
        assert thread_b == list(range(100, 110))

    def test_deterministic_per_seed(self):
        def traces():
            return [[Op(OpKind.READ, addr) for addr in range(5)],
                    [Op(OpKind.READ, addr) for addr in range(10, 15)]]
        first = list(interleave_traces(traces(), seed=3))
        second = list(interleave_traces(traces(), seed=3))
        assert first == second

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            list(interleave_traces([[]], chunk=0))


class TestThreadedTrace:
    def test_threads_use_disjoint_partitions(self):
        lines = 16384
        threads = 4
        trace = list(TraceSpec("array", lines, 40, threads=threads).ops())
        partition = lines // threads
        occupied = {op.addr // partition for op in trace
                    if op.kind is not OpKind.PERSIST}
        assert occupied == set(range(threads))

    def test_rejects_too_many_threads(self):
        with pytest.raises(ConfigError):
            TraceSpec("array", 128, 2000, threads=8)

    def test_op_stream_is_pinned(self):
        """Instance ``t`` seeded ``seed + t``, shifted by ``t`` partitions,
        interleaved in seeded bursts of four: the stream the paper's
        threaded setup replays, byte for byte."""
        hasher = hashlib.sha256()
        for op in TraceSpec("btree", 65536, 200, seed=42, threads=4).ops():
            hasher.update(format_op(op).encode("ascii") + b"\n")
        assert hasher.hexdigest() == (
            "74e7e7ca87b328539bb281d1ed784e8a"
            "51a61a12e725a14d51ec113ad6795199"
        )

    def test_threaded_run_crash_recovers(self):
        machine = Machine(small_config(), scheme="star")
        trace = TraceSpec("hash", machine.config.num_data_lines, 40,
                          threads=4).ops()
        machine.run(trace)
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)

    def test_interleaving_disrupts_locality(self):
        """More threads touch more counter blocks for the same work."""
        config = small_config()
        single = Machine(config, scheme="star")
        wl = make_workload("array", config.num_data_lines // 4,
                           operations=160)
        single.run(wl.ops())
        threaded = Machine(config, scheme="star")
        threaded.run(TraceSpec("array", config.num_data_lines, 40,
                               threads=4).ops())
        assert len(threaded.controller.meta_cache) >= \
            len(single.controller.meta_cache)


class TestTraceSpec:
    @pytest.mark.parametrize("fields", [
        {"workload": "nope"},
        {"workload": ["hash"]},
        {"data_lines": 0},
        {"data_lines": 4096.0},
        {"operations": 0},
        {"operations": "many"},
        {"operations": 2.5},
        {"operations": True},
        {"seed": 1.5},
        {"seed": "x"},
        {"seed": False},
        {"threads": 0},
        {"threads": True},
        {"threads": 65},
    ], ids=lambda fields: "%s=%r" % next(iter(fields.items())))
    def test_rejects_bad_fields(self, fields):
        base = dict(workload="hash", data_lines=4096, operations=10)
        base.update(fields)
        with pytest.raises(ConfigError):
            TraceSpec(**base)

    def test_one_thread_is_the_workload_itself(self):
        spec = TraceSpec("queue", 4096, 30, seed=5)
        assert list(spec.ops()) == list(
            make_workload("queue", 4096, operations=30, seed=5).ops()
        )


def _run_honest(config, spec, scheme, crash):
    machine = Machine(config, scheme=scheme)
    machine.run(spec.ops())
    assert audit_machine(machine) == []
    if crash and SIT_SCHEMES[scheme].supports_sit_recovery:
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)


class TestHonestThreadedRuns:
    """A cascade that rewrites a metadata line while the controller is
    fetching it must not leave a stale copy behind: honest runs, with no
    attacker, never raise."""

    @pytest.mark.parametrize("scheme", sorted(SIT_SCHEMES))
    def test_install_after_a_cascade_evicted_the_line(self, scheme):
        # wb, anubis, star: installing (1, 128) evicts the dirty
        # (0, 1024), whose persist fetches, bumps, persists and evicts a
        # second copy of (1, 128) before the first one is inserted
        _run_honest(config_for_scale("default"),
                    TraceSpec("queue", 65536, 187, seed=42, threads=8),
                    scheme, crash=False)

    @pytest.mark.parametrize("scheme", sorted(SIT_SCHEMES))
    def test_fetch_after_a_cascade_rewrote_the_image(self, scheme):
        # wb, anubis, star: fetching the parent rewrites the image of
        # the node being fetched; phoenix meets the install case above
        config = sim_config(memory_bytes=8 * 1024 ** 2,
                            metadata_cache_bytes=4 * 1024)
        _run_honest(config,
                    TraceSpec("btree", config.num_data_lines, 200,
                              seed=42, threads=4),
                    scheme, crash=True)
