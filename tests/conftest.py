"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import small_config
from repro.sim.machine import Machine
from repro.workloads.registry import make_workload


@pytest.fixture
def cfg():
    """A tiny machine: deep evictions with short traces."""
    return small_config()


@pytest.fixture
def star_machine(cfg):
    return Machine(cfg, scheme="star")


def run_small_workload(machine: Machine, name: str = "hash",
                       operations: int = 200, seed: int = 7) -> None:
    """Drive a short workload through a machine (shared helper)."""
    workload = make_workload(
        name, machine.config.num_data_lines,
        operations=operations, seed=seed,
    )
    machine.run(workload.ops())


@pytest.fixture
def assert_usage_error(capsys):
    """Check that a tool refused a bad path (or flag) before doing any
    work: exit 2, one ``PROG: PATH: reason`` line on stderr, empty
    stdout. Returns the stderr line."""
    def check(code: int, prog: str, path: str) -> str:
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith("%s: %s: " % (prog, path))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""
        return err

    return check
