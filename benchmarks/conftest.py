"""Shared helpers for the paper-shape checks.

Each ``bench_*`` file regenerates one table/figure of the paper's
evaluation (see DESIGN.md's experiment index) and asserts the *shape*
of the result against the paper: who wins, by roughly what factor.
Timing lives in ``perfbench/`` (see EXPERIMENTS.md, "Simulator
performance").
"""

from __future__ import annotations

import pytest

SCALE = "smoke"
"""Benchmarks run at smoke scale to keep the suite quick; run
``star-bench --scale default`` (or ``large``) for the fidelity runs
recorded in EXPERIMENTS.md."""


@pytest.fixture(scope="session")
def smoke_grid():
    """One scheme x workload grid shared by the traffic/IPC/energy
    checks (regenerating it per check would only repeat the same
    simulation)."""
    from repro.bench.experiments import paper_grid

    return paper_grid(SCALE)
