"""Fig. 12 — IPC normalized to the write-back baseline.

Paper result: STAR achieves ~98% of WB's IPC (worst case hash, 8%
overhead); Anubis ~90%. Reproduced shape: STAR ~= WB > Anubis > strict
on every workload.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig12


def test_fig12_ipc(smoke_grid):
    table = experiment_fig12(SCALE, smoke_grid)
    for row in table.rows:
        if row["workload"] == "gmean":
            continue
        assert row["star"] > 0.85, "STAR IPC stays close to WB"
        assert row["star"] >= row["anubis"] - 0.02, \
            "STAR must not lose to Anubis"
        assert row["strict"] <= row["anubis"], \
            "strict persistence pays the largest IPC penalty"
    gmean = table.rows[-1]
    assert gmean["star"] > 0.93
    assert gmean["anubis"] < 0.99
