"""Fig. 13 — NVM energy normalized to the write-back baseline.

Paper result: STAR adds ~4% energy over WB; Anubis ~46%. Reproduced
shape: STAR within a few percent of WB, Anubis tens of percent above,
strict persistence far above both.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig13


def test_fig13_energy(smoke_grid):
    table = experiment_fig13(SCALE, smoke_grid)
    for row in table.rows:
        if row["workload"] == "gmean":
            continue
        assert row["star"] < 1.30, "STAR energy stays near WB"
        assert row["anubis"] > 1.15, \
            "Anubis pays a significant energy premium"
        assert row["star"] < row["anubis"] < row["strict"]
    gmean = table.rows[-1]
    assert gmean["star"] < 1.15
    assert 1.2 < gmean["anubis"] < 1.8
