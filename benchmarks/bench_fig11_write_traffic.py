"""Fig. 11 — NVM write traffic normalized to the write-back baseline.

Paper result: STAR ~1.08x WB (array 1.21x, hash 1.34x), Anubis 2x WB,
strict persistence up to ~tree-height x. Reproduced shape: for every
workload  STAR < Anubis ~= 2.0 < strict, with STAR within a few percent
of WB.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig11


def test_fig11_write_traffic(smoke_grid):
    table = experiment_fig11(SCALE, smoke_grid)
    for row in table.rows:
        if row["workload"] == "gmean":
            continue
        assert row["wb"] == 1.0
        assert row["star"] < 1.6, "STAR must stay near the WB baseline"
        assert 1.9 <= row["anubis"] <= 2.05, \
            "Anubis doubles the write traffic"
        assert row["strict"] > row["anubis"], \
            "strict persistence is the most write-hungry"
    gmean = table.rows[-1]
    assert gmean["star"] < 1.3
    assert gmean["anubis"] > 1.9


def test_fig11_star_reduces_extra_traffic_vs_anubis(smoke_grid):
    """The headline claim: ~92% of Anubis' extra writes eliminated."""
    reductions = []
    for (scheme, workload), result in smoke_grid.items():
        if scheme != "star":
            continue
        wb = smoke_grid[("wb", workload)]
        anubis = smoke_grid[("anubis", workload)]
        extra_star = result.nvm_writes - wb.nvm_writes
        extra_anubis = anubis.nvm_writes - wb.nvm_writes
        assert extra_anubis > 0
        reductions.append(1.0 - extra_star / extra_anubis)
    average = sum(reductions) / len(reductions)
    assert average > 0.70, (
        "STAR should eliminate most of Anubis' extra write traffic "
        "(paper: 92%%), got %.0f%%" % (average * 100)
    )
