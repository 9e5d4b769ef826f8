"""Fig. 14(a) — dirty share of the metadata cache at crash time.

Paper result: ~78% of the cached metadata are dirty on average, which
is why STAR (restoring only those) reads less state than Anubis
(restoring 100% of the cache). Reproduced shape: a substantial but
sub-100% dirty fraction for every workload.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig14a


def test_fig14a_dirty_fraction(smoke_grid):
    table = experiment_fig14a(SCALE, smoke_grid)
    rows = [row for row in table.rows if row["workload"] != "average"]
    assert len(rows) == 7
    for row in rows:
        assert 0.2 <= row["dirty_fraction"] <= 1.0
    average = table.rows[-1]["dirty_fraction"]
    assert 0.5 <= average <= 0.95, (
        "average dirty fraction should sit near the paper's 78%%, "
        "got %.0f%%" % (average * 100)
    )
