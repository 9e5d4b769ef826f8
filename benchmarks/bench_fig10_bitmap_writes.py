"""Fig. 10 — bitmap-line write traffic vs WB write traffic.

Paper result: WB issues on average ~461x more NVM writes than STAR
issues bitmap-line writes; the ratio varies with workload locality.
Reproduced shape: for every workload the bitmap-line traffic is a small
fraction of the baseline write traffic (ratios of tens to thousands at
the scaled machine, infinity when the working set never spills ADR).
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig10


def test_fig10_bitmap_write_traffic(smoke_grid):
    table = experiment_fig10(SCALE, smoke_grid)
    data_rows = [row for row in table.rows
                 if row["workload"] != "average"]
    assert len(data_rows) == 7
    for row in data_rows:
        ratio = row["wb_to_bitmap_ratio"]
        # bitmap-line writes are always a small fraction of WB traffic
        assert ratio > 5.0, (
            "bitmap traffic should be negligible, got 1/%s of WB for %s"
            % (ratio, row["workload"])
        )
