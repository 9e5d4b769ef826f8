"""Table II — bitmap-line hit ratio vs the number of lines in ADR.

Paper result: 2 lines -> 32.85%, 4 -> 47.44%, 8 -> 64.37%,
16 -> 74.75%, 32 -> 82.19%. Reproduced shape: strictly increasing hit
ratio with diminishing returns; 16 lines already lands in the 60-95%
band, justifying the paper's choice of 16.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_table2


def test_table2_adr_hit_ratio():
    table = experiment_table2(SCALE)
    ratios = table.column("hit_ratio")
    assert ratios == sorted(ratios), "more ADR lines -> higher hit ratio"
    assert ratios[0] < ratios[-1]
    by_lines = dict(zip(table.column("adr_lines"), ratios))
    assert 0.40 <= by_lines[16] <= 0.98
    # diminishing returns: the 16 -> 32 step gains less than 2 -> 4
    assert (by_lines[32] - by_lines[16]) <= (by_lines[4] - by_lines[2]) \
        + 0.05
