"""Fig. 14(b) — recovery time after a crash vs metadata cache size.

Paper result: for a 4 MB metadata cache STAR needs ~0.05 s and Anubis
~0.02 s (Anubis reads its whole shadow table; STAR reads ~10 lines per
stale node but only for the ~78% dirty share). Both are negligible next
to the 10-100 s platform self-test. Reproduced shape: recovery time
grows linearly with cache size, STAR is a small constant factor slower
than Anubis, and the projected 4 MB times land well under a second.
"""

from conftest import SCALE

from repro.bench.experiments import experiment_fig14b


def test_fig14b_recovery_time():
    table = experiment_fig14b(SCALE)
    projected = [row for row in table.rows if row["kind"] == "projected"]
    star = [row["star_seconds"] for row in projected]
    anubis = [row["anubis_seconds"] for row in projected]
    assert star == sorted(star), "recovery time grows with cache size"
    assert anubis == sorted(anubis)
    four_mb = projected[-1]
    assert four_mb["cache"] == "4.0MB"
    # the paper's contrast: STAR pays ~2-3x Anubis' recovery time...
    assert four_mb["star_seconds"] > four_mb["anubis_seconds"]
    assert four_mb["star_seconds"] < 6 * four_mb["anubis_seconds"]
    # ...but both remain negligible against the 10-100s self-test
    assert four_mb["star_seconds"] < 0.5


def test_fig14b_star_reads_scale_with_dirty_lines_not_cache():
    """STAR's defining property: recovery cost tracks the number of
    dirty lines, not the cache or memory size."""
    from repro.bench.runner import config_for_scale, run_one

    costs = {}
    for size in (4 * 1024, 16 * 1024):
        config = config_for_scale(SCALE)
        config = config.with_metadata_cache_bytes(size)
        result = run_one(config, "star", "hash", operations=300,
                         crash_and_recover=True)
        assert result.recovery is not None
        costs[size] = result.recovery
    for recovery in costs.values():
        if recovery.stale_lines:
            per_node = recovery.line_accesses / recovery.stale_lines
            assert per_node < 13
