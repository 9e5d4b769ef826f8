"""Sensitivity sweeps (extensions of the paper's Table II / Fig. 14b
methodology to the remaining design parameters)."""

from conftest import SCALE

from repro.bench.sweeps import (
    sweep_bitmap_fanout,
    sweep_metadata_cache,
    sweep_phoenix_stride,
)


def test_metadata_cache_sweep():
    table = sweep_metadata_cache(SCALE)
    wb_writes = table.column("wb_writes")
    assert wb_writes == sorted(wb_writes, reverse=True), \
        "a larger cache absorbs evictions"
    for row in table.rows:
        assert row["star_norm_writes"] < 2.0
        assert 0.0 <= row["dirty_fraction"] <= 1.0


def test_phoenix_stride_sweep():
    table = sweep_phoenix_stride((1, 4, 16), "hash", 250)
    persists = table.column("periodic_persists")
    assert persists == sorted(persists, reverse=True), \
        "longer strides persist less often"
    assert all(table.column("recovery_exact")), \
        "every stride must still recover exactly"


def test_bitmap_fanout_sweep():
    table = sweep_bitmap_fanout(SCALE)
    spills = table.column("bitmap_writes")
    assert spills == sorted(spills, reverse=True), \
        "wider coverage -> fewer bitmap spills"
    hit_ratios = [ratio for ratio in table.column("adr_hit_ratio")
                  if ratio > 0]
    assert hit_ratios == sorted(hit_ratios), \
        "wider coverage -> higher ADR hit ratio"
