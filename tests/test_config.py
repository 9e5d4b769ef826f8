"""Unit tests for repro.config."""

import ast
import dataclasses
import pathlib
import typing

import pytest

from repro.config import (
    BITMAP_FANOUT,
    CacheConfig,
    LINE_SIZE,
    LSB_BITS,
    MAC_BITS,
    StarConfig,
    SystemConfig,
    paper_config,
    sim_config,
    small_config,
)
from repro.core.synergy import FLUSH_THRESHOLD
from repro.errors import ConfigError
from repro.sim.energy import READ_ENERGY_NJ, WRITE_ENERGY_NJ
from repro.sim.timing import READ_LATENCY_NS, T_WR_NS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestConstants:
    def test_mac_split_covers_field(self):
        assert MAC_BITS + LSB_BITS == 64

    def test_bitmap_fanout_is_bits_per_line(self):
        assert BITMAP_FANOUT == LINE_SIZE * 8

    def test_flush_threshold_below_lsb_wraparound(self):
        assert FLUSH_THRESHOLD == 1023
        assert 0 < FLUSH_THRESHOLD < 1 << LSB_BITS


class TestCacheConfig:
    def test_derived_geometry(self):
        cache = CacheConfig(size_bytes=512 * 1024, ways=8)
        assert cache.num_lines == 8192
        assert cache.num_sets == 1024

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=8)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, ways=0)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=3 * 64 * 4, ways=4)


class TestTableIConstants:
    def test_paper_latencies(self):
        assert READ_LATENCY_NS == 48.0 + 15.0
        assert T_WR_NS == 300.0

    def test_energy_is_write_asymmetric(self):
        assert WRITE_ENERGY_NJ > READ_ENERGY_NJ


class TestStarConfig:
    def test_defaults(self):
        star = StarConfig()
        assert star.adr_bitmap_lines == 16
        assert star.bitmap_fanout == BITMAP_FANOUT

    def test_rejects_zero_adr_lines(self):
        with pytest.raises(ConfigError):
            StarConfig(adr_bitmap_lines=0)


class TestSystemConfig:
    def test_paper_config_matches_table1(self):
        config = paper_config()
        assert config.memory_bytes == 16 * 1024 ** 3
        assert config.metadata_cache.size_bytes == 512 * 1024
        assert config.metadata_cache.ways == 8
        assert config.llc.size_bytes == 4 * 1024 ** 2
        assert config.l2.size_bytes == 512 * 1024
        assert config.l1.size_bytes == 64 * 1024
        assert config.star.adr_bitmap_lines == 16

    def test_num_data_lines(self):
        assert small_config(memory_bytes=1024 * 1024).num_data_lines == \
            16384

    def test_rejects_tiny_memory(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                memory_bytes=64,
                metadata_cache=CacheConfig(size_bytes=1024, ways=4),
                llc=CacheConfig(size_bytes=1024, ways=4),
            )

    def test_rejects_unaligned_memory(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                memory_bytes=1024 * 1024 + 1,
                metadata_cache=CacheConfig(size_bytes=1024, ways=4),
                llc=CacheConfig(size_bytes=1024, ways=4),
            )

    def test_with_metadata_cache_bytes(self):
        config = small_config().with_metadata_cache_bytes(8 * 1024)
        assert config.metadata_cache.size_bytes == 8 * 1024
        assert config.metadata_cache.ways == \
            small_config().metadata_cache.ways

    def test_with_adr_lines(self):
        assert small_config().with_adr_lines(7).star.adr_bitmap_lines == 7

    def test_sim_config_scaled_fanout(self):
        assert sim_config(bitmap_fanout=64).star.bitmap_fanout == 64


def config_fields():
    """(class name, field name) of every dataclass field reachable from
    ``SystemConfig``, each class walked once."""
    found = []
    pending, seen = [SystemConfig], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            found.append((cls.__name__, field.name))
            hint = hints[field.name]
            pending.extend(arg for arg in typing.get_args(hint) or (hint,)
                           if dataclasses.is_dataclass(arg))
    return found


def attributes_read_by_the_model():
    """Every attribute name read in ``src/repro`` outside the config
    module and the spec codec, which only define and copy fields."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        if path.relative_to(PACKAGE).as_posix() in ("config.py",
                                                    "lab/spec.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


class TestNoDeadKnobs:
    """A config field that only ``config.py`` reads changes no run: it
    belongs in a constant, not in ``SystemConfig``."""

    def test_every_config_field_is_read_by_the_model(self):
        fields = config_fields()
        assert len(fields) == 11
        read = attributes_read_by_the_model()
        unread = ["%s.%s" % field for field in fields
                  if field[1] not in read]
        assert not unread, "fields no model code reads: %s" % unread
