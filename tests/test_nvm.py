"""Unit tests for the NVM device model."""

import pytest

from repro.mem.nvm import NVM
from repro.tree.node import DataLineImage, NodeImage


def _data(byte: int = 0) -> DataLineImage:
    return DataLineImage(ciphertext=bytes([byte]) * 64, mac=1, lsbs=2)


def _node() -> NodeImage:
    return NodeImage(counters=(1,) * 8, mac=3, lsbs=4)


class TestDataRegion:
    def test_unwritten_reads_none(self):
        assert NVM().read_data(5) is None

    def test_write_then_read(self):
        nvm = NVM()
        nvm.write_data(5, _data(1))
        assert nvm.read_data(5) == _data(1)

    def test_traffic_counted(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.read_data(1)
        nvm.read_data(2)
        assert nvm.stats["nvm.data_writes"] == 1
        assert nvm.stats["nvm.data_reads"] == 2

    def test_peek_not_counted(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.peek_data(1)
        assert nvm.stats["nvm.data_reads"] == 0


class TestSpanReads:
    """``read_*_span`` count like ``count`` single-line reads and return
    exactly the images those reads would, keyed by line."""

    @pytest.mark.parametrize("first, count", [
        (0, 16), (3, 4), (5, 1), (6, 0), (12, 30),
    ])
    def test_data_span_matches_line_reads(self, first, count):
        spanned, lined = NVM(), NVM()
        for nvm in (spanned, lined):
            for line in (0, 4, 5, 9, 15, 40):
                nvm.write_data(line, _data(line))
        expected = {}
        for line in range(first, first + count):
            image = lined.read_data(line)
            if image is not None:
                expected[line] = image
        assert spanned.read_data_span(first, count) == expected
        assert spanned.stats["nvm.data_reads"] == count
        assert spanned.stats.snapshot() == lined.stats.snapshot()

    @pytest.mark.parametrize("first, count", [(0, 8), (2, 3), (7, 20)])
    def test_meta_span_matches_line_reads(self, first, count):
        nvm = NVM()
        for line in (1, 2, 8, 30):
            nvm.write_meta(line, _node())
        images = nvm.read_meta_span(first, count)
        assert nvm.stats["nvm.meta_reads"] == count
        for line in range(first, first + count):
            image, touched = nvm.read_meta(line)
            assert (line in images) == touched
            if touched:
                assert images[line] == image
        assert set(images) <= set(range(first, first + count))


class TestMetaRegion:
    def test_untouched_reads_zero_image(self):
        nvm = NVM()
        image, touched = nvm.read_meta(9)
        assert not touched
        assert image == NodeImage.zero()

    def test_write_then_read(self):
        nvm = NVM()
        nvm.write_meta(9, _node())
        image, touched = nvm.read_meta(9)
        assert touched
        assert image == _node()

    def test_meta_is_touched(self):
        nvm = NVM()
        assert not nvm.meta_is_touched(9)
        nvm.write_meta(9, _node())
        assert nvm.meta_is_touched(9)


class TestRaAndSt:
    def test_ra_default_zero(self):
        assert NVM().read_ra((1, 0)) == 0

    def test_ra_write_read(self):
        nvm = NVM()
        nvm.write_ra((1, 3), 0xF0)
        assert nvm.read_ra((1, 3)) == 0xF0
        assert nvm.stats["nvm.ra_writes"] == 1
        assert nvm.stats["nvm.ra_reads"] == 1

    def test_flush_ra_not_counted(self):
        nvm = NVM()
        nvm.flush_ra((1, 0), 7)
        assert nvm.peek_ra((1, 0)) == 7
        assert nvm.stats["nvm.ra_writes"] == 0

    def test_st_write_read_clear(self):
        nvm = NVM()
        nvm.write_st(4, "entry")
        assert nvm.read_st(4) == "entry"
        assert nvm.st_slots() == [4]
        nvm.clear_st(4)
        assert nvm.read_st(4) is None

    def test_clear_st_missing_is_noop(self):
        NVM().clear_st(99)


class TestTamperInterface:
    def test_tamper_changes_content_without_traffic(self):
        nvm = NVM()
        nvm.write_data(1, _data(0))
        writes_before = nvm.total_writes()
        nvm.tamper_data(1, _data(9))
        assert nvm.peek_data(1) == _data(9)
        assert nvm.total_writes() == writes_before

    def test_tamper_meta_and_ra(self):
        nvm = NVM()
        nvm.tamper_meta(2, _node())
        nvm.tamper_ra((1, 1), 5)
        assert nvm.peek_meta(2) == _node()
        assert nvm.peek_ra((1, 1)) == 5
        assert nvm.total_writes() == 0


class TestAggregates:
    def test_totals_cover_all_regions(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.write_meta(1, _node())
        nvm.write_ra((1, 0), 1)
        nvm.write_st(0, "e")
        nvm.read_data(1)
        nvm.read_meta(1)
        nvm.read_ra((1, 0))
        nvm.read_st(0)
        assert nvm.total_writes() == 4
        assert nvm.total_reads() == 4
