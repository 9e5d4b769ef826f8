"""Tests for the analytic recovery-time projection (Fig. 14b model)."""

import pytest

from repro.config import LINE_ACCESS_NS
from repro.sim.projection import (
    ANUBIS_ACCESSES_PER_CACHE_LINE,
    STAR_ACCESSES_PER_STALE_LINE,
    project,
    project_anubis_seconds,
    project_star_seconds,
)

FOUR_MB = 4 * 1024 * 1024


class TestPaperNumbers:
    def test_star_4mb_matches_paper(self):
        """dirty ~78%, 11 accesses/node, 100 ns -> ~0.056 s (paper:
        'STAR needs 0.05s to recover ... a 4MB metadata cache')."""
        seconds = project_star_seconds(FOUR_MB, dirty_fraction=0.78)
        assert seconds == pytest.approx(0.056, rel=0.03)

    def test_anubis_4mb_matches_paper(self):
        """3 accesses per slot for 65536 slots -> ~0.02 s."""
        seconds = project_anubis_seconds(FOUR_MB)
        assert seconds == pytest.approx(0.0197, rel=0.02)

    def test_star_to_anubis_ratio(self):
        """Paper: 'STAR needs about 2.5x recovery time than Anubis'."""
        projection = project(FOUR_MB, dirty_fraction=0.78)
        ratio = projection.star_seconds / projection.anubis_seconds
        assert 2.0 <= ratio <= 3.5

    def test_both_negligible_vs_self_test(self):
        projection = project(FOUR_MB, dirty_fraction=1.0)
        assert projection.star_seconds < 0.1
        assert projection.anubis_seconds < 0.1


class TestModelStructure:
    def test_linear_in_cache_size(self):
        small = project_anubis_seconds(FOUR_MB)
        large = project_anubis_seconds(2 * FOUR_MB)
        assert large == pytest.approx(2 * small)

    def test_star_linear_in_dirty_fraction(self):
        half = project_star_seconds(FOUR_MB, 0.4)
        full = project_star_seconds(FOUR_MB, 0.8)
        assert full == pytest.approx(2 * half)

    def test_star_zero_dirty_is_instant(self):
        assert project_star_seconds(FOUR_MB, 0.0) == 0.0

    def test_anubis_independent_of_dirtiness(self):
        """Anubis cannot exploit a clean cache — the contrast STAR's
        bitmap lines exist to create."""
        assert project(FOUR_MB, 0.1).anubis_seconds == \
            project(FOUR_MB, 0.9).anubis_seconds

    def test_dirty_fraction_validated(self):
        with pytest.raises(ValueError):
            project_star_seconds(FOUR_MB, 1.5)

    def test_constants_match_paper_model(self):
        assert LINE_ACCESS_NS == 100.0
        assert STAR_ACCESSES_PER_STALE_LINE == 11.0
        assert ANUBIS_ACCESSES_PER_CACHE_LINE == 3.0

    def test_projection_lines_property(self):
        assert project(FOUR_MB, 0.5).cache_lines == 65536
