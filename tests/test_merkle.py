"""Unit + property tests for the keyed Merkle folding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tree.merkle import fold_level, merkle_root

KEY = b"merkle-key"


class TestFoldLevel:
    def test_groups_of_arity(self):
        parents = fold_level(KEY, list(range(16)), 8, "t", 0)
        assert len(parents) == 2

    def test_partial_group_zero_padded(self):
        explicit = fold_level(KEY, [1, 2, 3] + [0] * 5, 8, "t", 0)
        padded = fold_level(KEY, [1, 2, 3], 8, "t", 0)
        assert explicit == padded

    def test_rejects_tiny_arity(self):
        with pytest.raises(ValueError):
            fold_level(KEY, [1], 1, "t", 0)


class TestMerkleRoot:
    def test_empty_root_is_zero(self):
        assert merkle_root(KEY, []) == 0

    def test_single_leaf_still_folded(self):
        assert merkle_root(KEY, [123]) != 123

    def test_deterministic(self):
        leaves = list(range(20))
        assert merkle_root(KEY, leaves) == merkle_root(KEY, leaves)

    def test_key_separates(self):
        assert merkle_root(KEY, [1, 2]) != merkle_root(b"other", [1, 2])

    def test_domain_separates(self):
        assert merkle_root(KEY, [1, 2], domain="a") != \
            merkle_root(KEY, [1, 2], domain="b")

    def test_leaf_count_matters(self):
        """[x] and [x, 0] must not collide (length extension guard)."""
        assert merkle_root(KEY, [5]) == merkle_root(KEY, [5, 0])
        # same group is expected to collide with explicit zero padding;
        # an extra group changes the shape
        assert merkle_root(KEY, [5] + [0] * 8) != merkle_root(KEY, [5])

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                    min_size=1, max_size=40),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_leaf_change_changes_root(self, leaves, data):
        index = data.draw(st.integers(min_value=0,
                                      max_value=len(leaves) - 1))
        mutated = list(leaves)
        mutated[index] ^= 1
        assert merkle_root(KEY, leaves) != merkle_root(KEY, mutated)

    @given(st.lists(st.integers(min_value=1, max_value=2 ** 32),
                    min_size=2, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_order_matters(self, leaves):
        reordered = list(reversed(leaves))
        assert merkle_root(KEY, leaves) != merkle_root(KEY, reordered)
