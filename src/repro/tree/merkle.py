"""Generic keyed Merkle folding.

Used by the cache-tree (Section III-E) to fold its set-MACs into a root.
A level is reduced by hashing groups of ``arity`` values; missing group
members hash as zero, which matches the paper's zero set-MAC convention.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.config import TREE_ARITY
from repro.crypto.hashing import keyed_hash


def fold_level(key: bytes, values: Sequence[int], arity: int,
               domain: str, level: int) -> List[int]:
    """Hash ``values`` in groups of ``arity`` into the next level up."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    parents: List[int] = []
    for start in range(0, len(values), arity):
        group = list(values[start:start + arity])
        group += [0] * (arity - len(group))
        parents.append(keyed_hash(key, domain, level, start // arity, *group))
    return parents


def merkle_root(key: bytes, leaves: Sequence[int],
                arity: int = TREE_ARITY, domain: str = "merkle") -> int:
    """The root of the keyed Merkle tree over ``leaves``.

    An empty leaf set has the conventional root 0. A single leaf is still
    folded once so that the root never equals a leaf value verbatim.
    """
    if not leaves:
        return 0
    level = 0
    values = list(leaves)
    while len(values) > 1 or level == 0:
        values = fold_level(key, values, arity, domain, level)
        level += 1
    return values[0]
