"""The cache-tree (Section III-E): verifying the recovery process.

The SIT root is lazily updated, so after a crash it does not reflect the
latest memory state and cannot detect replay attacks mounted *during*
recovery. STAR instead commits to the exact set of dirty cached metadata:

* per cache set, the MACs of the dirty lines are ordered by ascending
  address and hashed into a **set-MAC** (zero when the set has no dirty
  line) — the set-way structure fixes the leaf order, avoiding the
  false-positive and re-hashing problems of an address-ordered Merkle
  tree over a changing dirty population (Fig. 8),
* the set-MACs are folded by an 8-ary Merkle tree whose root lives in an
  on-chip register.

After recovery the restored nodes are placed back into their sets, the
set-MACs recomputed and the root compared: any tampering with the
recovery inputs (stale MSBs, child LSB/MAC tuples, bitmap lines) yields a
different root.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.config import TREE_ARITY
from repro.crypto.hashing import keyed_hash
from repro.tree.merkle import merkle_root

MacEntry = Tuple[int, int]
"""(line address, 54-bit MAC) of one dirty metadata line."""


class CacheTree:
    """Computes set-MACs and the cache-tree root for one cache geometry."""

    def __init__(self, key: bytes, num_sets: int) -> None:
        if num_sets < 1:
            raise ValueError("cache must have at least one set")
        self._key = key
        self.num_sets = num_sets

    def set_index(self, line_addr: int) -> int:
        """Must match the metadata cache's set mapping."""
        return line_addr % self.num_sets

    def set_mac(self, set_index: int, entries: Iterable[MacEntry]) -> int:
        """Hash of the set's dirty-line MACs in ascending-address order.

        The zero set-MAC for an empty set is the paper's convention; the
        entries are sorted here so callers need not pre-sort.
        """
        ordered = sorted(entries)
        if not ordered:
            return 0
        flat: List[int] = [set_index]
        for addr, mac in ordered:
            flat.append(addr)
            flat.append(mac)
        return keyed_hash(self._key, "set-mac", *flat)

    def root(self, set_macs: Dict[int, int]) -> int:
        """Fold all set-MACs (zero-filled) into the cache-tree root."""
        leaves = [set_macs.get(index, 0) for index in range(self.num_sets)]
        return merkle_root(self._key, leaves, TREE_ARITY,
                           domain="cache-tree")

    def root_from_entries(self, entries: Iterable[MacEntry]) -> int:
        """Root directly from dirty-line (address, MAC) pairs."""
        grouped: Dict[int, List[MacEntry]] = {}
        for addr, mac in entries:
            grouped.setdefault(self.set_index(addr), []).append((addr, mac))
        set_macs = {
            index: self.set_mac(index, group)
            for index, group in grouped.items()
        }
        return self.root(set_macs)
