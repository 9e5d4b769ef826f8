"""Geometry of the 8-ary SGX integrity tree over a line-addressed memory.

Level 0 holds the counter blocks (the SIT leaves, parents of user-data
lines). Each higher level has ``ceil(previous / arity)`` nodes, up to a
top level with at most ``arity`` nodes whose common parent is the on-chip
root register. The root itself is *not* stored in NVM (Section II-C).

Nodes are identified by ``(level, index)`` pairs. A flat *metadata index*
(level 0 first, then level 1, ...) gives every in-NVM node a stable line
address used by the bitmap lines, the metadata cache and the NVM store.

Address arithmetic sits on the simulator's per-access hot path (every
data write resolves its counter block, walks ancestors and translates
node ids to metadata lines), so the pure functions here memoize per
instance: a geometry is immutable after construction and the id space is
small, so the memo dictionaries converge to the working set and stay
there.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.config import TREE_ARITY
from repro.errors import ConfigError

NodeId = Tuple[int, int]
"""(level, index) with level 0 = counter blocks."""


class TreeGeometry:
    """Shape calculations for the SIT over ``num_data_lines`` lines."""

    __slots__ = (
        "num_data_lines", "arity", "level_counts", "_level_offsets",
        "num_levels", "total_nodes", "top_level",
        "_meta_index_memo", "_node_at_memo", "_parent_memo",
        "_children_memo",
    )

    def __init__(self, num_data_lines: int, arity: int = TREE_ARITY) -> None:
        if num_data_lines < 1:
            raise ConfigError("memory must contain at least one data line")
        if arity < 2:
            raise ConfigError("tree arity must be at least 2")
        self.num_data_lines = num_data_lines
        self.arity = arity
        counts: List[int] = [-(-num_data_lines // arity)]
        while counts[-1] > arity:
            counts.append(-(-counts[-1] // arity))
        self.level_counts: Tuple[int, ...] = tuple(counts)
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        self._level_offsets: Tuple[int, ...] = tuple(offsets)
        self.num_levels: int = len(counts)
        """Number of in-NVM tree levels (the on-chip root is extra)."""
        self.total_nodes: int = offsets[-1]
        """Total in-NVM metadata lines (counter blocks + SIT nodes)."""
        self.top_level: int = len(counts) - 1
        """The highest in-NVM level; its nodes are children of the root."""
        self._meta_index_memo: Dict[NodeId, int] = {}
        self._node_at_memo: Dict[int, NodeId] = {}
        self._parent_memo: Dict[NodeId, NodeId] = {}
        self._children_memo: Dict[NodeId, Tuple[int, ...]] = {}

    def check_node(self, node: NodeId) -> NodeId:
        """Validate that ``node`` exists in this geometry."""
        level, index = node
        if not 0 <= level < self.num_levels:
            raise ValueError("level %d out of range" % level)
        if not 0 <= index < self.level_counts[level]:
            raise ValueError(
                "index %d out of range for level %d" % (index, level)
            )
        return node

    def meta_index(self, node: NodeId) -> int:
        """Flat metadata line index of ``node`` (level-major order)."""
        memo = self._meta_index_memo
        result = memo.get(node)
        if result is None:
            level, index = self.check_node(node)
            result = memo[node] = self._level_offsets[level] + index
        return result

    def node_at(self, meta_index: int) -> NodeId:
        """Inverse of :meth:`meta_index`."""
        memo = self._node_at_memo
        node = memo.get(meta_index)
        if node is None:
            if not 0 <= meta_index < self.total_nodes:
                raise ValueError(
                    "metadata index %d out of range" % meta_index
                )
            for level in range(self.num_levels):
                if meta_index < self._level_offsets[level + 1]:
                    node = (level, meta_index - self._level_offsets[level])
                    memo[meta_index] = node
                    return node
            raise AssertionError("unreachable")
        return node

    def parent_of(self, node: NodeId) -> NodeId:
        """Parent node id; raises for top-level nodes (their parent is
        the on-chip root, which has no NVM identity)."""
        memo = self._parent_memo
        parent = memo.get(node)
        if parent is None:
            level, index = self.check_node(node)
            if level == self.top_level:
                raise ValueError(
                    "top-level nodes are children of the root"
                )
            parent = memo[node] = (level + 1, index // self.arity)
        return parent

    def is_top_level(self, node: NodeId) -> bool:
        return node[0] == self.top_level

    def slot_in_parent(self, node: NodeId) -> int:
        """Which of the parent's counters corresponds to this node."""
        self.check_node(node)
        return node[1] % self.arity

    def data_slot(self, data_line: int) -> int:
        """Which counter of its counter block covers ``data_line``."""
        if not 0 <= data_line < self.num_data_lines:
            raise ValueError("data line %d out of range" % data_line)
        return data_line % self.arity

    def counter_block_for(self, data_line: int) -> NodeId:
        """The level-0 node (counter block) covering ``data_line``."""
        if not 0 <= data_line < self.num_data_lines:
            raise ValueError("data line %d out of range" % data_line)
        return (0, data_line // self.arity)

    def children_of(self, node: NodeId) -> List[int]:
        """Child identifiers of ``node``.

        For level 0 the children are *data line* numbers; for level > 0
        they are the indices of level - 1 nodes. Edge nodes may have fewer
        than ``arity`` children.
        """
        memo = self._children_memo
        children = memo.get(node)
        if children is None:
            level, index = self.check_node(node)
            first = index * self.arity
            if level == 0:
                last = min(first + self.arity, self.num_data_lines)
            else:
                last = min(first + self.arity, self.level_counts[level - 1])
            children = memo[node] = tuple(range(first, last))
        # a fresh list per call: callers may index, slice or mutate
        return list(children)

    def ancestors_of(self, node: NodeId) -> Iterator[NodeId]:
        """Yield the proper in-NVM ancestors of ``node``, bottom-up."""
        current = self.check_node(node)
        while not self.is_top_level(current):
            current = self.parent_of(current)
            yield current
