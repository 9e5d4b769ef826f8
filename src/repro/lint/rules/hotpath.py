"""STAR005: the hot-path memory-layout roster must not drift.

PR 3's perf pass leaned on ``__slots__`` and frozen+slotted dataclasses
for the per-access object churn (node images, cache lines, the LRU, the
write queue, ADR, geometry, metric instruments). Those wins silently
evaporate when a later edit drops the ``__slots__`` declaration or the
``slots=True`` dataclass flag — nothing fails, the simulator just gets
slower, which only a benchmark run would show. This rule pins the
roster: memory layout, not timing.

A rostered class satisfies the rule when its body assigns ``__slots__``
or it is decorated ``@dataclass(..., slots=True)``; classes expected to
be immutable images must also carry ``frozen=True``. A rostered class
that disappears from its module is reported too (rename the class →
update the roster, consciously).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule

# module path -> {class name: needs_frozen}
DEFAULT_ROSTER: Dict[str, Dict[str, bool]] = {
    "repro/tree/node.py": {
        "NodeImage": True,
        "DataLineImage": True,
        "CachedNode": False,
    },
    "repro/tree/geometry.py": {"TreeGeometry": False},
    "repro/tree/sit.py": {"SITAuthenticator": False},
    "repro/mem/cache.py": {
        "CacheLine": False,
        "SetAssociativeCache": False,
    },
    "repro/mem/writequeue.py": {"WritePendingQueue": False},
    "repro/mem/adr.py": {"AdrRegion": False},
    "repro/util/lru.py": {"LRUCache": False},
    "repro/crypto/otp.py": {"CounterModeEngine": False},
    "repro/obs/metrics.py": {
        "Counter": False,
        "Gauge": False,
        "Histogram": False,
    },
}


def _dataclass_flags(node: ast.ClassDef) -> Optional[Tuple[bool, bool]]:
    """(slots, frozen) when decorated with @dataclass, else None."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name != "dataclass":
            continue
        slots = frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if not (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    continue
                if keyword.arg == "slots":
                    slots = True
                elif keyword.arg == "frozen":
                    frozen = True
        return slots, frozen
    return None


def _has_slots_assignment(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class HotPathRosterRule(Rule):
    code = "STAR005"
    name = "hot-path-roster"
    description = (
        "a perf-critical class lost its __slots__ / frozen-dataclass "
        "layout"
    )

    def __init__(self,
                 roster: Optional[Dict[str, Dict[str, bool]]] = None
                 ) -> None:
        self.roster = DEFAULT_ROSTER if roster is None else roster

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        expected = self.roster.get(ctx.module_path)
        if not expected:
            return
        seen: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            needs_frozen = expected.get(node.name)
            if needs_frozen is None:
                continue
            seen.add(node.name)
            flags = _dataclass_flags(node)
            if flags is not None:
                slots, frozen = flags
                if not slots:
                    yield ctx.finding(
                        self.code, node,
                        "hot-path dataclass %r must declare slots=True"
                        % node.name,
                    )
                if needs_frozen and not frozen:
                    yield ctx.finding(
                        self.code, node,
                        "image dataclass %r must declare frozen=True"
                        % node.name,
                    )
            elif not _has_slots_assignment(node):
                yield ctx.finding(
                    self.code, node,
                    "hot-path class %r must declare __slots__"
                    % node.name,
                )
        for missing in sorted(set(expected) - seen):
            yield Finding(
                rule=self.code, path=ctx.path, line=1, col=0,
                message="rostered hot-path class %r not found in %s; "
                        "update the STAR005 roster if it moved"
                        % (missing, ctx.module_path),
            )
