"""STAR003: simulation paths must be deterministic.

Fuzz campaigns replay cases bit-identically across processes,
perfbench checks every cell's output against pinned digests, the lab
store content-addresses results by spec, and the farm merges worker
stores assuming spec-pure payloads, so anything under
``repro/sim``, ``repro/core``, ``repro/fuzz`` or ``repro/lab``
(including ``lab/farm.py`` and ``lab/lease.py``) must not consult
global randomness or wall clocks, and must not let set iteration
order leak into traces. The lab's single sanctioned wall-clock seam
is ``repro/lab/clock.py`` (file-level pragma); all other lab timing —
scheduler timeouts, lease deadlines, heartbeats — goes through an
injected ``Clock``. Flagged:

* calls through the module-level ``random.*`` API (seeded
  ``random.Random(...)`` instances stay allowed — that is how workloads
  and campaigns derive their determinism),
* wall-clock reads: ``time.time/.._ns``, ``perf_counter``,
  ``monotonic``, ``datetime.now/utcnow``,
* iterating a bare ``set`` display / ``set(...)`` call / set
  comprehension in ``for`` statements and comprehensions (order is
  hash-randomized across runs; sort first).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.lint.engine import FileContext, Finding, Rule

_ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})
_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_DEFAULT_SCOPES: Tuple[str, ...] = (
    "repro/sim/", "repro/core/", "repro/fuzz/", "repro/lab/",
)


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class NondeterminismRule(Rule):
    code = "STAR003"
    name = "nondeterminism"
    description = (
        "global randomness, wall clocks or unordered set iteration in a "
        "deterministic simulation path"
    )

    def __init__(self, scopes: Iterable[str] = _DEFAULT_SCOPES) -> None:
        self.scopes = tuple(scopes)

    def _in_scope(self, ctx: FileContext) -> bool:
        return any(ctx.module_path.startswith(s) for s in self.scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(ctx, generator.iter)

    def _check_call(self, ctx: FileContext, node: ast.Call
                    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv = func.value
        if not isinstance(recv, ast.Name):
            return
        if recv.id == "random" and func.attr not in _ALLOWED_RANDOM_ATTRS:
            yield ctx.finding(
                self.code,
                node,
                "module-level random.%s() is process-global state; use a "
                "seeded random.Random instance" % func.attr,
            )
        elif recv.id == "time" and func.attr in _TIME_ATTRS:
            yield ctx.finding(
                self.code,
                node,
                "wall-clock read time.%s() in a simulation path breaks "
                "replay determinism" % func.attr,
            )
        elif recv.id == "datetime" and func.attr in _DATETIME_ATTRS:
            yield ctx.finding(
                self.code,
                node,
                "datetime.%s() in a simulation path breaks replay "
                "determinism" % func.attr,
            )

    def _check_iteration(self, ctx: FileContext, iter_node: ast.expr
                         ) -> Iterator[Finding]:
        if _is_set_expression(iter_node):
            yield ctx.finding(
                self.code,
                iter_node,
                "iterating a set has hash-randomized order; iterate "
                "sorted(...) instead",
            )
