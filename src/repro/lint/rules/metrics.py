"""STAR004: stats-counter hygiene against the metric catalogue.

The telemetry registry auto-creates instruments on first use, so a typo
in a metric name forks a silent, never-read counter. This rule checks
emission sites against ``repro.obs.catalog`` in both directions:

* a literal metric name used at a stats/registry call site but absent
  from the catalogue → finding at the call site;
* a catalogue entry no scanned code ever emits → finding against the
  catalogue (only on full-tree runs — when the scan included the NVM
  and controller modules — so sub-tree invocations don't cry wolf).

Emission sites are recognized by receiver shape (``stats.add(...)``,
``self.stats.observe(...)``, ``registry.counter(...)``) to avoid
confusing dict ``.get`` or unrelated ``.add`` calls. Dynamic names
built with ``%``-formatting are matched against the catalogue's
declared patterns. A declared pattern formatted outside a call site
also counts as emitted: hot paths pre-build name tables from it (the
bitmap's per-layer ``bitmap.line_updates.l%d``) and emit through the
table, out of this rule's sight.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule
from repro.obs import catalog

_RECEIVER_NAMES = frozenset({"stats", "registry", "recovery_stats"})
_RECEIVER_ATTRS = frozenset(
    {"stats", "registry", "_stats", "recovery_stats"}
)
_METHODS = frozenset({
    "add", "get", "gauge_set", "observe",
    "counter", "gauge", "histogram",
})
_FULL_SCAN_MARKERS = frozenset({
    "repro/mem/nvm.py", "repro/sim/controller.py",
})


def _receiver_ok(func: ast.Attribute) -> bool:
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id in _RECEIVER_NAMES
    if isinstance(recv, ast.Attribute):
        return recv.attr in _RECEIVER_ATTRS
    return False


def _literal_or_template(arg: ast.expr) -> Tuple[Optional[str], bool]:
    """(name, is_template) for the metric-name argument, if static."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, "%" in arg.value
    if (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod)
            and isinstance(arg.left, ast.Constant)
            and isinstance(arg.left.value, str)):
        return arg.left.value, True
    return None, False


class MetricCatalogRule(Rule):
    code = "STAR004"
    name = "metric-catalog"
    description = (
        "metric name not in the repro.obs catalogue, or catalogue entry "
        "never emitted"
    )

    def __init__(self,
                 metrics: Optional[Dict[str, str]] = None,
                 patterns: Optional[List[Tuple[str, str]]] = None,
                 require_full_scan: bool = True) -> None:
        self.metrics = dict(
            catalog.METRICS if metrics is None else metrics
        )
        self.patterns = list(
            catalog.METRIC_PATTERNS if patterns is None else patterns
        )
        self._pattern_regexes = [
            (catalog._pattern_regex(template), template, kind)
            for template, kind in self.patterns
        ]
        self.require_full_scan = require_full_scan
        self._seen_names: Set[str] = set()
        self._seen_templates: Set[str] = set()
        self._scanned_modules: Set[str] = set()
        self._catalog_path = "src/repro/obs/catalog.py"

    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> Optional[str]:
        kind = self.metrics.get(name)
        if kind is not None:
            self._seen_names.add(name)
            return kind
        for regex, template, pattern_kind in self._pattern_regexes:
            if regex.match(name):
                self._seen_templates.add(template)
                return pattern_kind
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        self._scanned_modules.add(ctx.module_path)
        if ctx.module_path == "repro/obs/catalog.py":
            self._catalog_path = ctx.path
        declared = {t for t, _ in self.patterns}
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Constant)
                    and node.left.value in declared):
                self._seen_templates.add(node.left.value)
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr not in _METHODS or not _receiver_ok(func):
                continue
            if not node.args:
                continue
            name, is_template = _literal_or_template(node.args[0])
            if name is None:
                continue
            if is_template:
                if name not in declared:
                    yield ctx.finding(
                        self.code,
                        node,
                        "metric template %r is not declared in "
                        "METRIC_PATTERNS (repro.obs.catalog)" % name,
                    )
            elif self._lookup(name) is None:
                yield ctx.finding(
                    self.code,
                    node,
                    "metric %r is not in the repro.obs catalogue; add "
                    "it to METRICS or fix the name" % name,
                )

    def finish(self) -> Iterator[Finding]:
        if (self.require_full_scan
                and not _FULL_SCAN_MARKERS <= self._scanned_modules):
            return
        anchor = Finding(
            rule=self.code, path=self._catalog_path, line=1, col=0,
            message="",
        )
        for name in sorted(set(self.metrics) - self._seen_names):
            yield Finding(
                rule=self.code, path=anchor.path, line=1, col=0,
                message="catalogued metric %r is never emitted by the "
                        "scanned code" % name,
            )
        declared = {t for t, _ in self.patterns}
        for template in sorted(declared - self._seen_templates):
            yield Finding(
                rule=self.code, path=anchor.path, line=1, col=0,
                message="catalogued metric pattern %r is never emitted "
                        "by the scanned code" % template,
            )
