"""The lint engine: project pass, file walker, pragmas, reporters.

The run is two-phase. Phase one parses every file into a
:class:`FileContext` and folds each tree into a
:class:`~repro.lint.project.ProjectContext` (symbol table, call graph,
class hierarchy); each rule then gets :meth:`Rule.begin` with that
whole-program view. Phase two walks the files: a :class:`Rule`
inspects one parsed file at a time through its :class:`FileContext`
(which carries ``ctx.project``) and yields :class:`Finding` objects;
rules that need whole-tree state (STAR004's unused-catalogue
direction) accumulate it across :meth:`Rule.check` calls and emit the
remainder from :meth:`Rule.finish`. ``finish()`` findings go through
the same pragma suppression as per-file ones, keyed by the finding's
path.

Suppression follows the familiar trailing-pragma style::

    machine.nvm._meta  # lint: disable=STAR001
    # lint: disable-file=STAR003   (anywhere in the file, whole file)

Reporters: :func:`render_text` for humans, ``Finding.to_dict`` /
:func:`findings_to_json` for machines (consumed by the CI job and the
round-trip test).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.project import ProjectContext

_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")
_FILE_PRAGMA = re.compile(r"#\s*lint:\s*disable-file=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            message=str(payload["message"]),
        )


class FileContext:
    """One parsed source file, as seen by the rules."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines: List[str] = source.splitlines()
        self.module_path = _module_path(path)
        self.project: Optional[ProjectContext] = None
        """The whole-program view; set by the engine before checks run.
        ``None`` only when a context is built by hand in tests."""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    # ------------------------------------------------------------------
    # pragma suppression
    # ------------------------------------------------------------------
    def disabled_rules(self, line: int) -> Set[str]:
        """Rules suppressed on ``line`` (1-based) via a trailing pragma."""
        if not 1 <= line <= len(self.lines):
            return set()
        match = _PRAGMA.search(self.lines[line - 1])
        if match is None:
            return set()
        return {code.strip() for code in match.group(1).split(",")}

    def file_disabled_rules(self) -> Set[str]:
        disabled: Set[str] = set()
        for text in self.lines:
            match = _FILE_PRAGMA.search(text)
            if match is not None:
                disabled |= {
                    code.strip() for code in match.group(1).split(",")
                }
        return disabled

    def is_suppressed(self, finding: Finding) -> bool:
        return (
            finding.rule in self.disabled_rules(finding.line)
            or finding.rule in self.file_disabled_rules()
        )


def _module_path(path: str) -> str:
    """Normalize a file path to its ``repro/...`` suffix.

    Rules scope themselves by package (``repro/sim/...``); anchoring at
    the last ``repro/`` component makes that work for ``src/repro/x.py``
    checkouts and for test fixtures staged under a tmp dir alike.
    """
    normalized = path.replace("\\", "/")
    marker = "repro/"
    index = normalized.rfind(marker)
    if index >= 0:
        return normalized[index:]
    return normalized.rsplit("/", 1)[-1]


class Rule:
    """Base class: subclasses set ``code``/``name`` and yield findings."""

    code = "STAR000"
    name = "base-rule"
    description = ""

    def begin(self, project: ProjectContext) -> None:
        """Called once per run, before any :meth:`check`, with the
        whole-program view. Per-file rules ignore it."""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finish(self) -> Iterable[Finding]:
        """Whole-tree findings, after every file has been checked."""
        return ()


class LintEngine:
    """Parses the tree, runs the project pass, applies rules."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)
        self.errors: List[str] = []
        """Files that could not be parsed (reported, not fatal)."""

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------
    def run(self, paths: Iterable[str]) -> List[Finding]:
        contexts: List[FileContext] = []
        project = ProjectContext()
        for path in self._python_files(paths):
            ctx = self._parse(path)
            if ctx is None:
                continue
            ctx.project = project
            project.add_module(ctx.path, ctx.module_path, ctx.tree)
            contexts.append(ctx)
        for rule in self.rules:
            rule.begin(project)

        by_path = {ctx.path: ctx for ctx in contexts}
        findings: List[Finding] = []
        for ctx in contexts:
            for rule in self.rules:
                for finding in rule.check(ctx):
                    if not ctx.is_suppressed(finding):
                        findings.append(finding)
        for rule in self.rules:
            for finding in rule.finish():
                owner = by_path.get(finding.path)
                if owner is None or not owner.is_suppressed(finding):
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def _parse(self, path: str) -> Optional[FileContext]:
        try:
            source = Path(path).read_text(encoding="utf-8")
            return FileContext(path, source)
        except (OSError, SyntaxError, ValueError) as exc:
            self.errors.append("%s: %s" % (path, exc))
            return None

    @staticmethod
    def _python_files(paths: Iterable[str]) -> Iterator[str]:
        for entry in paths:
            root = Path(entry)
            if root.is_dir():
                yield from sorted(
                    str(p) for p in root.rglob("*.py")
                )
            else:
                yield str(root)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    """The human reporter: one ``path:line:col CODE message`` per line."""
    if not findings:
        return "clean: no findings"
    out = [
        "%s:%d:%d %s %s"
        % (f.path, f.line, f.col, f.rule, f.message)
        for f in findings
    ]
    per_rule: Dict[str, int] = {}
    for f in findings:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    summary = ", ".join(
        "%s: %d" % (rule, count) for rule, count in sorted(per_rule.items())
    )
    out.append("%d finding(s) (%s)" % (len(findings), summary))
    return "\n".join(out)


def findings_to_json(findings: Sequence[Finding]) -> str:
    """The machine reporter (``star-lint --json``)."""
    return json.dumps(
        {"findings": [f.to_dict() for f in findings]}, indent=2
    )


def findings_from_json(text: str) -> List[Finding]:
    payload = json.loads(text)
    return [Finding.from_dict(item) for item in payload["findings"]]
