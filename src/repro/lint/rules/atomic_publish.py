"""STAR008: telemetry/lab files must be published atomically.

Readers of the heartbeat plane, the campaign store and Chrome span
traces run in *other processes* (star-top, a resuming coordinator, CI
``cmp`` steps). A plain ``open(path, "w")`` exposes them to torn
reads: the PR 7 heartbeat salvage was exactly a half-written JSON file
observed mid-``json.dump``. The repo-wide idiom is write-to-temp then
``os.replace`` — POSIX rename is atomic, so readers see the old file
or the new file, never a prefix. This rule makes the idiom mandatory
under the observability and lab packages.

A finding is an ``open(path, "w"/"wb"/"x"/"xb")`` call (or
``Path.write_text``/``write_bytes``) inside a function in a scoped
module whose body never calls ``os.replace``. Sanctioned shapes:

* functions that do call ``os.replace`` — the tmp-write half of the
  idiom is the very write being inspected;
* paths the *user* chose on the command line (the opened expression
  is rooted at ``args.``): an export the caller pointed at a location
  is theirs to tear, and CLI UX would suffer from mandatory temp
  files next to arbitrary destinations;
* deliberate streaming sinks (an appending event log that is
  explicitly line-framed for salvage) carry a
  ``# lint: disable=STAR008`` with a justification comment.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.engine import FileContext, Finding, Rule

DEFAULT_SCOPES = ("repro/obs/", "repro/lab/")

_WRITE_MODES = frozenset({"w", "wb", "x", "xb", "wt", "xt"})


def _write_mode(call: ast.Call) -> bool:
    """Whether an ``open()`` call opens for (over)writing."""
    mode_expr: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode_expr = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_expr = keyword.value
    if mode_expr is None:
        return False  # default "r"
    if (isinstance(mode_expr, ast.Constant)
            and isinstance(mode_expr.value, str)):
        return mode_expr.value in _WRITE_MODES
    return False


def _rooted_at_args(node: ast.expr) -> bool:
    """True when the path expression hangs off an ``args.*`` chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Call):
            node = node.func
            continue
        node = node.value
    return isinstance(node, ast.Name) and node.id == "args"


def _path_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "file":
            return keyword.value
    return None


def _calls_os_replace(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (isinstance(target, ast.Attribute)
                and target.attr == "replace"
                and isinstance(target.value, ast.Name)
                and target.value.id == "os"):
            return True
        if (isinstance(target, ast.Name)
                and target.id == "replace"):
            return True
    return False


class AtomicPublishRule(Rule):
    code = "STAR008"
    name = "atomic-publish"
    description = (
        "a telemetry/lab file is written in place instead of "
        "tmp-write + os.replace"
    )

    def __init__(self,
                 scopes: Iterable[str] = DEFAULT_SCOPES) -> None:
        self.scopes = tuple(scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(self.scopes):
            return
        yield from self._walk(ctx, ctx.tree, enclosing=None)

    def _walk(self, ctx: FileContext, node: ast.AST,
              enclosing: Optional[ast.AST]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from self._walk(ctx, child, enclosing=child)
            else:
                if isinstance(child, ast.Call):
                    finding = self._check_call(ctx, child, enclosing)
                    if finding is not None:
                        yield finding
                yield from self._walk(ctx, child, enclosing)

    def _check_call(self, ctx: FileContext, call: ast.Call,
                    enclosing: Optional[ast.AST]) -> Optional[Finding]:
        func = call.func
        is_open = isinstance(func, ast.Name) and func.id == "open" \
            and _write_mode(call)
        is_write_method = (
            isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write_bytes")
        )
        if not (is_open or is_write_method):
            return None
        path_expr: Optional[ast.expr]
        if is_open:
            path_expr = _path_argument(call)
        else:
            path_expr = func.value  # type: ignore[union-attr]
        if path_expr is not None and _rooted_at_args(path_expr):
            return None
        if enclosing is not None and _calls_os_replace(enclosing):
            return None
        return ctx.finding(
            self.code, call,
            "non-atomic publish: write to a sibling temp file and "
            "os.replace() it into place so concurrent readers never "
            "observe a torn file",
        )
