"""The claim-to-code map resolves: every code or test citation in the
tables of docs/paper-mapping.md and DESIGN.md names a file that exists,
and every ``file.py::Name`` names a definition in that file.

Citation forms, each in backticks inside one table cell:

* ``path/file.py`` — relative to the repo root, ``src/``, ``src/repro/``
  or ``tests/``;
* ``file.py`` — a bare file name, resolved against the directory of the
  previous path in the same cell first (``mem/layout.py``, ``nvm.py``);
* ``file.py::Name`` or ``file.py::Class::method`` — ``Name`` must be a
  ``def``, a ``class`` or an assignment in that file (``::A::B`` must
  nest ``B`` in ``A``);
* ``::Name`` — a further name in the previous file of the same cell.
"""

import ast
import pathlib
import re
from functools import lru_cache
from typing import FrozenSet, List, Optional, Tuple

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOTS = (REPO, REPO / "src", REPO / "src" / "repro", REPO / "tests")
DOCUMENTS = ("docs/paper-mapping.md", "DESIGN.md")
CITATION = re.compile(r"(?P<file>[\w./-]+\.py)?(?P<names>(?:::\w+)*)")


def table_cells(text: str) -> List[str]:
    """Every cell of every Markdown table row."""
    cells: List[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("|") and not set(line) <= set("|-: "):
            cells.extend(line.strip("|").split("|"))
    return cells


def resolve(path: str, previous: Optional[pathlib.Path]
            ) -> Optional[pathlib.Path]:
    candidates = [root / path for root in ROOTS]
    if "/" not in path and previous is not None:
        candidates.insert(0, previous.parent / path)
    return next((c for c in candidates if c.is_file()), None)


@lru_cache(maxsize=None)
def definitions(path: pathlib.Path) -> FrozenSet[str]:
    """The defs, classes and assignments in ``path``: module level as
    ``name``, class bodies as ``Class.name``."""
    names = set()

    def collect(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    collect(node.body, prefix + node.name + ".")
            elif isinstance(node, ast.Assign):
                names.update(prefix + target.id for target in node.targets
                             if isinstance(target, ast.Name))
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                names.add(prefix + node.target.id)

    collect(ast.parse(path.read_text()).body, "")
    return frozenset(names)


def defines(path: pathlib.Path, names: List[str]) -> bool:
    if len(names) == 1:
        return any(name.rpartition(".")[2] == names[0]
                   for name in definitions(path))
    return ".".join(names) in definitions(path)


def check_cell(cell: str) -> Tuple[int, List[str]]:
    """(citations seen, problems) for one table cell."""
    seen = 0
    problems: List[str] = []
    previous: Optional[pathlib.Path] = None
    for quoted in re.findall(r"`([^`]+)`", cell):
        if ".py" not in quoted and not quoted.startswith("::"):
            continue
        seen += 1
        match = CITATION.fullmatch(quoted)
        if match is None:
            problems.append("`%s`: not a file.py[::Name] citation"
                            % quoted)
            continue
        if match["file"]:
            previous = resolve(match["file"], previous)
            if previous is None:
                problems.append("`%s`: no such file" % quoted)
                continue
        elif previous is None:
            problems.append("`%s`: no file earlier in the cell" % quoted)
            continue
        names = match["names"].split("::")[1:]
        if names and not defines(previous, names):
            problems.append("`%s`: %s defines no %s" % (
                quoted, previous.relative_to(REPO), "::".join(names)))
    return seen, problems


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_cited_file_and_name_exists(document):
    seen = 0
    problems: List[str] = []
    for cell in table_cells((REPO / document).read_text()):
        cell_seen, cell_problems = check_cell(cell)
        seen += cell_seen
        problems += cell_problems
    assert seen >= 40, "only %d citations parsed" % seen
    assert not problems, "\n".join(problems)
