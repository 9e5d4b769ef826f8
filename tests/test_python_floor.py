"""The declared Python floor is the lowest version CI tests.

The code needs 3.10 (``@dataclass(slots=True)`` in ``tree/node.py``,
``int.bit_count`` in ``util/bitfield.py``), so ``requires-python`` and
mypy's ``python_version`` in pyproject.toml must name the lowest version
of the ``tests`` job's matrix in .github/workflows/ci.yml. Both files
are read as text: ``tomllib`` is 3.11+.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def version(text):
    return tuple(int(part) for part in text.split("."))


def test_declared_floor_is_the_lowest_tested_version():
    pyproject = (REPO / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', pyproject,
                          re.MULTILINE)
    (mypy_target,) = re.findall(r'^python_version = "([\d.]+)"$',
                                pyproject, re.MULTILINE)
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    tests_job = ci.split("\n  tests:\n", 1)[1]
    matrix = re.search(r"python-version: \[([^\]]*)\]", tests_job)[1]
    tested = [entry.strip().strip("\"'") for entry in matrix.split(",")]
    assert floor == min(tested, key=version)
    assert mypy_target == floor
