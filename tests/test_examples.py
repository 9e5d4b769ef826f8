"""Smoke tests: every example script runs end to end."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[path.stem for path in EXAMPLES]
)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), "examples must narrate what they do"


def test_example_inventory():
    """The README promises at least these examples."""
    names = {path.stem for path in EXAMPLES}
    assert {"quickstart", "crash_recovery_demo", "attack_detection",
            "write_traffic_comparison"} <= names
