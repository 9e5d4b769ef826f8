"""The paired perf gate's verdict (``benchmarks/perf_gate.py``), on
synthetic ``perfbench/run.py`` result lines."""

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "perf_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE_WALL = [10.0, 10.4, 9.8, 10.1, 9.9]


def result(wall_s, failed=0):
    """One run's result line: ``cells_per_s`` follows ``wall_s``, the
    other metrics stay put."""
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {
                "wall_s": {"value": wall_s, "unit": "s"},
                "cells_per_s": {"value": 100 / wall_s, "unit": "1/s"},
                "setup_s": {"value": 0.15, "unit": "s"},
                "peak_rss_mb": {"value": 40.0, "unit": "MiB"},
            }}


def verdict(gate, change_wall, change_failed=0, metrics=None):
    bounds = gate.load_benchmark()["end_to_end"]
    if metrics is not None:
        bounds = [metric for metric in bounds if metric["name"] in metrics]
    pairs = [(result(base), result(change, change_failed))
             for base, change in zip(BASE_WALL, change_wall)]
    _lines, failures = gate.judge("paper_tables", pairs, bounds)
    return failures


class TestVerdict:
    def test_unchanged_code_passes(self, gate):
        assert verdict(gate, BASE_WALL) == []

    def test_wall_40_percent_worse_losing_every_pair_fails(self, gate):
        change = [value * 1.4 for value in BASE_WALL]
        assert "paper_tables wall_s" in verdict(gate, change)

    def test_same_median_gap_winning_two_pairs_passes(self, gate):
        # the change's median is 40% worse, but it won pairs 1 and 2
        change = [9.0, 9.0, 14.0, 14.14, 14.0]
        failures = verdict(gate, change, metrics=["wall_s"])
        assert failures == []

    def test_ten_percent_worse_losing_every_pair_passes(self, gate):
        change = [value * 1.1 for value in BASE_WALL]
        assert verdict(gate, change) == []

    def test_cells_per_s_40_percent_lower_losing_every_pair_fails(
            self, gate):
        change = [value / 0.6 for value in BASE_WALL]
        failures = verdict(gate, change, metrics=["cells_per_s"])
        assert failures == ["paper_tables cells_per_s"]

    def test_more_failed_cells_than_the_base_fails(self, gate):
        assert verdict(gate, BASE_WALL, change_failed=1) == [
            "paper_tables failed cells"]

    def test_report_prints_medians_quartiles_and_pairs_won(self, gate):
        bounds = gate.load_benchmark()["end_to_end"]
        pairs = [(result(base), result(base * 1.4)) for base in BASE_WALL]
        lines, _failures = gate.judge("paper_tables", pairs, bounds)
        wall = next(line for line in lines if " wall_s " in line)
        assert "base 10 [9.85, 10.25]" in wall
        assert "won 0/5" in wall and "REGRESSION" in wall
        assert len(lines) == len(bounds) + 1


class TestUsage:
    def test_unarchivable_base_exits_2_with_one_line(self, gate, capsys):
        assert gate.main(["no-such-revision-for-the-gate"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("perf_gate: cannot archive ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_run_without_a_result_line_is_reported(self, gate):
        assert gate.parse_result("") is None
        assert gate.parse_result("progress\nTraceback ...") is None
        assert gate.parse_result('noise\n{"metrics": {}}') == {
            "metrics": {}}
