"""Tests for the workload characterization experiment."""

from repro.bench.characterize import (
    characterize,
    experiment_characterization,
)
from repro.workloads.registry import TraceSpec

LINES = 64 * 1024


def _stats(name, lines, operations):
    return characterize(TraceSpec(name, lines, operations).ops())


class TestCharacterizeWorkload:
    def test_counts_are_consistent(self):
        stats = _stats("array", LINES, operations=100)
        assert stats["reads"] == 100       # one read per update
        assert stats["writes"] == 100
        assert stats["persists"] == 100
        assert stats["write_share"] == 0.5

    def test_footprint_bounded_by_structure(self):
        stats = _stats("queue", LINES, operations=200)
        # header + ring slots only
        assert stats["footprint_kb"] <= (1 + 4096) * 64 / 1024

    def test_queue_more_local_than_hash(self):
        """The paper's qualitative locality ordering, quantified."""
        queue = _stats("queue", LINES, operations=400)
        hash_ = _stats("hash", LINES, operations=400)
        assert queue["page_locality"] > hash_["page_locality"]

    def test_hash_is_write_heavier_than_btree(self):
        hash_ = _stats("hash", LINES, operations=400)
        btree = _stats("btree", LINES, operations=400)
        assert hash_["write_share"] > btree["write_share"]


class TestExperimentTable:
    def test_covers_all_workloads(self):
        table = experiment_characterization("smoke")
        assert len(table.rows) == 7
        for row in table.rows:
            assert 0.0 <= row["write_share"] <= 1.0
            assert 0.0 <= row["page_locality"] <= 1.0
            assert row["instr_per_access"] > 0

    def test_cli_entry(self, capsys):
        from repro.bench.cli import main as cli_main
        assert cli_main(["--experiment", "characterize",
                         "--scale", "smoke"]) == 0
        assert "characterization" in capsys.readouterr().out
