"""Tests for the bench harness (runner, experiments, tables, CLI)."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.runner import (
    SCALES,
    config_for_scale,
    geometric_mean,
    run_grid,
    run_one,
)
from repro.bench.tables import ExperimentTable, render_table
from repro.bench import experiments


class TestRunner:
    def test_scales_defined(self):
        assert {"smoke", "default", "large"} <= set(SCALES)

    def test_config_for_scale(self):
        config = config_for_scale("smoke")
        assert config.memory_bytes == SCALES["smoke"].memory_bytes

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            config_for_scale("galactic")

    def test_run_one_produces_result(self):
        config = config_for_scale("smoke")
        result = run_one(config, "star", "array", operations=50)
        assert result.scheme == "star"
        assert result.workload == "array"
        assert result.nvm_writes > 0

    def test_run_one_with_recovery(self):
        config = config_for_scale("smoke")
        result = run_one(config, "star", "array", operations=50,
                         crash_and_recover=True)
        assert result.recovery is not None
        assert result.recovery.verified

    def test_run_grid_covers_all_pairs(self):
        config = config_for_scale("smoke")
        grid = run_grid(config, schemes=["wb", "star"],
                        workloads=["array"], scale="smoke",
                        operations={"array": 40})
        assert set(grid) == {("wb", "array"), ("star", "array")}

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 2.0]) == pytest.approx(2.0)


class TestTables:
    def test_render_contains_rows_and_notes(self):
        table = ExperimentTable(
            experiment_id="T", title="demo",
            columns=["a", "b"], notes=["hello"],
        )
        table.add_row(a=1, b=0.5)
        text = render_table(table)
        assert "T — demo" in text
        assert "0.500" in text
        assert "note: hello" in text

    def test_column_accessor(self):
        table = ExperimentTable("T", "demo", ["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]


@pytest.fixture(scope="module")
def smoke_grid():
    return experiments.paper_grid(
        "smoke", workloads=["array", "hash"]
    )


class TestExperiments:
    def test_fig10_structure(self, smoke_grid):
        table = experiments.experiment_fig10("smoke", smoke_grid)
        assert table.experiment_id == "Fig. 10"
        workloads = table.column("workload")
        assert "array" in workloads and "hash" in workloads

    def test_fig11_star_beats_anubis(self, smoke_grid):
        table = experiments.experiment_fig11("smoke", smoke_grid)
        for row in table.rows:
            assert row["star"] < row["anubis"] <= row["strict"]

    def test_fig11_wb_is_unity(self, smoke_grid):
        table = experiments.experiment_fig11("smoke", smoke_grid)
        assert all(row["wb"] == pytest.approx(1.0)
                   for row in table.rows)

    def test_fig12_ordering(self, smoke_grid):
        table = experiments.experiment_fig12("smoke", smoke_grid)
        for row in table.rows:
            assert row["star"] >= row["anubis"] >= row["strict"]

    def test_fig13_star_cheapest_secure_scheme(self, smoke_grid):
        table = experiments.experiment_fig13("smoke", smoke_grid)
        for row in table.rows:
            assert row["star"] < row["anubis"] < row["strict"]

    def test_fig14a_fractions_in_range(self, smoke_grid):
        table = experiments.experiment_fig14a("smoke", smoke_grid)
        for row in table.rows:
            assert 0.0 <= row["dirty_fraction"] <= 1.0

    def test_table2_hit_ratio_monotonic(self):
        table = experiments.experiment_table2(
            "smoke", adr_line_counts=(2, 8, 32), workloads=["hash"],
        )
        ratios = table.column("hit_ratio")
        assert ratios == sorted(ratios)

    def test_fig14b_monotonic_in_cache_size(self):
        table = experiments.experiment_fig14b(
            "smoke", cache_sizes_bytes=(4 * 1024, 8 * 1024),
            workload="hash",
        )
        projected = [row for row in table.rows
                     if row["kind"] == "projected"]
        star_times = [row["star_seconds"] for row in projected]
        assert star_times == sorted(star_times)
        # paper shape: STAR is slower to recover than Anubis (it reads
        # 10 lines per stale node) but stays well under a second
        four_mb = projected[-1]
        assert four_mb["star_seconds"] > four_mb["anubis_seconds"]
        assert four_mb["star_seconds"] < 1.0


class TestCli:
    def test_single_experiment(self, capsys):
        assert cli_main(["--experiment", "fig14a",
                         "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 14(a)" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["--experiment", "fig99"])

    @pytest.mark.parametrize("flag", ["--json", "--markdown"])
    def test_unwritable_output_exits_2_before_running(
            self, flag, tmp_path, assert_usage_error):
        path = str(tmp_path / "missing" / "out")
        code = cli_main(["--experiment", "fig14a", "--scale", "smoke",
                         flag, path])
        assert_usage_error(code, "star-bench", path)
