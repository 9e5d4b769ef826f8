"""Tests for the bench harness (runner, experiments, tables, CLI)."""

import pytest

from repro.bench.characterize import experiment_characterization
from repro.bench.cli import main as cli_main
from repro.bench.runner import (
    SCALES,
    config_for_scale,
    geometric_mean,
    run_one,
)
from repro.bench.sweeps import sweep_phoenix_stride
from repro.bench.tables import ExperimentTable, render_table, render_tables
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
    return experiments.paper_grid("smoke")


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
        table = experiments.experiment_table2("smoke")
        ratios = table.column("hit_ratio")
        assert ratios == sorted(ratios)

    def test_fig14b_monotonic_in_cache_size(self):
        table = experiments.experiment_fig14b("smoke")
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

    def test_seed_reaches_a_grid_experiment(self, smoke_grid, capsys):
        """``--seed`` picks the cells of a single experiment, not only
        those of ``--experiment all``."""
        expected = render_table(experiments.experiment_fig14a(
            "smoke", experiments.paper_grid("smoke", seed=7)))
        assert expected != render_table(
            experiments.experiment_fig14a("smoke", smoke_grid))
        assert cli_main(["--experiment", "fig14a", "--scale", "smoke",
                         "--seed", "7"]) == 0
        assert expected in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, table_at", [
        ("sweep-stride", lambda seed: sweep_phoenix_stride(seed=seed)),
        ("characterize",
         lambda seed: experiment_characterization("smoke", seed=seed)),
    ])
    def test_seed_reaches_the_hand_written_experiments(
            self, experiment, table_at, capsys):
        expected = render_table(table_at(7))
        assert expected != render_table(table_at(42))
        assert cli_main(["--experiment", experiment, "--scale", "smoke",
                         "--seed", "7"]) == 0
        assert expected in capsys.readouterr().out

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


class TestLabStore:
    def test_a_campaign_holds_exactly_the_tables_cells(self, tmp_path):
        """The built-in grids run as a campaign store every cell
        ``run_all`` runs, and the tables served from that store equal
        freshly simulated ones."""
        from repro.lab import (
            LabCache,
            ResultStore,
            expand,
            load_grid,
            run_local,
        )

        store = tmp_path / "store"
        specs = []
        for name in ("paper", "table2", "fig14b"):
            specs += expand(dict(load_grid(name), scale="smoke"))
        report = run_local(ResultStore(store), specs)
        assert report.ok and report.completed == len(specs) == 71

        lab = LabCache(store)
        served = render_tables(experiments.run_all("smoke", lab=lab))
        assert lab.store.stats["lab.store.puts"] == 0
        assert lab.store.stats["lab.store.hits"] == 71
        assert served == render_tables(experiments.run_all("smoke"))
