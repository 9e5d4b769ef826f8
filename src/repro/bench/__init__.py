"""Bench harness: experiment runner and paper table/figure generators."""

from repro.bench.experiments import (
    experiment_fig10,
    experiment_fig11,
    experiment_fig12,
    experiment_fig13,
    experiment_fig14a,
    experiment_fig14b,
    experiment_table2,
    paper_grid,
    run_all,
)
from repro.bench.runner import (
    PAPER_SCHEMES,
    SCALES,
    config_for_scale,
    geometric_mean,
    run_one,
)
from repro.bench.tables import ExperimentTable, render_table, render_tables

__all__ = [
    "ExperimentTable",
    "PAPER_SCHEMES",
    "SCALES",
    "config_for_scale",
    "experiment_fig10",
    "experiment_fig11",
    "experiment_fig12",
    "experiment_fig13",
    "experiment_fig14a",
    "experiment_fig14b",
    "experiment_table2",
    "geometric_mean",
    "paper_grid",
    "render_table",
    "render_tables",
    "run_all",
    "run_one",
]
