"""``star-bench``: regenerate the paper's evaluation from the command
line.

Examples::

    star-bench                      # every experiment, default scale
    star-bench --experiment fig11   # one experiment
    star-bench --scale smoke        # fast smoke-scale run
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.bench import characterize, experiments, sweeps
from repro.bench.tables import render_table
from repro.tools import output_error


def _sweep_stride(scale, seed, lab):
    # a fixed small machine: the persist stride is no grid axis
    return sweeps.sweep_phoenix_stride(seed=seed)


def _characterize(scale, seed, lab):
    # trace statistics run no cells
    return characterize.experiment_characterization(scale, seed=seed)


_EXPERIMENTS = {
    "fig10": experiments.experiment_fig10,
    "fig11": experiments.experiment_fig11,
    "fig12": experiments.experiment_fig12,
    "fig13": experiments.experiment_fig13,
    "table2": experiments.experiment_table2,
    "fig14a": experiments.experiment_fig14a,
    "fig14b": experiments.experiment_fig14b,
    "sweep-cache": sweeps.sweep_metadata_cache,
    "sweep-stride": _sweep_stride,
    "sweep-fanout": sweeps.sweep_bitmap_fanout,
    "characterize": _characterize,
}
"""Each entry takes ``scale``, ``seed`` and ``lab`` as keywords."""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="star-bench",
        description="Reproduce the STAR (HPCA 2021) evaluation tables "
                    "and figures.",
    )
    parser.add_argument(
        "--experiment", choices=sorted(_EXPERIMENTS) + ["all"],
        default="all", help="which experiment to run (default: all)",
    )
    parser.add_argument(
        "--scale", choices=("smoke", "default", "large"),
        default="default", help="experiment scale (default: default)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload RNG seed",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="additionally dump the reproduced tables as JSON",
    )
    parser.add_argument(
        "--markdown", metavar="PATH", default=None,
        help="additionally write a Markdown report of the tables",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render ASCII bar charts alongside the tables",
    )
    parser.add_argument(
        "--svg", metavar="DIR", default=None,
        help="additionally write one SVG bar chart per experiment",
    )
    parser.add_argument(
        "--layout", action="store_true",
        help="print the memory layout (Table I companion) and exit",
    )
    parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="additionally run one instrumented STAR crash+recovery at "
             "the chosen scale and write metrics.json / metrics.prom / "
             "events.jsonl / spans.txt / trace.json into DIR",
    )
    parser.add_argument(
        "--lab", metavar="DIR", default=None,
        help="serve experiment cells from (and commit misses to) the "
             "lab result store at DIR — see star-lab",
    )
    args = parser.parse_args(argv)
    status = output_error("star-bench", args.json, args.markdown)
    if status:
        return status

    lab = None
    if args.lab:
        from repro.lab.bridge import LabCache

        lab = LabCache(args.lab)

    if args.layout:
        from repro.bench.runner import config_for_scale
        from repro.mem.layout import MemoryLayout

        layout = MemoryLayout.from_config(config_for_scale(args.scale))
        for key, value in layout.summary().items():
            print("%-24s %s" % (key, value))
        return 0

    # perf_counter: monotonic, immune to wall-clock adjustments
    started = time.perf_counter()
    if args.experiment == "all":
        tables = experiments.run_all(scale=args.scale, seed=args.seed,
                                     lab=lab)
    else:
        tables = [_EXPERIMENTS[args.experiment](
            scale=args.scale, seed=args.seed, lab=lab)]
    for table in tables:
        print(render_table(table))
        if args.chart:
            from repro.bench.report import render_bar_chart

            label = table.columns[0]
            numeric = [
                column for column in table.columns[1:]
                if any(isinstance(row.get(column), (int, float))
                       and not isinstance(row.get(column), bool)
                       for row in table.rows)
            ]
            if numeric:
                print()
                print(render_bar_chart(table, label, numeric))
        print()
    if args.svg:
        import os
        import re

        from repro.bench.svgchart import save_svg

        os.makedirs(args.svg, exist_ok=True)
        for table in tables:
            slug = re.sub(r"[^a-z0-9]+", "_",
                          table.experiment_id.lower()).strip("_")
            path = os.path.join(args.svg, slug + ".svg")
            save_svg(table, path)
            print("wrote %s" % path)
    if args.markdown:
        from repro.bench.report import render_markdown_report

        with open(args.markdown, "w") as handle:
            handle.write(render_markdown_report(tables))
        print("wrote %s" % args.markdown)
    if args.json:
        payload = [
            {
                "experiment": table.experiment_id,
                "title": table.title,
                "columns": table.columns,
                "rows": table.rows,
                "notes": table.notes,
            }
            for table in tables
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print("wrote %s" % args.json)
    if args.telemetry:
        _dump_telemetry(args.telemetry, scale=args.scale,
                        seed=args.seed)
    print("completed in %.1fs" % (time.perf_counter() - started))
    return 0


def _dump_telemetry(directory: str, scale: str, seed: int) -> None:
    """One instrumented STAR run: JSON + Prometheus + JSONL exports."""
    import os

    from repro.bench.runner import config_for_scale, SCALES
    from repro.obs.export import to_json, to_prometheus_text
    from repro.obs.render import render_span_tree
    from repro.obs.tracing import write_chrome_trace
    from repro.sim.machine import Machine
    from repro.workloads.registry import TraceSpec

    os.makedirs(directory, exist_ok=True)
    config = config_for_scale(scale)
    machine = Machine(config, scheme="star", profile=True)
    events_path = os.path.join(directory, "events.jsonl")
    machine.stats.registry.events.open_sink(events_path)
    machine.run(TraceSpec("hash", config.num_data_lines,
                          SCALES[scale].micro_operations, seed).ops())
    machine.crash()
    machine.recover()
    machine.stats.registry.events.close_sink()

    json_path = os.path.join(directory, "metrics.json")
    with open(json_path, "w") as handle:
        handle.write(to_json(machine.stats.registry))
    prom_path = os.path.join(directory, "metrics.prom")
    with open(prom_path, "w") as handle:
        handle.write(to_prometheus_text(machine.stats.registry))
        handle.write(to_prometheus_text(
            machine.recovery_stats.registry,
            namespace="star_recovery",
        ))
    spans_path = os.path.join(directory, "spans.txt")
    with open(spans_path, "w") as handle:
        handle.write(render_span_tree(
            machine.recovery_stats.registry.tracer.to_list()
        ) + "\n")
    trace_path = os.path.join(directory, "trace.json")
    write_chrome_trace(trace_path, [machine.stats.registry.tracer,
                                    machine.recovery_stats.registry.tracer])
    for path in (events_path, json_path, prom_path, spans_path,
                 trace_path):
        print("wrote %s" % path)


if __name__ == "__main__":
    sys.exit(main())
