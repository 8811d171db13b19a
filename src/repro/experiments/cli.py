"""Command-line figure regeneration.

Usage::

    python -m repro.experiments.cli                 # all figures, full scale
    python -m repro.experiments.cli fig7 fig8       # selected figures
    python -m repro.experiments.cli --quick         # reduced scale (CI)
    python -m repro.experiments.cli --seeds 1 2 3   # multi-seed CIs

Observability (see docs/observability.md)::

    ... fig7 --quick --trace run.jsonl         # JSONL event trace
    ... fig7 --quick --chrome-trace run.json   # chrome://tracing view
    ... fig7 --quick --metrics-out m.json      # counters/gauges/histograms
    ... fig7 --quick --metrics-text m.prom     # Prometheus exposition text
    ... fig7 --quick --profile                 # hot-path wall-time table

Flight recorder (time-series telemetry; see docs/observability.md)::

    ... fig7 --quick --dashboard run.html      # self-contained HTML report
    ... fig7 --quick --series-out series.json  # raw sampled series bank
    ... fig7 --quick --sample-every 25         # sampling cadence (sim time)
    ... fig7 --quick --serve-metrics 9100      # live /metrics + /dashboard

``--metrics-out -`` and ``--dashboard -`` (and ``--metrics-text -``,
``--series-out -``) write to stdout; parent directories of output paths
are created when missing.

Parallel execution (see docs/parallel.md)::

    ... --jobs 4                               # fan sweeps over 4 workers
    ... --jobs 4 --checkpoint-dir ck/          # journal completions
    ... --jobs 4 --checkpoint-dir ck/ --resume # skip journaled jobs

The selected figures are planned together: each distinct run they
need executes once (Figs 9/10 reuse Fig 7/8 runs whenever their task
counts match), and ``--jobs`` runs them all as one campaign, longest
first.

Prints each figure as an ASCII table followed by its paper-shape checks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from ..obs import (
    DEFAULT_SAMPLE_EVERY,
    InMemoryRecorder,
    MetricsRegistry,
    Profiler,
    SeriesBank,
    Telemetry,
    export_chrome_trace,
    save_jsonl,
    use,
)
from .figures import (
    ALL_FIGURES,
    HEAVY_TASKS,
    LIGHT_TASKS,
    PAPER_TASK_COUNTS,
    FigurePlan,
    run_configs,
)
from .reporting import render_figure, shape_checks

QUICK_TASK_COUNTS = (500, 1500, 3000)
QUICK_HEAVY = 2000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figures",
        nargs="*",
        default=[],
        help=f"figure ids to regenerate (default: all of {', '.join(ALL_FIGURES)})",
    )
    parser.add_argument("--quick", action="store_true", help="reduced scale")
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1], help="seeds to average"
    )
    parser.add_argument(
        "--arrival-process",
        choices=("poisson", "mmpp", "diurnal"),
        default=None,
        help="override the arrival process for every figure run "
        "(default: the paper's poisson)",
    )
    parser.add_argument(
        "--workload-trace",
        metavar="FILE",
        default=None,
        help="replay a frozen workload trace (.json/.jsonl/.swf) in every "
        "figure run instead of synthesizing workloads — task-count sweeps "
        "then vary only the scheduler, not the input",
    )
    parser.add_argument(
        "--save-dir",
        default=None,
        help="directory to write each figure's data as JSON",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace of every simulation event to FILE",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="write the trace in chrome://tracing JSON format to FILE",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry (counters/gauges/histograms) to FILE",
    )
    parser.add_argument(
        "--metrics-text",
        metavar="FILE",
        default=None,
        help="write the metrics registry as Prometheus exposition text "
        "to FILE (- for stdout)",
    )
    parser.add_argument(
        "--sample-every",
        type=float,
        metavar="T",
        default=None,
        help="flight-recorder sampling cadence in simulated time units "
        "(arms the recorder; default cadence "
        f"{DEFAULT_SAMPLE_EVERY:g} when another recorder flag arms it)",
    )
    parser.add_argument(
        "--series-out",
        metavar="FILE",
        default=None,
        help="write the flight recorder's sampled series bank as JSON "
        "to FILE (- for stdout)",
    )
    parser.add_argument(
        "--dashboard",
        metavar="FILE",
        default=None,
        help="render the run as a self-contained HTML dashboard "
        "to FILE (- for stdout)",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        default=None,
        help="serve live /metrics, /series.json and /dashboard over "
        "http.server on PORT (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile scheduler hot paths and print a wall-time table",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the figure runs (default: 1, serial)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal run completions in DIR/journal.jsonl",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip runs already journaled under --checkpoint-dir "
        "(same figures and seeds as the interrupted invocation)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="run every simulation under the invariant auditor "
        "(repro.validate); any invariant violation aborts the run",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")

    wanted = args.figures or list(ALL_FIGURES)
    unknown = [f for f in wanted if f not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)}")

    if not args.strict:
        return _main(args, parser, wanted)
    from ..validate import strict_scope

    # Restored when main returns or raises; --jobs workers started in
    # the scope inherit it through the environment.
    with strict_scope():
        print("strict mode: invariant auditor attached to every run")
        return _main(args, parser, wanted)


def _main(args, parser: argparse.ArgumentParser, wanted: list[str]) -> int:
    """Everything :func:`main` does after parsing and strict mode."""
    if args.sample_every is not None and not 0 < args.sample_every < math.inf:
        parser.error("--sample-every must be positive and finite")

    workload_overrides = {}
    if args.workload_trace is not None:
        import os

        if not os.path.exists(args.workload_trace):
            parser.error(f"--workload-trace: no such file: {args.workload_trace}")
        print(f"workload: replaying trace {args.workload_trace} in every run")
    if args.arrival_process is not None:
        workload_overrides["arrival_process"] = args.arrival_process
        print(f"workload: arrival process overridden to {args.arrival_process}")
    # The plan puts both into every config it builds; --jobs workers get
    # the configs by value.
    plan = FigurePlan(
        tuple(wanted),
        task_counts=QUICK_TASK_COUNTS if args.quick else PAPER_TASK_COUNTS,
        seeds=tuple(args.seeds),
        heavy_tasks=QUICK_HEAVY if args.quick else HEAVY_TASKS,
        light_tasks=LIGHT_TASKS,
        workload_overrides=workload_overrides,
        workload_trace=args.workload_trace,
    )

    # Fail before the (potentially minutes-long) runs, not after, if an
    # output path cannot be written; create missing parent directories.
    from pathlib import Path

    for path in (
        args.trace,
        args.chrome_trace,
        args.metrics_out,
        args.metrics_text,
        args.series_out,
        args.dashboard,
    ):
        if path is None or path == "-":
            continue
        try:
            parent = Path(path).parent
            if str(parent) not in ("", "."):
                parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a"):
                pass
        except OSError as exc:
            parser.error(f"cannot write {path}: {exc}")

    want_trace = args.trace is not None or args.chrome_trace is not None
    want_metrics = (
        args.metrics_out is not None
        or args.metrics_text is not None
        or args.serve_metrics is not None
    )
    # Any flag that consumes the series bank arms the flight recorder.
    want_series = (
        args.series_out is not None
        or args.dashboard is not None
        or args.sample_every is not None
        or args.serve_metrics is not None
    )
    telemetry = Telemetry(
        trace=InMemoryRecorder() if want_trace else None,
        metrics=MetricsRegistry() if want_metrics else None,
        profiler=Profiler() if args.profile else None,
        series=SeriesBank() if want_series else None,
        sample_every=args.sample_every,
    )
    if args.jobs > 1 and telemetry.active:
        print(
            "note: with --jobs > 1 every run executes in a worker "
            "process; sampled series merge back into this process's "
            "flight recorder, but trace/metrics/profile cover no run."
        )

    server = None
    if args.serve_metrics is not None:
        from ..obs import MetricsServer

        server = MetricsServer(telemetry, port=args.serve_metrics).start()
        print(
            f"serving live telemetry on http://127.0.0.1:{server.port} "
            "(/metrics, /series.json, /dashboard)"
        )

    try:
        with use(telemetry):
            rc = _run_figures(args, plan)
    finally:
        if server is not None:
            server.stop()

    def _emit(path: str, text: str, label: str) -> None:
        if path == "-":
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        else:
            Path(path).write_text(text, encoding="utf-8")
            print(f"{label} -> {path}")

    if args.trace is not None:
        n = save_jsonl(telemetry.trace.events(), args.trace)
        print(f"trace: {n} events -> {args.trace}")
    if args.chrome_trace is not None:
        export_chrome_trace(telemetry.trace.events(), args.chrome_trace)
        print(f"chrome trace -> {args.chrome_trace}")
    if args.metrics_out is not None:
        _emit(
            args.metrics_out,
            json.dumps(telemetry.metrics.as_dict(), indent=1),
            f"metrics: {len(telemetry.metrics)} instruments",
        )
    if args.metrics_text is not None:
        from ..obs import render_prometheus

        _emit(
            args.metrics_text,
            render_prometheus(telemetry.metrics),
            f"exposition: {len(telemetry.metrics)} instruments",
        )
    if args.series_out is not None:
        _emit(
            args.series_out,
            json.dumps(telemetry.series.as_dict()),
            f"series: {len(telemetry.series)} recorded",
        )
    if args.dashboard is not None:
        from ..obs import render_dashboard

        _emit(
            args.dashboard,
            render_dashboard(
                telemetry.series,
                metrics=telemetry.metrics,
                title="repro run dashboard",
            ),
            f"dashboard: {len(telemetry.series)} series",
        )
    if args.profile:
        print()
        print(telemetry.profiler.render())
    return rc


def _run_figures(args, plan: FigurePlan) -> int:
    """Run *plan* and build its figures; returns the process exit code."""
    configs = plan.configs()
    t0 = time.perf_counter()
    runs = run_configs(
        configs,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(f"campaign: {len(configs)} distinct runs in {time.perf_counter() - t0:.1f}s")
    print()

    figs = []
    for fid in plan.figure_ids:
        fig = plan.figure(fid, runs)
        figs.append(fig)
        if args.save_dir is not None:
            from pathlib import Path

            from .persistence import save_figure

            out = Path(args.save_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_figure(fig, out / f"{fid}.json")
        print(render_figure(fig))
        for check in shape_checks(fig):
            print(str(check))
        print()

    failed = [
        c for fig in figs for c in shape_checks(fig) if not c.passed
    ]
    print(f"shape checks: {sum(len(shape_checks(f)) for f in figs) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
