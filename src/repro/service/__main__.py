"""Service-mode CLI: stream a workload through the scheduler service.

Usage::

    python -m repro.service --scheduler adaptive-rl --num-tasks 10000 \\
        --arrival-rate 4 --max-queue 256 --admission-policy block \\
        --journal-dir /tmp/svc --serve-metrics 0

    python -m repro.service --replay trace.jsonl --journal-dir /tmp/svc
    python -m repro.service --journal-dir /tmp/svc --resume

The service admits tasks from a live generator (``--num-tasks`` /
``--arrival-rate``) or a trace file (``--replay``, JSONL/JSON/SWF), runs
them through
the simulation kernel in bounded slices, and drains gracefully on
producer exhaustion, ``--drain-after``, SIGINT, or SIGTERM — exit code
0 means every admitted task completed.  With ``--journal-dir`` every
admission decision is journaled, and fsynced before any of its tasks
is simulated (one fsync per slice); after a crash, ``--resume``
recovers the admitted tasks and continues the producer exactly where
the durable journal left off (re-pass ``--replay FILE`` when the
original run replayed a trace).  The final line is machine-parseable::

    SERVICE-REPORT {"state":"stopped","admitted":10000,...}
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from ..experiments.config import ExperimentConfig
from ..obs import (
    DEFAULT_SAMPLE_EVERY,
    MetricsRegistry,
    SeriesBank,
    Telemetry,
    use,
)
from ..sim.rng import RandomStreams
from ..workload.generator import WorkloadGenerator
from ..workload.traces import iter_workload
from .engine import DEFAULT_SLICE
from .errors import ServiceError
from .ingress import ADMISSION_POLICIES
from .journal import AdmissionJournal
from .lifecycle import SchedulerService

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    work = parser.add_argument_group("workload")
    work.add_argument(
        "--scheduler", default="adaptive-rl",
        help="scheduler to serve (default: adaptive-rl)",
    )
    work.add_argument("--seed", type=int, default=1, help="RNG seed")
    work.add_argument(
        "--num-tasks", type=int, default=1000,
        help="tasks the live generator streams (default: 1000)",
    )
    work.add_argument(
        "--arrival-rate", type=float, default=None, metavar="R",
        help="mean arrivals per simulated time unit (sets mean "
        "inter-arrival 1/R; default: the batch arrival-period calibration)",
    )
    work.add_argument(
        "--replay", metavar="FILE", default=None,
        help="stream tasks from a trace (.jsonl, .json, or .swf) instead "
        "of the generator",
    )
    work.add_argument(
        "--failure-mtbf", type=float, default=None, metavar="T",
        help="inject node crash-stop failures with this mean time "
        "between failures (simulated time; default: none). Ignored on "
        "--resume — the journal's stored config governs",
    )
    work.add_argument(
        "--failure-mttr", type=float, default=50.0, metavar="T",
        help="mean time to repair a failed node (default: 50)",
    )
    svc = parser.add_argument_group("service")
    svc.add_argument(
        "--max-queue", type=int, default=1024,
        help="ingress queue bound (default: 1024)",
    )
    svc.add_argument(
        "--admission-policy", choices=ADMISSION_POLICIES, default="block",
        help="what happens at the bound (default: block)",
    )
    svc.add_argument(
        "--slice", type=float, default=DEFAULT_SLICE, metavar="T",
        help=f"engine slice length in simulated time (default: {DEFAULT_SLICE:g})",
    )
    svc.add_argument(
        "--drain-after", type=float, default=None, metavar="T",
        help="stop admitting once the next arrival exceeds simulated "
        "time T, then drain",
    )
    svc.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="durable admission log directory (enables --resume)",
    )
    svc.add_argument(
        "--resume", action="store_true",
        help="recover from the journal in --journal-dir: re-run admitted "
        "tasks, continue the producer exactly-once",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--serve-metrics", type=int, metavar="PORT", default=None,
        help="serve live /metrics, /series.json and /dashboard on PORT "
        "(0 picks an ephemeral port)",
    )
    obs.add_argument(
        "--sample-every", type=float, metavar="T", default=None,
        help="flight-recorder cadence in simulated time "
        f"(default {DEFAULT_SAMPLE_EVERY:g} when armed)",
    )
    obs.add_argument(
        "--series-out", metavar="FILE", default=None,
        help="write the sampled series bank as JSON on exit (- for stdout)",
    )
    obs.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.journal_dir is None:
        parser.error("--resume requires --journal-dir")
    if args.arrival_rate is not None and not 0 < args.arrival_rate < math.inf:
        parser.error("--arrival-rate must be positive and finite")
    if args.sample_every is not None and not 0 < args.sample_every < math.inf:
        parser.error("--sample-every must be positive and finite")
    # An infinite MTBF is allowed: it runs like no failures.
    if args.failure_mtbf is not None and not args.failure_mtbf > 0:
        parser.error("--failure-mtbf must be positive")
    if not 0 < args.failure_mttr < math.inf:
        parser.error("--failure-mttr must be positive and finite")

    if args.resume:
        # The journal's stored config governs a resumed life; flags that
        # shape the workload are ignored by design (exactly-once would
        # be meaningless against a different task stream).
        try:
            config = ExperimentConfig.from_dict(
                AdmissionJournal.load(args.journal_dir).config
            )
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    elif args.arrival_rate is not None:
        config = ExperimentConfig(
            scheduler=args.scheduler,
            seed=args.seed,
            num_tasks=args.num_tasks,
            arrival_period=None,
            mean_interarrival=1.0 / args.arrival_rate,
            failure_mtbf=args.failure_mtbf,
            failure_mttr=args.failure_mttr,
        )
    else:
        config = ExperimentConfig(
            scheduler=args.scheduler,
            seed=args.seed,
            num_tasks=args.num_tasks,
            failure_mtbf=args.failure_mtbf,
            failure_mttr=args.failure_mttr,
        )

    if args.replay is not None:
        replay_path = args.replay

        def producer(engine):
            return iter_workload(replay_path)

    else:

        def producer(engine):
            # A fresh RandomStreams on the same seed: the workload
            # streams are name-keyed and disjoint from the system and
            # scheduler streams, so this generator emits the exact task
            # sequence the batch runner would have drawn.
            return WorkloadGenerator(
                engine.workload_spec(), RandomStreams(engine.config.seed)
            ).iter_tasks()

    want_series = (
        args.serve_metrics is not None
        or args.series_out is not None
        or args.sample_every is not None
    )
    telemetry = Telemetry(
        metrics=MetricsRegistry(),
        series=SeriesBank() if want_series else None,
        sample_every=args.sample_every,
    )

    service = SchedulerService(
        config,
        producer,
        max_queue=args.max_queue,
        policy=args.admission_policy,
        journal_dir=args.journal_dir,
        resume=args.resume,
        telemetry=telemetry,
        slice_len=args.slice,
        drain_after=args.drain_after,
    )

    server = None
    if args.serve_metrics is not None:
        from ..obs import MetricsServer

        server = MetricsServer(telemetry, port=args.serve_metrics).start()
        print(
            f"serving live telemetry on http://127.0.0.1:{server.port} "
            "(/metrics, /series.json, /dashboard)",
            flush=True,
        )

    rc = 0
    try:
        with use(telemetry):
            report = service.run(install_signal_handlers=True)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
        report = None
    finally:
        if server is not None:
            server.stop()

    if report is not None:
        if not args.quiet:
            _print_summary(report)
        print("SERVICE-REPORT " + json.dumps(report.to_dict()), flush=True)
        if report.state != "stopped":
            rc = 1
    if args.series_out is not None and telemetry.series is not None:
        text = json.dumps(telemetry.series.as_dict())
        if args.series_out == "-":
            sys.stdout.write(text + "\n")
        else:
            Path(args.series_out).write_text(text, encoding="utf-8")
            if not args.quiet:
                print(f"series -> {args.series_out}")
    return rc


def _print_summary(report) -> None:
    if report.already_drained:
        print(
            f"journal already drained: {report.admitted} admitted, "
            f"{report.completed} completed — nothing to resume"
        )
        return
    line = (
        f"{report.scheduler}: {report.admitted} admitted "
        f"({report.rejected} rejected, {report.shed} shed, "
        f"{report.backpressure_waits} backpressure waits, "
        f"queue high-water {report.depth_high}), "
        f"{report.completed}/{report.tasks_injected} completed "
        f"by t={report.sim_time:.1f}"
    )
    if report.failures_injected or report.repairs_completed:
        line += (
            f" [{report.failures_injected} failures, "
            f"{report.repairs_completed} repairs, "
            f"{report.tasks_resubmitted} resubmissions]"
        )
    if report.resumed:
        line += f" [resumed; {report.recovered} tasks recovered]"
    print(line)
    m = report.metrics
    if m is not None:
        print(
            f"  AVERT={m.avert:.2f}  ECS={m.ecs:.4f}  "
            f"success={m.success_rate:.3f}  makespan={m.makespan:.1f}"
        )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
