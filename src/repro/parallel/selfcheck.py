"""End-to-end engine check: interrupt a campaign, resume it, verify.

Runs a small scheduler × seed grid three ways —

1. serially (the reference record set),
2. in parallel with a forced interruption after *k* completions,
3. resumed from the interrupted journal —

and asserts the exactly-once/equality contract: the resumed invocation
executes only the unfinished jobs, every job completes exactly once
across invocations, and the final record set equals the serial one
(``wall_seconds``, the only host-dependent field, excluded).

CI runs this as ``python -m repro.parallel.selfcheck --jobs 2``; it is
equally useful locally after touching the engine.

Exit status 0 means every assertion held.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from ..experiments.config import grid
from ..experiments.persistence import run_record
from ..experiments.runner import run_experiment
from .errors import CampaignInterrupted
from .journal import CheckpointJournal
from .pool import run_parallel

__all__ = ["main", "comparable"]


def comparable(record: dict) -> dict:
    """A record with its host-dependent field removed."""
    return {k: v for k, v in record.items() if k != "wall_seconds"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2, help="worker count")
    parser.add_argument(
        "--stop-after",
        type=int,
        default=2,
        help="forced interruption point (completed jobs)",
    )
    parser.add_argument(
        "--tasks", type=int, default=40, help="tasks per simulation"
    )
    parser.add_argument(
        "--dir", default=None, help="checkpoint dir (default: temp dir)"
    )
    args = parser.parse_args(argv)

    configs = grid(["edf", "fcfs"], [args.tasks], [1, 2])
    total = len(configs)
    if not 0 < args.stop_after < total:
        parser.error(f"--stop-after must lie in (0, {total})")

    print(f"selfcheck: {total} jobs, {args.jobs} workers")
    serial = [
        comparable(run_record(cfg, run_experiment(cfg).metrics, 0.0))
        for cfg in configs
    ]
    print("serial reference computed")

    workdir = Path(args.dir) if args.dir else Path(tempfile.mkdtemp())
    checkpoint = workdir / "checkpoint"
    try:
        run_parallel(
            configs,
            jobs=args.jobs,
            checkpoint_dir=checkpoint,
            stop_after=args.stop_after,
        )
    except CampaignInterrupted as exc:
        print(f"interrupted as forced: {exc}")
    else:
        print("FAIL: campaign was not interrupted")
        return 1

    state = CheckpointJournal.load(checkpoint / "journal.jsonl")
    if len(state.completed) != args.stop_after:
        print(
            f"FAIL: journal has {len(state.completed)} completions, "
            f"expected {args.stop_after}"
        )
        return 1

    result = run_parallel(
        configs, jobs=args.jobs, checkpoint_dir=checkpoint, resume=True
    )
    failures = []
    if len(result.skipped) != args.stop_after:
        failures.append(
            f"resume skipped {len(result.skipped)} jobs, "
            f"expected {args.stop_after}"
        )
    if len(result.executed) != total - args.stop_after:
        failures.append(
            f"resume executed {len(result.executed)} jobs, "
            f"expected {total - args.stop_after}"
        )
    final = CheckpointJournal.load(checkpoint / "journal.jsonl")
    if len(final.completed) != total:
        failures.append(
            f"journal has {len(final.completed)} completions, expected {total}"
        )
    parallel = [comparable(r) for r in result.records]
    if parallel != serial:
        failures.append("resumed record set differs from the serial run")

    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    print(
        f"selfcheck ok: {len(result.skipped)} resumed-from-journal + "
        f"{len(result.executed)} re-executed = {total} records, "
        "identical to serial"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
