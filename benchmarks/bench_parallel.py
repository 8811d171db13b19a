"""Parallel engine bench: serial vs ``jobs=2/4`` campaign wall-clock.

Runs the same 4-seed Adaptive-RL grid serially and through the
:mod:`repro.parallel` engine at 2 and 4 workers, asserting record
equality along the way, and writes the three median wall-clocks to
``benchmarks/out/parallel_wallclock.json`` so future PRs have a perf
trajectory baseline (a committed reference snapshot lives in
``benchmarks/baselines/``).

A speedup is only reported where the host can deliver one: with
fewer than two CPUs, or for a job count above the CPU count, the
workers time-share cores, so ``speedup_vs_serial`` holds ``null`` for
that entry (the whole field, on one CPU) and ``speedup_reason`` says
why.  Those timings still show the process-pool overhead.

Run as a bench (``pytest benchmarks/bench_parallel.py --benchmark-only``)
or directly (``python benchmarks/bench_parallel.py``) to refresh the
baseline file.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.experiments.config import grid
from repro.experiments.figures import run_configs
from repro.parallel import run_parallel

#: The ISSUE's bench shape: one scheduler, one task count, four seeds.
BENCH_GRID = dict(schedulers=["adaptive-rl"], task_counts=[400], seeds=[1, 2, 3, 4])

OUT_PATH = Path(__file__).parent / "out" / "parallel_wallclock.json"

#: Each leg takes about a second, so one timing is mostly host noise:
#: the legs run this many times, interleaved, and each keeps its median.
REPEATS = 5


def _comparable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_seconds"}


def speedups(timings: dict, cpus: int) -> dict:
    """``speedup_vs_serial`` plus ``speedup_reason`` for what is withheld.

    *timings* maps ``"serial"`` and ``"jobs<N>"`` to wall-clock seconds.
    """
    if cpus < 2:
        return {
            "speedup_vs_serial": None,
            "speedup_reason": (
                f"cpu_count is {cpus}: the workers share one CPU, so the "
                "parallel timings only measure process-pool overhead"
            ),
        }
    ratios: dict = {}
    reasons: dict = {}
    for key, seconds in timings.items():
        if key == "serial":
            continue
        workers = int(key[len("jobs"):])
        if workers > cpus:
            ratios[key] = None
            reasons[key] = (
                f"{workers} workers on {cpus} CPUs time-share cores; "
                "no speedup is claimed above the CPU count"
            )
        else:
            ratios[key] = round(timings["serial"] / seconds, 3)
    return {"speedup_vs_serial": ratios, "speedup_reason": reasons}


def run_comparison() -> dict:
    """Time serial vs jobs=2 vs jobs=4 on the 4-seed grid; verify records."""
    configs = grid(**BENCH_GRID)
    samples: dict = {"serial": [], "jobs2": [], "jobs4": []}

    for _ in range(REPEATS):
        t0 = time.perf_counter()
        serial = run_configs(configs)
        samples["serial"].append(time.perf_counter() - t0)
        reference = [_comparable(view.record) for view in serial.values()]

        for workers in (2, 4):
            t0 = time.perf_counter()
            result = run_parallel(configs, jobs=workers)
            samples[f"jobs{workers}"].append(time.perf_counter() - t0)
            assert [_comparable(r) for r in result.records] == reference, (
                f"jobs={workers} records diverged from serial"
            )

    timings = {k: statistics.median(v) for k, v in samples.items()}
    cpus = os.cpu_count() or 1
    payload = {
        "grid": BENCH_GRID,
        "cpu_count": cpus,
        "repeats": REPEATS,
        "wall_seconds": {k: round(v, 3) for k, v in timings.items()},
    }
    payload.update(speedups(timings, cpus))
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=1))
    return payload


def bench_parallel_vs_serial(once):
    payload = once(run_comparison)
    assert set(payload["wall_seconds"]) == {"serial", "jobs2", "jobs4"}


if __name__ == "__main__":  # pragma: no cover - manual baseline refresh
    print(json.dumps(run_comparison(), indent=1))
