"""Generic parameter-sweep helpers for ad-hoc studies and ablations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..metrics.stats import MeanCI, mean_ci
from .config import ExperimentConfig
from .figures import _run_grid

__all__ = ["SweepPoint", "sweep", "ablation_table"]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics at one sweep coordinate.

    ``runs`` holds one :class:`~repro.parallel.jobs.RecordView` per
    seed; each exposes the headline metric attributes of its run's
    record (``avert``, ``ecs``, ``scheduler``, ...).
    """

    label: str
    avert: MeanCI
    ecs: MeanCI
    success_rate: MeanCI
    utilization: MeanCI
    runs: tuple


def _aggregate(label: str, runs: Sequence) -> SweepPoint:
    return SweepPoint(
        label=label,
        avert=mean_ci([m.avert for m in runs]),
        ecs=mean_ci([m.ecs for m in runs]),
        success_rate=mean_ci([m.success_rate for m in runs]),
        utilization=mean_ci([m.utilization for m in runs]),
        runs=tuple(runs),
    )


def sweep(
    base: ExperimentConfig,
    variations: Mapping[str, Callable[[ExperimentConfig], ExperimentConfig]],
    seeds: Sequence[int] = (1,),
    jobs: int = 1,
) -> dict[str, SweepPoint]:
    """Run *base* under each named variation across *seeds*.

    ``variations`` maps a label to a function deriving a config from the
    base; the identity function gives the control point.  The sweep
    plans its (variation × seed) configs and runs each distinct one once
    through :func:`~repro.experiments.figures.run_configs` — in process,
    or over the :mod:`repro.parallel` engine with ``jobs > 1`` — so two
    labels whose derived configs coincide share one run.
    """
    plan = {
        label: [vary(base.with_overrides(seed=seed)) for seed in seeds]
        for label, vary in variations.items()
    }
    runs = _run_grid(plan, jobs)
    return {label: _aggregate(label, runs[label]) for label in plan}


def ablation_table(points: Mapping[str, SweepPoint]) -> str:
    """Render sweep results as an aligned ASCII comparison table."""
    if not points:
        return "(no sweep points)"
    label_w = max(len(l) for l in points) + 2
    lines = [
        f"{'variant'.ljust(label_w)}{'AveRT':>12}{'ECS (M)':>12}"
        f"{'success':>10}{'util':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for label, p in points.items():
        lines.append(
            f"{label.ljust(label_w)}{p.avert.mean:>12.2f}"
            f"{p.ecs.mean / 1e6:>12.3f}{p.success_rate.mean:>10.3f}"
            f"{p.utilization.mean:>8.3f}"
        )
    return "\n".join(lines)
