"""The paper's result figures (Figures 7–12): plan, run, build.

:class:`FigurePlan` lists every distinct run a set of figures needs,
:func:`run_configs` runs each of them once (in process, or as one
parallel campaign), and :meth:`FigurePlan.figure` builds each figure
from the runs' records, with the same x-axis and series the paper
plots.  Figures 7 and 8 share one sweep, and so do Figures 11 and 12.

Scale knobs (``task_counts``, ``seeds``, ``heavy_tasks``,
``light_tasks``) default to the paper's full settings; the CLI's
``--quick`` and the tests pass reduced values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..metrics.stats import mean_ci
from .config import ExperimentConfig, default_platform
from .runner import run_experiment
from .schedulers import PAPER_COMPARISON

__all__ = [
    "FigureData",
    "FigurePlan",
    "run_configs",
    "ALL_FIGURES",
    "PAPER_TASK_COUNTS",
    "HETEROGENEITY_LEVELS",
    "LIGHT_TASKS",
    "HEAVY_TASKS",
    "SCHEDULER_LABELS",
]

#: Every figure a plan can build, in paper order.
ALL_FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12")

#: The paper's Figure 7/8 x-axis.
PAPER_TASK_COUNTS = (500, 1000, 1500, 2000, 2500, 3000)
#: The paper's Figure 11/12 x-axis.
HETEROGENEITY_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: §V Experiment 2: "500 tasks and 3,000 tasks for lightly loaded and
#: heavily loaded, respectively".
LIGHT_TASKS = 500
HEAVY_TASKS = 3000

#: Legend labels exactly as the paper prints them.
SCHEDULER_LABELS = {
    "adaptive-rl": "Adaptive RL",
    "online-rl": "Online RL",
    "qplus": "Q+ learning",
    "prediction": "Prediction-based learning",
}


@dataclass(frozen=True)
class FigureData:
    """One reproduced figure: x-axis, named series, and provenance."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: tuple
    #: series name → y value per x (means over seeds).
    series: Mapping[str, tuple]
    #: series name → 95 % CI half-width per x (zeros for single seeds).
    errors: Mapping[str, tuple] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, ys in self.series.items():
            if len(ys) != len(self.x_values):
                raise ValueError(
                    f"series {name!r} length {len(ys)} != x length "
                    f"{len(self.x_values)}"
                )


def _grid_config(num_tasks: int, **fields: Any) -> ExperimentConfig:
    """One grid point.  A run that replays a workload trace ignores
    ``num_tasks``, so every such point gets the same placeholder count:
    points that differ only in it share one job id, and a plan runs each
    distinct simulation once."""
    if fields.get("workload_trace") is not None:
        num_tasks = 1
    return ExperimentConfig(num_tasks=num_tasks, **fields)


def _comparison_grid(
    task_counts: Sequence[int],
    seeds: Sequence[int],
    schedulers: Sequence[str],
    **common: Any,
) -> dict:
    """``{scheduler: {n: [config per seed]}}``: the Experiment 1 grid."""
    return {
        name: {
            n: [
                _grid_config(n, scheduler=name, seed=seed, **common)
                for seed in seeds
            ]
            for n in task_counts
        }
        for name in schedulers
    }


def _utilization_grid(num_tasks: int, seed: int, **common: Any) -> dict:
    """``{scheduler: config}``: the Experiment 2 pair at one load."""
    return {
        name: _grid_config(num_tasks, scheduler=name, seed=seed, **common)
        for name in ("adaptive-rl", "online-rl")
    }


def _heterogeneity_grid(
    levels: Sequence[float],
    seeds: Sequence[int],
    light_tasks: int,
    heavy_tasks: int,
    **common: Any,
) -> dict:
    """``{load_label: {h: [config per seed]}}``: the Experiment 3 grid."""
    loads = (("Heavily-loaded", heavy_tasks), ("Lightly-loaded", light_tasks))
    return {
        label: {
            h: [
                _grid_config(
                    n,
                    scheduler="adaptive-rl",
                    seed=seed,
                    platform=default_platform(heterogeneity_cv=h),
                    **common,
                )
                for seed in seeds
            ]
            for h in levels
        }
        for label, n in loads
    }


def _leaves(grid) -> Iterator[ExperimentConfig]:
    """Every config of a nested grid, in grid order."""
    if isinstance(grid, ExperimentConfig):
        yield grid
        return
    for sub in grid.values() if isinstance(grid, dict) else grid:
        yield from _leaves(sub)


def _distinct(configs: Iterable[ExperimentConfig]) -> list:
    """*configs* with repeats dropped (by job id), in first-seen order."""
    from ..parallel import job_id

    distinct: dict = {}
    for config in configs:
        distinct.setdefault(job_id(config), config)
    return list(distinct.values())


def _fill(grid, runs: Mapping[str, object]):
    """*grid* with every config replaced by its run from *runs*."""
    from ..parallel import job_id

    def fill(node):
        if isinstance(node, ExperimentConfig):
            return runs[job_id(node)]
        if isinstance(node, dict):
            return {key: fill(sub) for key, sub in node.items()}
        return [fill(sub) for sub in node]

    return fill(grid)


def run_configs(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> dict:
    """Run each of the distinct *configs*; ``{job_id: RecordView}``.

    With ``jobs == 1`` and no checkpoint the runs execute in this
    process, in order; otherwise they form one parallel campaign.  Both
    paths build each record with
    :func:`~repro.experiments.persistence.run_record`, and a
    :class:`~repro.parallel.RecordView` exposes ``avert`` / ``ecs`` /
    ``success_rate`` / ``utilization_series`` like
    :class:`~repro.metrics.collector.RunMetrics`, so every figure
    aggregates serial and parallel runs alike.
    """
    from ..parallel import RecordView, job_id
    from .persistence import run_record

    if jobs == 1 and not resume and checkpoint_dir is None:
        records = []
        for config in configs:
            started = time.perf_counter()
            metrics = run_experiment(config).metrics
            records.append(
                run_record(config, metrics, time.perf_counter() - started)
            )
    else:
        records = _campaign_records(configs, jobs, checkpoint_dir, resume)
    return {job_id(c): RecordView(r) for c, r in zip(configs, records)}


def _campaign_records(
    configs: Sequence[ExperimentConfig],
    jobs: int,
    checkpoint_dir: Optional[Union[str, Path]],
    resume: bool,
) -> list:
    """Run *configs* as one :func:`repro.parallel.run_parallel` campaign.

    Returns the records in config order.  When the ambient telemetry's
    flight recorder is armed, each worker samples its own series bank
    and the merged bank folds back into the ambient one — a
    ``--jobs N`` run still yields one dashboard.
    """
    import json
    import tempfile

    from ..obs import get_telemetry
    from ..parallel import run_parallel

    tel = get_telemetry()
    sample_every = tel.sample_every if tel.sampling else None
    scratch = None
    if sample_every is not None and checkpoint_dir is None:
        # The per-worker banks need a directory; without a user
        # checkpoint, a throwaway one serves and is cleaned up below.
        scratch = tempfile.TemporaryDirectory(prefix="repro-series-")
        checkpoint_dir = scratch.name
    try:
        result = run_parallel(
            configs,
            jobs=max(1, jobs),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            campaign_name="figures",
            sample_every=sample_every,
        )
        if tel.sampling and result.series_path is not None:
            from ..obs import SeriesBank

            tel.series.merge_from(
                SeriesBank.from_dict(
                    json.loads(result.series_path.read_text(encoding="utf-8"))
                )
            )
    finally:
        if scratch is not None:
            scratch.cleanup()
    return result.records


def _run_grid(grid, jobs: int = 1):
    """Run each distinct config of *grid* once; *grid* with runs in place."""
    return _fill(grid, run_configs(_distinct(_leaves(grid)), jobs))


#: Figs 7, 8, 11 and 12 plot one metric's mean over seeds per x:
#: ``figure_id → (title, x label, y label, metric of a run)``.
_SERIES_FIGURES = {
    "fig7": (
        "Average response time with different learning approaches",
        "Number of tasks",
        "average response time (t unit)",
        lambda run: run.avert,
    ),
    "fig8": (
        "Average energy consumption with different learning approaches",
        "Number of tasks",
        "energy consumption (in millions)",
        lambda run: run.ecs / 1e6,
    ),
    "fig11": (
        "Successful rate of Adaptive-RL in lightly- and heavily-loaded states",
        "Heterogeneity of resources",
        "successful rate",
        lambda run: run.success_rate,
    ),
    "fig12": (
        "Average energy consumption of Adaptive-RL in lightly- and "
        "heavily-loaded states",
        "Heterogeneity of resources",
        "energy consumption (in millions)",
        lambda run: run.ecs / 1e6,
    ),
}


def _series_figure(
    figure_id: str,
    x_values: Sequence,
    seeds: Sequence[int],
    runs: Mapping[str, Mapping],
) -> FigureData:
    """Fig 7, 8, 11 or 12 from *runs*, ``{series: {x: [run per seed]}}``."""
    title, x_label, y_label, metric = _SERIES_FIGURES[figure_id]
    series, errors = {}, {}
    for name, per_x in runs.items():
        cis = [mean_ci([metric(run) for run in per_x[x]]) for x in x_values]
        label = SCHEDULER_LABELS.get(name, name)
        series[label] = tuple(ci.mean for ci in cis)
        errors[label] = tuple(ci.half_width for ci in cis)
    return FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_values=tuple(x_values),
        series=series,
        errors=errors,
        meta={"seeds": tuple(seeds)},
    )


#: Figs 9 and 10 plot the heavily and the lightly loaded state.
_LOAD_LABELS = {"fig9": "heavily-loaded", "fig10": "lightly-loaded"}


def _utilization_figure(
    figure_id: str, num_tasks: int, seed: int, runs: Mapping[str, object]
) -> FigureData:
    """Fig 9 or 10 from *runs*, the ``{scheduler: run}`` pair at one load."""
    load_label = _LOAD_LABELS[figure_id]
    series = {}
    x_values: tuple = ()
    for name, run in runs.items():
        points = run.utilization_series
        x_values = tuple(p["percent_cycles"] for p in points)
        label = f"{SCHEDULER_LABELS[name]} ({load_label})"
        series[label] = tuple(p["cumulative_utilization"] for p in points)
    return FigureData(
        figure_id=figure_id,
        title=(
            f"Utilisation rate between Adaptive-RL and Online RL in "
            f"{load_label} state"
        ),
        x_label="% learning cycles",
        y_label="utilisation rate",
        x_values=x_values,
        series=series,
        meta={"num_tasks": num_tasks, "seed": seed},
    )


@dataclass(frozen=True)
class FigurePlan:
    """The runs behind a set of figures at one scale.

    :meth:`configs` plans them: every distinct config the figures need,
    once each, so Figs 9–10 share the Fig 7–8 runs whenever their task
    counts match.  Run the plan with :func:`run_configs` and build each
    figure from the records with :meth:`figure`.
    """

    figure_ids: Sequence[str]
    task_counts: Sequence[int] = PAPER_TASK_COUNTS
    seeds: Sequence[int] = (1,)
    heavy_tasks: int = HEAVY_TASKS
    light_tasks: int = LIGHT_TASKS
    #: ``WorkloadSpec`` keyword overrides for every run of the plan
    #: (e.g. ``{"arrival_process": "mmpp"}``).
    workload_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: A frozen workload trace every run of the plan replays.
    workload_trace: Optional[str] = None

    def _grid(self, figure_id: str):
        common = {
            "workload_overrides": self.workload_overrides,
            "workload_trace": self.workload_trace,
        }
        if figure_id in ("fig7", "fig8"):
            return _comparison_grid(
                self.task_counts, self.seeds, PAPER_COMPARISON, **common
            )
        if figure_id in ("fig9", "fig10"):
            return _utilization_grid(
                self._load(figure_id), self.seeds[0], **common
            )
        if figure_id in ("fig11", "fig12"):
            return _heterogeneity_grid(
                HETEROGENEITY_LEVELS,
                self.seeds,
                self.light_tasks,
                self.heavy_tasks,
                **common,
            )
        raise ValueError(f"unknown figure {figure_id!r}")

    def _load(self, figure_id: str) -> int:
        return self.heavy_tasks if figure_id == "fig9" else self.light_tasks

    def configs(self) -> list:
        """Every distinct config the figures need, in first-seen grid order."""
        return _distinct(
            config
            for figure_id in self.figure_ids
            for config in _leaves(self._grid(figure_id))
        )

    def figure(self, figure_id: str, runs: Mapping[str, object]) -> FigureData:
        """Build one figure from *runs*, as :func:`run_configs` returns them."""
        filled = _fill(self._grid(figure_id), runs)
        if figure_id in ("fig9", "fig10"):
            return _utilization_figure(
                figure_id, self._load(figure_id), self.seeds[0], filled
            )
        if figure_id in ("fig7", "fig8"):
            x_values = self.task_counts
        else:
            x_values = HETEROGENEITY_LEVELS
        return _series_figure(figure_id, x_values, self.seeds, filled)
