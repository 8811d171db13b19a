"""Experiment harness: configs, runner, figure regenerators, reporting."""

from .config import ExperimentConfig, default_platform, grid
from .figures import (
    ALL_FIGURES,
    FigureData,
    HETEROGENEITY_LEVELS,
    PAPER_TASK_COUNTS,
    comparison_sweep,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    heterogeneity_sweep,
)
from .persistence import (
    figure_from_dict,
    figure_to_dict,
    load_figure,
    metrics_to_dict,
    run_record,
    save_figure,
)
from .reporting import ShapeCheck, render_figure, shape_checks
from .runner import Run, RunResult, SimulationStalled, run_experiment
from .schedulers import (
    PAPER_COMPARISON,
    SCHEDULER_NAMES,
    make_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from .sweeps import SweepPoint, ablation_table, sweep

__all__ = [
    "ExperimentConfig",
    "default_platform",
    "Run",
    "RunResult",
    "run_experiment",
    "SimulationStalled",
    "make_scheduler",
    "register_scheduler",
    "unregister_scheduler",
    "SCHEDULER_NAMES",
    "PAPER_COMPARISON",
    "FigureData",
    "comparison_sweep",
    "heterogeneity_sweep",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "ALL_FIGURES",
    "PAPER_TASK_COUNTS",
    "HETEROGENEITY_LEVELS",
    "render_figure",
    "shape_checks",
    "ShapeCheck",
    "sweep",
    "SweepPoint",
    "ablation_table",
    "save_figure",
    "load_figure",
    "figure_to_dict",
    "figure_from_dict",
    "metrics_to_dict",
    "run_record",
    "grid",
]
