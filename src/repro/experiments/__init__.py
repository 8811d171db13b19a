"""Experiment harness: configs, runner, figure plans, reporting."""

from .._lazy import lazy_exports

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
    "FigurePlan",
    "run_configs",
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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("ExperimentConfig", "default_platform", "grid"),
        ".figures": (
            "ALL_FIGURES",
            "FigureData",
            "FigurePlan",
            "HETEROGENEITY_LEVELS",
            "PAPER_TASK_COUNTS",
            "run_configs",
        ),
        ".persistence": (
            "figure_from_dict",
            "figure_to_dict",
            "load_figure",
            "metrics_to_dict",
            "run_record",
            "save_figure",
        ),
        ".reporting": ("ShapeCheck", "render_figure", "shape_checks"),
        ".runner": ("Run", "RunResult", "SimulationStalled", "run_experiment"),
        ".schedulers": (
            "PAPER_COMPARISON",
            "SCHEDULER_NAMES",
            "make_scheduler",
            "register_scheduler",
            "unregister_scheduler",
        ),
        ".sweeps": ("SweepPoint", "ablation_table", "sweep"),
    },
)
