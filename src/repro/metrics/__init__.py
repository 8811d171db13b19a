"""Performance and energy metrics for simulation runs.

AveRT (Eq. 4), success rate (rew_val/N), utilization-by-learning-cycles
(Figures 9–10), run-level assembly, and multi-seed statistics helpers.
"""

from .._lazy import lazy_exports

# Eager: each of these two functions shares its name with its module,
# and importing a submodule binds the module over a lazy name.
from .priority_report import (
    PriorityClassReport,
    priority_report,
    render_priority_report,
)
from .success_rate import SuccessSummary, success_rate, summarize_success

__all__ = [
    "RunMetrics",
    "collect_metrics",
    "ResponseTimeSummary",
    "average_response_time",
    "summarize_response_times",
    "StreamingRunStats",
    "SuccessSummary",
    "success_rate",
    "summarize_success",
    "UtilizationPoint",
    "utilization_by_cycles",
    "jains_index",
    "SiteBreakdown",
    "per_site_breakdown",
    "PriorityClassReport",
    "priority_report",
    "render_priority_report",
    "MeanCI",
    "mean_ci",
    "relative_difference",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".collector": ("RunMetrics", "collect_metrics"),
        ".response_time": (
            "ResponseTimeSummary",
            "average_response_time",
            "summarize_response_times",
        ),
        ".stats": ("MeanCI", "mean_ci", "relative_difference"),
        ".fairness": ("SiteBreakdown", "jains_index", "per_site_breakdown"),
        ".streaming": ("StreamingRunStats",),
        ".utilization": ("UtilizationPoint", "utilization_by_cycles"),
    },
)
