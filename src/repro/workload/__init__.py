"""Application (workload) model: tasks, priorities, generators, traces.

Implements the paper's §III.A application model: independent compute-bound
tasks ``Ti = {si, di}`` with Poisson arrivals, uniform MI sizes, and
deadline-derived three-level priorities.
"""

from .._lazy import lazy_exports

__all__ = [
    "Task",
    "TaskStore",
    "Priority",
    "classify_slack",
    "slack_band",
    "HIGH_SLACK_MAX",
    "LOW_SLACK_MIN",
    "MAX_SLACK",
    "WorkloadSpec",
    "WorkloadGenerator",
    "DEFAULT_PRIORITY_MIX",
    "MMPP2",
    "mmpp2_interarrivals",
    "bounded_pareto",
    "DiurnalRate",
    "PiecewiseRate",
    "diurnal_interarrivals",
    "thinned_interarrivals",
    "WorkloadStats",
    "summarize",
    "save_trace",
    "load_trace",
    "save_trace_jsonl",
    "iter_trace_jsonl",
    "trace_to_records",
    "records_to_tasks",
    "load_workload",
    "iter_workload",
    "SWFJob",
    "SWFMapping",
    "SWFParseStats",
    "read_swf_header",
    "iter_swf_tasks",
    "load_swf",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".distributions": (
            "MMPP2",
            "DiurnalRate",
            "PiecewiseRate",
            "bounded_pareto",
            "diurnal_interarrivals",
            "mmpp2_interarrivals",
            "thinned_interarrivals",
        ),
        ".generator": ("DEFAULT_PRIORITY_MIX", "WorkloadGenerator", "WorkloadSpec"),
        ".priorities": (
            "HIGH_SLACK_MAX",
            "LOW_SLACK_MIN",
            "MAX_SLACK",
            "Priority",
            "classify_slack",
            "slack_band",
        ),
        ".stats": ("WorkloadStats", "summarize"),
        ".swf": (
            "SWFJob",
            "SWFMapping",
            "SWFParseStats",
            "iter_swf_tasks",
            "load_swf",
            "read_swf_header",
        ),
        ".task": ("Task",),
        ".taskstore": ("TaskStore",),
        ".traces": (
            "iter_trace_jsonl",
            "iter_workload",
            "load_trace",
            "load_workload",
            "records_to_tasks",
            "save_trace",
            "save_trace_jsonl",
            "trace_to_records",
        ),
    },
)
