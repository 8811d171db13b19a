"""Platform substrate: processors, nodes, sites, and topology synthesis.

Implements the paper's §III.B system model — heterogeneous multi-processor
compute nodes with bounded task-group queues grouped into resource sites —
plus the heterogeneity-controlled speed synthesis used by Experiment 3.
"""

from .._lazy import lazy_exports

__all__ = [
    "Processor",
    "SPEED_RANGE_MIPS",
    "TaskGroup",
    "processing_weight",
    "ComputeNode",
    "NodeState",
    "SleepPolicy",
    "DEFAULT_QUEUE_SLOTS",
    "ResourceSite",
    "FailureInjector",
    "FailureModel",
    "PlatformSpec",
    "System",
    "build_system",
    "speeds_with_cv",
    "coefficient_of_variation",
    "DEFAULT_MEAN_SPEED_MIPS",
    "SPEED_CLIP_MIPS",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".failures": ("FailureInjector", "FailureModel"),
        ".heterogeneity": (
            "DEFAULT_MEAN_SPEED_MIPS",
            "SPEED_CLIP_MIPS",
            "coefficient_of_variation",
            "speeds_with_cv",
        ),
        ".node": ("DEFAULT_QUEUE_SLOTS", "ComputeNode", "NodeState", "SleepPolicy"),
        ".processor": ("SPEED_RANGE_MIPS", "Processor"),
        ".site": ("ResourceSite",),
        ".system": ("PlatformSpec", "System", "build_system"),
        ".taskgroup": ("TaskGroup", "processing_weight"),
    },
)
