"""Baseline schedulers the paper compares against (§II, §V).

Learning baselines (re-implemented decision cores, "extended versions …
induced into the same system model", §V.B):

- :class:`OnlineRLScheduler` — Tesauro et al. [11];
- :class:`QPlusLearningScheduler` — Tan, Liu & Qiu [12];
- :class:`PredictionBasedScheduler` — Berral et al. [13];

plus non-learning reference schedulers for ablations.
"""

from .._lazy import lazy_exports

__all__ = [
    "SingletonScheduler",
    "shortest_queue_node",
    "OnlineRLScheduler",
    "QPlusLearningScheduler",
    "PredictionBasedScheduler",
    "ResponseTimePredictor",
    "EDFScheduler",
    "FCFSScheduler",
    "RandomScheduler",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".common": ("SingletonScheduler", "shortest_queue_node"),
        ".online_rl": ("OnlineRLScheduler",),
        ".prediction": ("PredictionBasedScheduler", "ResponseTimePredictor"),
        ".qplus": ("QPlusLearningScheduler",),
        ".static": ("EDFScheduler", "FCFSScheduler", "RandomScheduler"),
    },
)
