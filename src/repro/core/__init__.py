"""Adaptive-RL core — the paper's primary contribution (§IV).

Public surface: the :class:`AdaptiveRLScheduler` (with
:class:`AdaptiveRLConfig` knobs for every ablation), the per-site
:class:`SiteAgent`, the shared-learning memory, the feedback signals of
Eqs. 7–9, the task-grouping merge process, and the scheduler base class
shared with the baselines.
"""

from .._lazy import lazy_exports

__all__ = [
    "AdaptiveRLScheduler",
    "AdaptiveRLConfig",
    "SiteAgent",
    "PendingAction",
    "Scheduler",
    "CycleSample",
    "GroupingAction",
    "GroupingMode",
    "action_space",
    "Backlog",
    "merge_next_group",
    "SharedLearningMemory",
    "Experience",
    "AGENT_MEMORY_CYCLES",
    "FeedbackRecord",
    "grouping_error",
    "learning_value",
    "scaled_reward",
    "ERROR_EPSILON",
    "SiteObservation",
    "DiscreteState",
    "observe_site",
    "discretize",
    "ValueModel",
    "TabularValueModel",
    "NeuralValueModel",
    "DVFSGovernor",
    "energy_optimal_scale",
    "export_knowledge",
    "import_knowledge",
    "save_knowledge",
    "load_knowledge",
    "RoutingPolicy",
    "LeastLoadedRouting",
    "RoundRobinRouting",
    "RandomRouting",
    "make_routing",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".actions": ("GroupingAction", "GroupingMode", "action_space"),
        ".adaptive_rl": ("AdaptiveRLConfig", "AdaptiveRLScheduler"),
        ".agent": ("PendingAction", "SiteAgent"),
        ".base": ("CycleSample", "Scheduler"),
        ".dvfs": ("DVFSGovernor", "energy_optimal_scale"),
        ".knowledge": (
            "export_knowledge",
            "import_knowledge",
            "load_knowledge",
            "save_knowledge",
        ),
        ".dispatch": (
            "LeastLoadedRouting",
            "RandomRouting",
            "RoundRobinRouting",
            "RoutingPolicy",
            "make_routing",
        ),
        ".feedback": (
            "ERROR_EPSILON",
            "FeedbackRecord",
            "grouping_error",
            "learning_value",
            "scaled_reward",
        ),
        ".grouping": ("Backlog", "merge_next_group"),
        ".shared_memory": ("AGENT_MEMORY_CYCLES", "Experience", "SharedLearningMemory"),
        ".state": ("DiscreteState", "SiteObservation", "discretize", "observe_site"),
        ".value_models": ("NeuralValueModel", "TabularValueModel", "ValueModel"),
    },
)
