"""repro — reproduction of Hussin, Lee & Zomaya (ICPP 2011).

"Efficient Energy Management using Adaptive Reinforcement Learning-based
Scheduling in Large-Scale Distributed Systems."

Public surface (see README for the architecture overview):

- :mod:`repro.sim` — discrete-event simulation kernel;
- :mod:`repro.workload` — task model and synthetic workload generation;
- :mod:`repro.cluster` — processors, nodes, sites, topology synthesis;
- :mod:`repro.energy` — power states and energy accounting (Eqs. 5–6);
- :mod:`repro.rl` — Q-learning, exploration policies, MLP, replay;
- :mod:`repro.core` — the Adaptive-RL scheduler (the paper's §IV);
- :mod:`repro.baselines` — Online RL, Q+ learning, Prediction-based,
  plus non-learning reference schedulers;
- :mod:`repro.metrics` — AveRT, ECS, success rate, utilization series;
- :mod:`repro.experiments` — run harness and figure regenerators;
- :mod:`repro.obs` — event tracing, metrics, profiling;
- :mod:`repro.parallel` — process-pool campaign execution with
  checkpoint/resume.

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment
>>> result = run_experiment(ExperimentConfig(scheduler="adaptive-rl",
...                                          num_tasks=200, seed=7))
>>> result.metrics.success_rate > 0.5
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AdaptiveRLScheduler",
    "AdaptiveRLConfig",
    "ExperimentConfig",
    "default_platform",
    "run_experiment",
    "RunResult",
    "make_scheduler",
    "register_scheduler",
    "__version__",
]

# Standalone tools (most importantly ``python -m repro.workload.verify``,
# whose whole point is rechecking results WITHOUT importing any
# scheduler) import their subpackage without this package dragging in
# the RL stack.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.adaptive_rl": ("AdaptiveRLScheduler", "AdaptiveRLConfig"),
        ".experiments.config": ("ExperimentConfig", "default_platform"),
        ".experiments.runner": ("run_experiment", "RunResult"),
        ".experiments.schedulers": ("make_scheduler", "register_scheduler"),
    },
)
