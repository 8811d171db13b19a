"""Experiment configuration (paper §V.A).

Defaults mirror the paper's setting: Poisson arrivals with mean
inter-arrival 5, task sizes U(600, 7200) MI, platform of 5–10 sites with
5–20 nodes of 4–6 processors, ``pmax = 95 W`` / ``pmin = 48 W``.  The
default platform realization is kept at the small end of the paper's
ranges so a full figure sweep runs in seconds on a laptop; every range is
overridable per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..cluster.system import PlatformSpec
from ..workload.generator import DEFAULT_PRIORITY_MIX, WorkloadSpec

__all__ = [
    "ExperimentConfig",
    "default_platform",
    "grid",
]


def default_platform(**overrides: Any) -> PlatformSpec:
    """The evaluation platform (small end of the paper's §V.A ranges)."""
    params: dict[str, Any] = dict(
        num_sites=5,
        nodes_per_site=(5, 10),
        procs_per_node=(4, 6),
    )
    params.update(overrides)
    return PlatformSpec(**params)


#: Arrival window so that N=500 reproduces the paper's stated mean
#: inter-arrival time of 5 time units (DESIGN.md A12): the task-count
#: sweep of Figures 7–8 varies *load* — N tasks arrive within a fixed
#: observation period, so heavier N means a higher arrival rate.
DEFAULT_ARRIVAL_PERIOD = 2500.0

#: Task-size calibration (DESIGN.md A12): the paper's literal size range
#: (600–7200 MI on 500–1000 MIPS processors) cannot load its stated
#: platform at any of its stated arrival rates, yet its response-time
#: curves show saturation.  Scaling sizes ×24 puts the N=3000 point at
#: ≈0.8–0.95 offered utilization on the default platform, reproducing
#: the light→heavy regime the evaluation sweeps.
DEFAULT_SIZE_RANGE_MI = (600.0 * 24, 7200.0 * 24)

#: The float fields that must be finite when set (tuples elementwise).
#: ``failure_mtbf`` is left out: an infinite MTBF runs like ``None``.
_FLOAT_FIELDS = (
    "arrival_period",
    "mean_interarrival",
    "size_range_mi",
    "reference_speed_mips",
    "priority_mix",
    "failure_mttr",
    "sim_time_factor",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation run."""

    scheduler: str = "adaptive-rl"
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 1
    num_tasks: int = 1000
    #: Fixed observation window: mean inter-arrival = period / num_tasks.
    #: Set to None to use ``mean_interarrival`` directly instead.
    arrival_period: float | None = DEFAULT_ARRIVAL_PERIOD
    mean_interarrival: float = 5.0
    size_range_mi: tuple[float, float] = DEFAULT_SIZE_RANGE_MI
    #: Speed of the "referred (the slowest) resource" used to compute
    #: ``ACT`` and hence deadlines (§III.A).  The paper's platform has a
    #: nominal slowest of 500 MIPS; ``None`` derives it from the realized
    #: platform instead (degenerate under high-CV heterogeneity synthesis,
    #: where the sampled minimum can be arbitrarily slow).
    reference_speed_mips: float | None = 500.0
    priority_mix: tuple[float, float, float] = DEFAULT_PRIORITY_MIX
    #: Extra WorkloadSpec keyword overrides (e.g. arrival_process="mmpp",
    #: size_distribution="bounded-pareto") for robustness studies.
    workload_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Path to a frozen workload trace (``.json`` / ``.jsonl`` / ``.swf``).
    #: When set, the run replays the trace instead of synthesizing a
    #: workload — ``num_tasks`` and the arrival/size parameters above are
    #: ignored (the trace *is* the workload) and the workload RNG streams
    #: go unconsumed.
    workload_trace: str | None = None
    platform: PlatformSpec = field(default_factory=default_platform)
    #: Crash-stop failure injection (None = no failures): mean time
    #: between failures per node, exponentially distributed.
    failure_mtbf: float | None = None
    #: Mean time to repair per node (used when failure_mtbf is set).
    failure_mttr: float = 50.0
    #: Hard wall on simulated time, as a multiple of the arrival span —
    #: a run that cannot drain within it raises instead of hanging.
    sim_time_factor: float = 50.0

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")
        if self.arrival_period is not None and not self.arrival_period > 0:
            raise ValueError("arrival_period must be positive")
        lo, hi = self.size_range_mi
        if not 0 < lo <= hi:
            raise ValueError(f"invalid size range {self.size_range_mi}")
        if (
            self.reference_speed_mips is not None
            and not self.reference_speed_mips > 0
        ):
            raise ValueError("reference_speed_mips must be positive")
        # An infinite MTBF is allowed: it draws no failure, like None.
        if self.failure_mtbf is not None and not self.failure_mtbf > 0:
            raise ValueError("failure_mtbf must be positive")
        if not self.failure_mttr > 0:
            raise ValueError("failure_mttr must be positive")
        if not self.sim_time_factor > 1:
            raise ValueError("sim_time_factor must exceed 1")
        # Build the spec a run generates from, so that an unknown or bad
        # workload override fails here, not in each retry of a campaign
        # job.  A run without a reference speed takes the platform's
        # slowest processor; any positive speed checks the same.
        reference = self.reference_speed_mips
        WorkloadSpec(
            num_tasks=self.num_tasks,
            mean_interarrival=self.effective_mean_interarrival,
            size_range_mi=self.size_range_mi,
            priority_mix=self.priority_mix,
            reference_speed_mips=1.0 if reference is None else reference,
            **dict(self.workload_overrides),
        )

    @property
    def effective_mean_interarrival(self) -> float:
        """Mean inter-arrival time this config induces."""
        if self.arrival_period is not None:
            return self.arrival_period / self.num_tasks
        return self.mean_interarrival

    def with_overrides(self, **changes: Any) -> "ExperimentConfig":
        """Functional update helper."""
        from dataclasses import replace

        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`).

        The parallel execution engine sends configs to worker processes
        and writes them into checkpoint journals by value, so everything
        here must survive a JSON round-trip.  ``scheduler_kwargs`` and
        ``workload_overrides`` are passed through as plain dicts — they
        must themselves hold JSON-compatible values.
        """
        return {
            "version": 1,
            "scheduler": self.scheduler,
            "scheduler_kwargs": dict(self.scheduler_kwargs),
            "seed": self.seed,
            "num_tasks": self.num_tasks,
            "arrival_period": self.arrival_period,
            "mean_interarrival": self.mean_interarrival,
            "size_range_mi": list(self.size_range_mi),
            "reference_speed_mips": self.reference_speed_mips,
            "priority_mix": list(self.priority_mix),
            "workload_overrides": dict(self.workload_overrides),
            "workload_trace": self.workload_trace,
            "platform": self.platform.to_dict(),
            "failure_mtbf": self.failure_mtbf,
            "failure_mttr": self.failure_mttr,
            "sim_time_factor": self.sim_time_factor,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported config format version {version!r}")
        period = data["arrival_period"]
        reference = data["reference_speed_mips"]
        mtbf = data["failure_mtbf"]
        return cls(
            scheduler=data["scheduler"],
            scheduler_kwargs=dict(data["scheduler_kwargs"]),
            seed=int(data["seed"]),
            num_tasks=int(data["num_tasks"]),
            arrival_period=None if period is None else float(period),
            mean_interarrival=float(data["mean_interarrival"]),
            size_range_mi=tuple(float(v) for v in data["size_range_mi"]),
            reference_speed_mips=None if reference is None else float(reference),
            priority_mix=tuple(float(v) for v in data["priority_mix"]),
            workload_overrides=dict(data["workload_overrides"]),
            # .get: configs journaled before trace-driven workloads
            # existed lack the key.
            workload_trace=data.get("workload_trace"),
            platform=PlatformSpec.from_dict(data["platform"]),
            failure_mtbf=None if mtbf is None else float(mtbf),
            failure_mttr=float(data["failure_mttr"]),
            sim_time_factor=float(data["sim_time_factor"]),
        )


def grid(
    schedulers: Sequence[str],
    task_counts: Sequence[int],
    seeds: Sequence[int],
    **common: Any,
) -> list[ExperimentConfig]:
    """Build the full scheduler × N × seed config grid."""
    if not schedulers or not task_counts or not seeds:
        raise ValueError("grid axes must be non-empty")
    return [
        ExperimentConfig(scheduler=s, num_tasks=n, seed=seed, **common)
        for s in schedulers
        for n in task_counts
        for seed in seeds
    ]
