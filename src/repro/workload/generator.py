"""Synthetic workload generation (paper §V.A).

The paper specifies the full workload distribution, so the private traces
the authors used are substituted with a seeded synthetic generator:

- Poisson arrival process, mean inter-arrival time 5 time units;
- computational size ``si ~ U(600, 7200)`` MI;
- deadline ``di = ACTi + add_t`` with ``add_t ∈ [0, 150 %]·ACTi``, where the
  slack band is chosen per-task from a configurable priority mix so that
  "the probabilities of three different task priorities are varied in
  different experiments" (§V.A) is directly controllable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..sim.rng import RandomStreams
from .priorities import Priority, slack_band
from .task import Task
from .taskstore import TaskStore

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "DEFAULT_PRIORITY_MIX",
]

#: Equal thirds by default; experiments override this mix.
DEFAULT_PRIORITY_MIX = (1 / 3, 1 / 3, 1 / 3)

#: The spec's float fields (tuples elementwise).  Each must be finite:
#: a NaN passes no comparison, so an unchecked one hangs the MMPP and
#: diurnal draws or builds tasks with NaN arrivals and deadlines.
_FLOAT_FIELDS = (
    "mean_interarrival",
    "size_range_mi",
    "priority_mix",
    "reference_speed_mips",
    "first_arrival",
    "mmpp_burstiness",
    "diurnal_period",
    "diurnal_amplitude",
    "diurnal_phase",
    "pareto_alpha",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Distribution parameters for a synthetic workload.

    Attributes
    ----------
    num_tasks:
        Number of tasks to emit (paper sweeps 500–3000).
    mean_interarrival:
        Mean of the exponential inter-arrival distribution (paper: 5).
    size_range_mi:
        Uniform range of computational sizes in MI (paper: 600–7200).
    priority_mix:
        Probabilities of (high, medium, low) priority classes.
    reference_speed_mips:
        Speed of the slowest reference resource used to compute ``ACT``
        (paper: slowest processor, 500 MIPS by default).
    first_arrival:
        Simulated time of the first possible arrival.
    """

    num_tasks: int = 1000
    mean_interarrival: float = 5.0
    size_range_mi: tuple[float, float] = (600.0, 7200.0)
    priority_mix: tuple[float, float, float] = DEFAULT_PRIORITY_MIX
    reference_speed_mips: float = 500.0
    first_arrival: float = 0.0
    #: "poisson" (paper §V.A), "mmpp" (bursty robustness extension) or
    #: "diurnal" (sinusoidal day/night rate modulation via thinning).
    arrival_process: str = "poisson"
    #: Burst-to-calm rate ratio for the MMPP arrival process.
    mmpp_burstiness: float = 4.0
    #: Day/night cycle length for the diurnal arrival process.
    diurnal_period: float = 1000.0
    #: Rate-swing fraction for the diurnal process (0 = flat Poisson,
    #: 1 = the overnight trough touches zero).
    diurnal_amplitude: float = 0.8
    #: Phase offset (radians) of the diurnal sinusoid at ``t = 0``.
    diurnal_phase: float = 0.0
    #: "uniform" (paper §V.A) or "bounded-pareto" (heavy-tail extension).
    size_distribution: str = "uniform"
    #: Tail index for bounded-Pareto sizes (smaller = heavier tail).
    pareto_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")
        lo, hi = self.size_range_mi
        if not 0 < lo <= hi:
            raise ValueError(f"invalid size range {self.size_range_mi}")
        if len(self.priority_mix) != 3:
            raise ValueError("priority_mix must have 3 entries (high, med, low)")
        if any(not p >= 0 for p in self.priority_mix):
            raise ValueError("priority probabilities must be non-negative")
        total = sum(self.priority_mix)
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"priority_mix must sum to 1, got {total}")
        if not self.reference_speed_mips > 0:
            raise ValueError("reference_speed_mips must be positive")
        if self.arrival_process not in ("poisson", "mmpp", "diurnal"):
            raise ValueError(f"unknown arrival process {self.arrival_process!r}")
        if not self.mmpp_burstiness > 1:
            raise ValueError("mmpp_burstiness must exceed 1")
        if not self.diurnal_period > 0:
            raise ValueError("diurnal_period must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must lie in [0, 1]")
        if self.size_distribution not in ("uniform", "bounded-pareto"):
            raise ValueError(
                f"unknown size distribution {self.size_distribution!r}"
            )
        if not self.pareto_alpha > 0:
            raise ValueError("pareto_alpha must be positive")
        if self.size_distribution == "bounded-pareto" and lo == hi:
            # A degenerate band passes the 0 < lo <= hi check above but
            # bounded_pareto() needs strictly lo < hi; fail at spec
            # construction, not deep inside generation.
            raise ValueError(
                f"size_range_mi={self.size_range_mi} is degenerate: "
                'size_distribution="bounded-pareto" requires lo < hi '
                '(use size_distribution="uniform" for a point mass)'
            )


class WorkloadGenerator:
    """Seeded generator of :class:`Task` streams from a :class:`WorkloadSpec`.

    Three independent RNG streams (arrivals, sizes, priorities/slack) keep
    the workload stable when any single aspect of generation changes.
    """

    def __init__(self, spec: WorkloadSpec, streams: RandomStreams) -> None:
        self.spec = spec
        self._arrivals = streams["workload.arrivals"]
        self._sizes = streams["workload.sizes"]
        self._slack = streams["workload.slack"]

    def _modulated_interarrivals(self, n: int) -> np.ndarray:
        """Draw all *n* inter-arrivals for a state-carrying process.

        MMPP and diurnal arrivals both thread hidden state (the Markov
        phase, the thinning clock) across draws, so — unlike the plain
        Poisson path — :meth:`iter_tasks` draws them in full upfront,
        which keeps RNG stream consumption independent of the chunk
        size.
        """
        spec = self.spec
        if spec.arrival_process == "mmpp":
            from .distributions import MMPP2, mmpp2_interarrivals

            params = MMPP2.with_mean_interarrival(
                spec.mean_interarrival, burstiness=spec.mmpp_burstiness
            )
            return mmpp2_interarrivals(n, params, self._arrivals)
        from .distributions import DiurnalRate, diurnal_interarrivals

        profile = DiurnalRate(
            base_rate=1.0 / spec.mean_interarrival,
            period=spec.diurnal_period,
            amplitude=spec.diurnal_amplitude,
            phase=spec.diurnal_phase,
        )
        return diurnal_interarrivals(
            n, profile, self._arrivals, t0=spec.first_arrival
        )

    def generate(self) -> list[Task]:
        """Generate the full task list, sorted by arrival time.

        One chunk of all ``num_tasks`` tasks: the arrival cumsum's carry
        starts at ``0.0`` and ``0.0 + x`` is ``x``, so this is the
        full-array draw, and every task's bits match any chunking of
        :meth:`iter_tasks` (``tests/workload/test_generator.py``).
        """
        return list(self.iter_tasks(chunk=self.spec.num_tasks))

    def iter_tasks(self, chunk: int = 1024) -> Iterator[Task]:
        """Lazily yield the same tasks as :meth:`generate`, in order.

        The service ingress (:mod:`repro.service`) consumes workloads as
        a stream, so this path never materializes the ``list[Task]`` —
        tasks are built and yielded chunk by chunk, as views onto one
        :class:`TaskStore` whose ``bulk_append`` validates and
        classifies each chunk vectorized, with no ``Task(...)`` built.
        RNG consumption does not depend on *chunk* (pinned by
        ``tests/workload/test_generator.py``):

        - the *arrivals* and *sizes* streams are drawn per chunk —
          NumPy fills arrays value by value, so ``k`` chunked draws
          consume a ``Generator`` exactly like one ``size=n`` draw
          (MMPP and diurnal arrivals are the exception: hidden state —
          the Markov phase, the thinning clock — carries across draws,
          so they are drawn in full upfront);
        - the *slack* stream's layout is position-dependent (all ``n``
          priority draws, then all ``n`` slack draws from the one
          stream), so those two columns are drawn upfront — O(n)
          float64 columns, not O(n) task objects;
        - the arrival cumsum carries the running inter-arrival sum
          between chunks with the same left-to-right association as
          ``np.cumsum`` over the full array, so every float matches.

        Each task field is the same IEEE-754 double expression as the
        original per-task loop, evaluated elementwise.  Like
        :meth:`generate`, this consumes the generator's RNG streams:
        use a fresh :class:`WorkloadGenerator` per pass.
        """
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        spec = self.spec
        n = spec.num_tasks
        # One store for the whole stream.
        store = TaskStore()

        # Position-dependent slack-stream layout: draw both columns now.
        prio_idx = self._slack.choice(3, size=n, p=list(spec.priority_mix))
        slack_u = self._slack.uniform(0.0, 1.0, size=n)
        priorities = (Priority.HIGH, Priority.MEDIUM, Priority.LOW)
        bands = np.array(
            [slack_band(p) for p in priorities], dtype=np.float64
        )

        all_iats = None
        if spec.arrival_process != "poisson":
            all_iats = self._modulated_interarrivals(n)

        iat_sum = 0.0  # running np.cumsum carry across chunks
        for start in range(0, n, chunk):
            m = min(chunk, n - start)
            if all_iats is not None:
                iats = all_iats[start : start + m]
            else:
                iats = self._arrivals.exponential(
                    spec.mean_interarrival, size=m
                )
            # cumsum over [carry, i1, i2, ...] reproduces the full-array
            # cumsum's left-to-right additions exactly.
            sums = np.cumsum(np.concatenate(([iat_sum], iats)))[1:]
            iat_sum = float(sums[-1])
            arrivals = spec.first_arrival + sums
            if spec.size_distribution == "uniform":
                sizes = self._sizes.uniform(*spec.size_range_mi, size=m)
            else:
                from .distributions import bounded_pareto

                sizes = bounded_pareto(
                    m,
                    spec.size_range_mi[0],
                    spec.size_range_mi[1],
                    spec.pareto_alpha,
                    self._sizes,
                )
            idx = prio_idx[start : start + m]
            lo = bands[idx, 0]
            hi = bands[idx, 1]
            slack_fraction = lo + (hi - lo) * slack_u[start : start + m]
            act = sizes / spec.reference_speed_mips
            deadline = arrivals + act * (1.0 + slack_fraction)

            rows = store.bulk_append(
                range(start, start + m), sizes, arrivals, act, deadline
            )
            for row in range(rows.start, rows.stop):
                yield Task._view(store, row)

    def __iter__(self) -> Iterator[Task]:
        """Stream tasks lazily (the service-ingress producer protocol)."""
        return self.iter_tasks()
