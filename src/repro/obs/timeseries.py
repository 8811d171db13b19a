"""Flight recorder: columnar ring-buffer time series and the kernel sampler.

A :class:`TimeSeries` is a preallocated pair of float64 columns (time,
value) written ring-buffer style, so a sampler can append forever in
O(1) without ever growing memory — once capacity is reached the oldest
points fall off and ``dropped`` counts them.  A :class:`SeriesBank` is
the name-keyed collection carried by :class:`~repro.obs.Telemetry`
(``tel.series``) for one run or one merged campaign.

The :class:`PeriodicSampler` drives collection *inside* the simulation:
it schedules itself as a plain kernel timeout every ``every`` simulated
time units and invokes its probes.  Probes only **read** state (system
power, queue depths, scheduler aggregates, RL internals) and never touch
an RNG stream, so attaching a sampler shifts event insertion ids but
leaves the physics — and therefore the golden-seed digests — bit
identical (pinned by ``tests/obs/test_sampler_determinism.py``).
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "SeriesBank",
    "PeriodicSampler",
    "make_run_probes",
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_SERIES_CAPACITY",
]

#: Default sampling cadence in simulated time units.  The paper-scale
#: runs span thousands of time units, so this yields O(100) points per
#: series — dense enough for convergence curves, sparse enough that the
#: sampler is invisible next to the per-task event traffic.
DEFAULT_SAMPLE_EVERY = 50.0

#: Default ring capacity per series (points, not bytes).
DEFAULT_SERIES_CAPACITY = 4096


class TimeSeries:
    """Fixed-capacity columnar (t, v) ring buffer."""

    __slots__ = ("name", "capacity", "_t", "_v", "_total", "_extra_dropped")

    def __init__(
        self, name: str, capacity: int = DEFAULT_SERIES_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("series capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._t = np.empty(capacity, dtype=np.float64)
        self._v = np.empty(capacity, dtype=np.float64)
        #: Points ever appended; the write cursor is ``_total % capacity``.
        self._total = 0
        #: Drops inherited from a restore/merge (points long gone).
        self._extra_dropped = 0

    def append(self, t: float, value: float) -> None:
        """Record one sample (overwrites the oldest once at capacity)."""
        slot = self._total % self.capacity
        self._t[slot] = t
        self._v[slot] = value
        self._total += 1

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def dropped(self) -> int:
        """Samples overwritten by ring wraparound (restores included)."""
        return max(0, self._total - self.capacity) + self._extra_dropped

    def _order(self) -> slice | np.ndarray:
        n = len(self)
        if self._total <= self.capacity:
            return slice(0, n)
        head = self._total % self.capacity
        return np.concatenate(
            [np.arange(head, self.capacity), np.arange(0, head)]
        )

    def times(self) -> np.ndarray:
        """Sample times, oldest first (a copy)."""
        return self._t[self._order()].copy()

    def values(self) -> np.ndarray:
        """Sample values, oldest first (a copy)."""
        return self._v[self._order()].copy()

    def last(self) -> Optional[float]:
        """The most recent value, or None when empty."""
        if self._total == 0:
            return None
        return float(self._v[(self._total - 1) % self.capacity])

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "t": self.times().tolist(),
            "v": self.values().tolist(),
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "TimeSeries":
        series = cls(name, capacity=int(data["capacity"]))
        for t, v in zip(data["t"], data["v"]):
            series.append(float(t), float(v))
        # Restore the drop count exactly (the points themselves are gone).
        series._extra_dropped = int(data.get("dropped", 0))
        return series

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TimeSeries {self.name!r} n={len(self)} dropped={self.dropped}>"


class SeriesBank:
    """Name-keyed store of :class:`TimeSeries` with get-or-create access."""

    def __init__(self, capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("series capacity must be positive")
        self.capacity = capacity
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        """The series registered under *name*, created on first use."""
        s = self._series.get(name)
        if s is None:
            s = TimeSeries(name, capacity=self.capacity)
            self._series[name] = s
        return s

    def record(self, name: str, t: float, value: float) -> None:
        """Shorthand for ``bank.series(name).append(t, value)``."""
        self.series(name).append(t, value)

    def get(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        # list() snapshots the dict in one C-level pass so a concurrent
        # first-sample insertion (live /series.json scrape while the
        # service engine records) cannot raise "changed size during
        # iteration" mid-sort.
        return sorted(list(self._series))

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        for name in self.names():
            yield self._series[name]

    def as_dict(self) -> dict:
        """Flat ``{name: series.to_dict()}`` snapshot (JSON-ready)."""
        return {name: self._series[name].to_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, data: dict) -> "SeriesBank":
        bank = cls()
        for name, payload in data.items():
            bank._series[name] = TimeSeries.from_dict(name, payload)
        return bank

    def merge_from(self, other: "SeriesBank") -> None:
        """Fold *other*'s series into this bank.

        Same-name series interleave their points by sample time (stable:
        existing points win ties), re-ringed at this bank's per-series
        capacity — the view one sampler would have produced had it
        watched both runs.  Drop counts add.
        """
        for theirs in other:
            mine = self._series.get(theirs.name)
            if mine is None:
                self._series[theirs.name] = TimeSeries.from_dict(
                    theirs.name, theirs.to_dict()
                )
                continue
            merged = TimeSeries(mine.name, capacity=mine.capacity)
            points = sorted(
                [
                    *zip(mine.times().tolist(), mine.values().tolist()),
                    *zip(theirs.times().tolist(), theirs.values().tolist()),
                ],
                key=lambda p: p[0],
            )
            for t, v in points:
                merged.append(t, v)
            merged._extra_dropped = mine.dropped + theirs.dropped
            self._series[mine.name] = merged


#: A probe reads simulation state and records samples into the bank.
Probe = Callable[[SeriesBank, float], None]


class PeriodicSampler:
    """Kernel-level periodic sampler driving a set of read-only probes.

    Parameters
    ----------
    bank:
        Destination :class:`SeriesBank`.
    every:
        Sampling cadence in simulated time units.
    until:
        Horizon after which the sampler stops rescheduling itself.
        Without it the self-rescheduling timeout would keep the event
        queue non-empty forever, so it is required.
    """

    def __init__(
        self,
        bank: SeriesBank,
        every: float = DEFAULT_SAMPLE_EVERY,
        until: float = 0.0,
        probes: Sequence[Probe] = (),
    ) -> None:
        if not 0 < every < math.inf:
            raise ValueError("sampling cadence must be positive and finite")
        self.bank = bank
        self.every = every
        self.until = until
        self.probes: List[Probe] = list(probes)
        self.samples = 0
        self._env = None

    def add_probe(self, probe: Probe) -> None:
        self.probes.append(probe)

    def attach(self, env) -> "PeriodicSampler":
        """Start sampling on *env* (first tick one cadence from now)."""
        self._env = env
        if env.now + self.every <= self.until:
            env.timeout(self.every).callbacks.append(self._tick)
        return self

    def _tick(self, _event) -> None:
        env = self._env
        now = env.now
        self.samples += 1
        for probe in self.probes:
            probe(self.bank, now)
        if now + self.every <= self.until:
            env.timeout(self.every).callbacks.append(self._tick)


class _SystemProbe:
    """Per-sample platform readings: power, queues, node/processor states."""

    def __init__(self, system, scheduler, env) -> None:
        self._system = system
        self._scheduler = scheduler
        self._env = env
        self._last_events = 0.0
        self._last_wall = _time.perf_counter()

    def __call__(self, bank: SeriesBank, now: float) -> None:
        # Imported here: repro.sim imports repro.obs.
        from ..sim.fold import fold_sum

        system = self._system
        total_power = 0.0
        pending = 0
        free_slots = 0
        for site in system.sites:
            site_power = fold_sum(n.total_power_w for n in site.nodes)
            bank.record(f"power.site.{site.site_id}", now, site_power)
            total_power += site_power
            # The site index's exact counts, not a scan of its nodes.
            pending += site.pending_tasks
            free_slots += site.total_free_slots
        bank.record("power.system", now, total_power)

        sleeping = 0
        failed = 0
        for node in system.nodes:
            sleeping += node.sleeping_processors
            if node.failed:
                failed += 1
        bank.record("queue.pending_tasks", now, pending)
        bank.record("queue.free_slots", now, free_slots)
        busy = system.busy_processors()
        bank.record("procs.busy", now, busy)
        bank.record("procs.sleeping", now, sleeping)
        bank.record(
            "procs.idle", now, system.num_processors - busy - sleeping
        )
        bank.record("nodes.failed", now, failed)

        sched = self._scheduler
        stream = getattr(sched, "stream", None)
        if stream is not None:
            completed = stream.completed
            hit_rate = stream.hits / completed if completed else 0.0
            bank.record("sched.completed", now, completed)
            bank.record("sched.success_rate", now, hit_rate)
            bank.record(
                "sched.miss_rate", now, 1.0 - hit_rate if completed else 0.0
            )
        backlog = getattr(sched, "total_backlog", None)
        if backlog is not None:
            bank.record("sched.backlog", now, backlog)

        events = self._env.events_processed
        if events is not None:
            wall = _time.perf_counter()
            dt = wall - self._last_wall
            bank.record("sim.events", now, events)
            bank.record(
                "sim.events_per_sec",
                now,
                (events - self._last_events) / dt if dt > 0 else 0.0,
            )
            self._last_events = events
            self._last_wall = wall


def make_run_probes(system, scheduler, env) -> List[Probe]:
    """The standard probe set for one experiment run.

    Platform/scheduler readings always; the RL convergence probe joins
    when the scheduler carries learning agents (duck-typed, so baselines
    sample cleanly without it).
    """
    probes: List[Probe] = [_SystemProbe(system, scheduler, env)]
    if getattr(scheduler, "agents", None):
        from .convergence import ConvergenceProbes

        probes.append(ConvergenceProbes(scheduler))
    return probes
