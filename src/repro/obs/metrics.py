"""Live metrics registry: counters, gauges, and histograms.

Instruments are created lazily by name through a
:class:`MetricsRegistry` (``registry.counter("sim.events_processed")``)
and updated in place on hot paths, so an update is one attribute
assignment — no locks, no label hashing, no allocation.  Names are
hierarchical dotted strings (``layer.metric``); the registry serializes
to a flat JSON-ready dict for ``--metrics-out``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "estimate_bucket_quantiles",
    "QUANTILE_POINTS",
]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set value plus its high-water mark."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high:
            self.high = value

    def reset(self) -> None:
        self.value = 0.0
        self.high = 0.0

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "high": self.high}


#: Default histogram bucket upper bounds — roughly geometric, wide enough
#: for times, sizes, and scores alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0,
)


class Histogram:
    """Bucketed distribution with exact count/sum/min/max.

    ``buckets`` are upper bounds; an implicit ``+inf`` bucket catches the
    tail, so ``sum(bucket_counts) == count`` always holds.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +inf tail
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def to_dict(self) -> dict:
        buckets = {
            **{str(b): c for b, c in zip(self.bounds, self.counts)},
            "+inf": self.counts[-1],
        }
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": buckets,
            "quantiles": estimate_bucket_quantiles(
                buckets,
                self.count,
                lo=self.min if self.count else None,
                hi=self.max if self.count else None,
            ),
        }


#: Quantile points estimated for every histogram snapshot.
QUANTILE_POINTS: Tuple[float, ...] = (0.5, 0.9, 0.99)


def estimate_bucket_quantiles(
    buckets: Dict[str, int],
    count: int,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    points: Sequence[float] = QUANTILE_POINTS,
) -> Optional[dict]:
    """Estimate quantiles from bucket counts by linear interpolation.

    *buckets* is the ``to_dict`` form — upper bounds (as strings) in
    ascending order plus a ``"+inf"`` tail.  Within the bucket holding a
    quantile's rank, the value is interpolated linearly between the
    bucket's edges; the observed ``lo``/``hi`` clamp the open-ended
    first and last buckets (and the estimate overall) to the true data
    range.  Returns ``None`` for an empty histogram.  This is how
    :meth:`Histogram.to_dict` reports its quantiles.
    """
    if count <= 0:
        return None
    bounds = [float(k) if k != "+inf" else math.inf for k in buckets]
    tallies = list(buckets.values())
    out = {}
    for q in points:
        target = q * count
        cumulative = 0
        value = hi if hi is not None else bounds[-2] if len(bounds) > 1 else 0.0
        for i, (bound, tally) in enumerate(zip(bounds, tallies)):
            if tally == 0:
                continue
            if cumulative + tally >= target:
                lower = bounds[i - 1] if i > 0 else (lo if lo is not None else 0.0)
                if math.isinf(bound):
                    # The +inf tail has no upper edge to interpolate
                    # toward; the observed max is the best estimate.
                    value = hi if hi is not None else lower
                else:
                    fraction = (target - cumulative) / tally
                    value = lower + (bound - lower) * fraction
                break
            cumulative += tally
        if lo is not None and value < lo:
            value = lo
        if hi is not None and value > hi:
            value = hi
        out[f"p{int(q * 100)}"] = value
    return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-keyed store of instruments with get-or-create accessors."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls, *args) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get(name, Histogram, buckets)

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument registered under *name*, if any."""
        return self._instruments.get(name)

    def clear(self) -> None:
        """Drop every instrument (names and values).

        Callers holding instrument references keep stale objects; prefer
        :meth:`reset` when hot paths have cached the instruments.
        """
        self._instruments.clear()

    def reset(self) -> None:
        """Zero every instrument in place, keeping registrations.

        The reuse hook for running several experiments through one
        registry in one process: cached instrument references (the sim
        kernel binds its counter once per Environment) stay valid.
        """
        for inst in self._instruments.values():
            inst.reset()

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        for name in self.names():
            yield self._instruments[name]

    def as_dict(self) -> dict:
        """Flat ``{name: instrument.to_dict()}`` snapshot (JSON-ready)."""
        return {name: self._instruments[name].to_dict() for name in self.names()}
