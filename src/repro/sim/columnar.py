"""Struct-of-arrays building blocks for the simulation core.

The object model (tasks, events, meters) is friendly to write against
but hostile to throughput: every field read is a pointer chase, every
record a heap allocation.  The columnar primitives here store *one
field across many records* in a preallocated, amortized-doubling NumPy
array, so bulk construction, bulk reads, and whole-population reductions
run at C speed while per-record access stays available through thin
view objects that hold only ``(store, row)``.

Three layers build on these primitives:

- :class:`~repro.workload.taskstore.TaskStore` — task fields as columns,
  :class:`~repro.workload.task.Task` as a 2-slot view;
- :class:`~repro.energy.meter.MeterBank` — Eq. 5 accumulators for every
  processor as columns, :class:`~repro.energy.meter.ProcessorEnergyMeter`
  as a view;
- :class:`TickBatch` — the kernel-level columnar event source: a sorted
  block of bare clock ticks the run loop drains by `searchsorted`, not
  by allocating one event object per tick.

Growth policy
-------------
Columns grow by doubling (never shrink); ``append`` is amortized O(1)
and ``extend`` is O(k).  A grown column reallocates its backing array —
hold rows, not raw array references, across appends.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["FloatColumn", "IntColumn", "TickBatch"]

#: Smallest backing-array capacity a column allocates.
MIN_CAPACITY = 16


def _grown_capacity(current: int, needed: int) -> int:
    cap = max(current, MIN_CAPACITY)
    while cap < needed:
        cap *= 2
    return cap


class FloatColumn:
    """A growable, preallocated ``float64`` column.

    Scalar reads/writes go through plain indexing on :attr:`data`
    (bounded by :attr:`size`); bulk operations use :meth:`view`, which
    returns the live prefix without copying.
    """

    __slots__ = ("data", "size")

    def __init__(
        self, capacity: int = MIN_CAPACITY, values: Optional[Sequence] = None
    ) -> None:
        if values is not None:
            arr = np.asarray(values, dtype=np.float64)
            cap = _grown_capacity(MIN_CAPACITY, len(arr))
            self.data = np.empty(cap, dtype=np.float64)
            self.data[: len(arr)] = arr
            self.size = len(arr)
            return
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.data = np.empty(
            _grown_capacity(MIN_CAPACITY, capacity), dtype=np.float64
        )
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        if needed > len(self.data):
            new = np.empty(
                _grown_capacity(len(self.data), needed), dtype=np.float64
            )
            new[: self.size] = self.data[: self.size]
            self.data = new

    def append(self, value: float) -> int:
        """Append one value; returns its row index."""
        self._reserve(1)
        row = self.size
        self.data[row] = value
        self.size = row + 1
        return row

    def extend(self, values) -> slice:
        """Append a block of values; returns the slice they occupy."""
        arr = np.asarray(values, dtype=np.float64)
        self._reserve(len(arr))
        start = self.size
        self.data[start : start + len(arr)] = arr
        self.size = start + len(arr)
        return slice(start, self.size)

    def view(self) -> np.ndarray:
        """The live prefix (no copy; invalidated by the next growth)."""
        return self.data[: self.size]

    def __getitem__(self, row):
        if isinstance(row, slice):
            return self.view()[row]
        if not -self.size <= row < self.size:
            raise IndexError(f"row {row} out of range (size {self.size})")
        # Negative rows count from the live prefix end, not the
        # (larger) backing array's.
        return self.data[row + self.size if row < 0 else row]

    def __setitem__(self, row: int, value: float) -> None:
        if not -self.size <= row < self.size:
            raise IndexError(f"row {row} out of range (size {self.size})")
        self.data[row + self.size if row < 0 else row] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FloatColumn size={self.size} cap={len(self.data)}>"


class IntColumn:
    """A growable, preallocated integer column (default ``int64``)."""

    __slots__ = ("data", "size")

    def __init__(self, capacity: int = MIN_CAPACITY, dtype=np.int64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.data = np.zeros(
            _grown_capacity(MIN_CAPACITY, capacity), dtype=dtype
        )
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        if needed > len(self.data):
            new = np.zeros(
                _grown_capacity(len(self.data), needed), dtype=self.data.dtype
            )
            new[: self.size] = self.data[: self.size]
            self.data = new

    def append(self, value: int) -> int:
        self._reserve(1)
        row = self.size
        self.data[row] = value
        self.size = row + 1
        return row

    def extend(self, values) -> slice:
        arr = np.asarray(values, dtype=self.data.dtype)
        self._reserve(len(arr))
        start = self.size
        self.data[start : start + len(arr)] = arr
        self.size = start + len(arr)
        return slice(start, self.size)

    def view(self) -> np.ndarray:
        return self.data[: self.size]

    def __getitem__(self, row):
        if isinstance(row, slice):
            return self.view()[row]
        if not -self.size <= row < self.size:
            raise IndexError(f"row {row} out of range (size {self.size})")
        return self.data[row + self.size if row < 0 else row]

    def __setitem__(self, row: int, value: int) -> None:
        if not -self.size <= row < self.size:
            raise IndexError(f"row {row} out of range (size {self.size})")
        self.data[row + self.size if row < 0 else row] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IntColumn dtype={self.data.dtype} size={self.size} "
            f"cap={len(self.data)}>"
        )


class TickBatch:
    """A sorted block of bare clock ticks scheduled as one columnar unit.

    Each tick behaves exactly like a NORMAL-priority event with no
    callbacks scheduled at its absolute time: processing it advances the
    clock (and the event counter, when armed) and nothing else.  The
    whole batch shares one insertion id, so the kernel's total order
    ``(time, priority, insertion-order)`` stays strict: ticks interleave
    with ordinary events by time, ties resolve on the batch's id, and
    ticks within the batch fire in array order.

    Because ticks carry no payload, the run loop can drain *every tick
    that precedes the next ordinary event* with one ``searchsorted``
    instead of one loop iteration per event — the columnar hot path
    measured by the ``soa_ticks`` kernel-bench scenario.  An audit hook
    or a metering gauge sees every event, so under either each tick is
    processed as its own entry.  Use
    :meth:`Environment.schedule_ticks` to install one; bare ticks suit
    pacing grids, sampling rasters, and horizon fences where only the
    passage of simulated time matters.
    """

    __slots__ = ("times", "cursor", "eid")

    def __init__(self, times: np.ndarray, eid: int) -> None:
        self.times = times
        self.cursor = 0
        self.eid = eid

    @property
    def remaining(self) -> int:
        return len(self.times) - self.cursor

    @property
    def head(self) -> float:
        """Fire time of the next pending tick."""
        return self.times[self.cursor]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TickBatch eid={self.eid} remaining={self.remaining}/"
            f"{len(self.times)}>"
        )
