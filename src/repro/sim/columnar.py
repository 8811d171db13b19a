"""Struct-of-arrays layout for the simulation core, and tick batches.

Tasks, meters and completion logs are stored *one field across many
records*: a store holds one plain Python list per field, one row per
record, and the object API is a thin view holding only ``(store, row)``.
Three stores use this layout:

- :class:`~repro.workload.taskstore.TaskStore` — task fields, with
  :class:`~repro.workload.task.Task` as a 2-slot view;
- :class:`~repro.energy.meter.MeterBank` — Eq. 5 accumulators for every
  processor, with :class:`~repro.energy.meter.ProcessorEnergyMeter` as a
  view;
- :class:`~repro.metrics.streaming.StreamingRunStats` — response and
  wait times in completion order.

Lists, not NumPy arrays, because nearly all of the traffic is scalar:
an event reads or writes a few cells.  A list cell is the Python
``float`` or ``int`` itself, so the clock, every timestamp and every
accumulator stay Python scalars; an ndarray cell read boxes a
``numpy.float64`` whose arithmetic is several times slower.  Bulk
producers still validate and classify vectorized and fill the lists
with ``ndarray.tolist()``; the two bulk readers build what they need
from the lists per call.  Rows are append-only, so a ``(store, row)``
view stays valid for the life of its store.

Sums over these floats go through :func:`~repro.sim.fold.fold_sum`,
never builtin ``sum()`` (see that module).

This module keeps the kernel-level columnar event source,
:class:`TickBatch`: a sorted block of bare clock ticks the run loop
drains by ``searchsorted``, not by allocating one event object per tick.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TickBatch"]


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
