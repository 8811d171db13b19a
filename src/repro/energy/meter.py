"""Event-driven energy integration per processor (Eq. 5 and extensions).

A :class:`ProcessorEnergyMeter` records state transitions (busy / idle /
sleep) with timestamps and integrates ``power × time`` exactly — no
sampling error.  The paper's per-processor energy

    ``PPj = pmax · Σ ETi + pmin · t_idle``            (Eq. 5)

is the special case with no sleep time.

Struct-of-arrays layout
-----------------------
Since the columnar refactor a meter owns no accumulators: all Eq. 5
state (current power state, last-transition time, the six per-state
time/energy totals, the DVFS override, the per-state profile powers)
lives in the module-level :class:`MeterBank` — one plain Python list
per field, one row per meter (see :mod:`repro.sim.columnar`), so every
cell is a Python ``float`` or ``int``.  The meter object is a
``(bank, row)`` view whose methods perform the identical IEEE-754
operations on the cells.  The strict-mode auditor reads a meter through
:meth:`~ProcessorEnergyMeter.snapshot`; tests write the bank cells to
provoke violations.

Learning-cycle usage
--------------------
Figures 9–10 read, on every learning cycle, the system's busy and
powered (busy + idle) time so far.  Rather than rescanning every meter,
each :class:`~repro.cluster.system.System` keeps a :class:`UsageTally`
that :meth:`ProcessorEnergyMeter.set_state` and
:meth:`~ProcessorEnergyMeter.finalize` update at every transition.  It
holds times as exact integer counts of 2**-1074 (every finite double is
a whole multiple of it), so reading it costs O(1) and rounds once: the
result is the correctly rounded sum, equal bit for bit to the
``math.fsum`` rescan :meth:`MeterBank.sample_cycle` computes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import frexp, fsum
from typing import Iterable, Optional

from .power_model import PowerProfile

__all__ = [
    "ProcState",
    "ProcessorEnergyMeter",
    "EnergyBreakdown",
    "MeterBank",
    "UsageTally",
]


class ProcState(enum.Enum):
    """Power states a processor can occupy."""

    BUSY = "busy"
    IDLE = "idle"
    SLEEP = "sleep"


#: Column encoding of :class:`ProcState` (int codes).
BUSY_CODE, IDLE_CODE, SLEEP_CODE = 0, 1, 2
_STATE_TO_CODE = {
    ProcState.BUSY: BUSY_CODE,
    ProcState.IDLE: IDLE_CODE,
    ProcState.SLEEP: SLEEP_CODE,
}
_CODE_TO_STATE = (ProcState.BUSY, ProcState.IDLE, ProcState.SLEEP)

_NAN = float("nan")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-state time and energy totals for one processor."""

    busy_time: float
    idle_time: float
    sleep_time: float
    busy_energy: float
    idle_energy: float
    sleep_energy: float

    @property
    def total_time(self) -> float:
        return self.busy_time + self.idle_time + self.sleep_time

    @property
    def total_energy(self) -> float:
        """``PPj`` — total energy consumed by the processor."""
        return self.busy_energy + self.idle_energy + self.sleep_energy

    @property
    def utilization(self) -> float:
        """Fraction of non-sleep wall time spent busy.

        The paper defines utilization as "the percentage of time the
        processor was busy servicing tasks" (§V, Experiment 2); we measure
        it against powered-on time (busy + idle).  When the processor
        never powered on, utilization is 0.
        """
        powered = self.busy_time + self.idle_time
        return self.busy_time / powered if powered > 0 else 0.0


class MeterBank:
    """Columnar Eq. 5 accumulators across every meter in the process.

    Rows are append-only and never recycled.  Meters are created at
    system-construction time and mutated by the single engine thread,
    so access is lock-free.
    """

    __slots__ = (
        "state",
        "since",
        "busy_time",
        "idle_time",
        "sleep_time",
        "busy_energy",
        "idle_energy",
        "sleep_energy",
        "power_override",
        "finalized_at",
        "p_busy",
        "p_idle",
        "p_sleep",
    )

    def __init__(self) -> None:
        self.state: list[int] = []
        self.since: list[float] = []
        self.busy_time: list[float] = []
        self.idle_time: list[float] = []
        self.sleep_time: list[float] = []
        self.busy_energy: list[float] = []
        self.idle_energy: list[float] = []
        self.sleep_energy: list[float] = []
        #: DVFS busy-power override; NaN = "use the profile's draw".
        self.power_override: list[float] = []
        #: Finalization time; NaN = still metering.
        self.finalized_at: list[float] = []
        # Per-state profile powers, denormalized per row so power reads
        # never touch the profile objects.
        self.p_busy: list[float] = []
        self.p_idle: list[float] = []
        self.p_sleep: list[float] = []

    def __len__(self) -> int:
        return len(self.since)

    def add(self, profile: PowerProfile, start_time: float) -> int:
        """Allocate a row for a new meter (initially IDLE)."""
        row = len(self.state)
        self.state.append(IDLE_CODE)
        self.since.append(start_time)
        self.busy_time.append(0.0)
        self.idle_time.append(0.0)
        self.sleep_time.append(0.0)
        self.busy_energy.append(0.0)
        self.idle_energy.append(0.0)
        self.sleep_energy.append(0.0)
        self.power_override.append(_NAN)
        self.finalized_at.append(_NAN)
        self.p_busy.append(profile.power_at(ProcState.BUSY.value))
        self.p_idle.append(profile.power_at(ProcState.IDLE.value))
        self.p_sleep.append(profile.power_at(ProcState.SLEEP.value))
        return row

    def sample_cycle(self, rows: Iterable[int], now: float):
        """``(busy_sum, powered_sum, busy_count)`` over *rows* at *now*.

        A full rescan: each sum is ``math.fsum`` over the closed times,
        one ``now`` per live meter in the state and the negated
        ``since`` of each, so it is the correctly rounded exact sum.  A
        :class:`UsageTally` over the same meters must equal it bit for
        bit; the tests and the strict-mode auditor compare the two.
        """
        busy: list[float] = []
        powered: list[float] = []
        busy_count = 0
        for row in rows:
            code = self.state[row]
            busy.append(self.busy_time[row])
            powered.append(self.busy_time[row])
            powered.append(self.idle_time[row])
            if code == BUSY_CODE:
                busy_count += 1
            finalized = self.finalized_at[row]
            if finalized != finalized and code != SLEEP_CODE:
                open_span = (now, -self.since[row])
                powered.extend(open_span)
                if code == BUSY_CODE:
                    busy.extend(open_span)
        return fsum(busy), fsum(powered), busy_count


def _units(x: float) -> int:
    """*x* as an exact integer count of 2**-1074."""
    mantissa, exponent = frexp(x)
    whole = int(mantissa * 9007199254740992.0)  # × 2**53: exact
    shift = exponent + 1021
    return whole << shift if shift >= 0 else whole >> -shift


#: 2**1074 units make one second; dividing a unit count by it (an
#: integer true division) rounds exactly once.
_UNITS_PER_SECOND = 1 << 1074


class UsageTally:
    """Exact running busy and powered time over one system's meters.

    For busy and for idle it holds, in units of 2**-1074, the closed
    time of its meters minus the ``since`` of the live meters now in
    that state, plus the number of those meters; the time they are
    accruing is then that number times ``now``.  Meters update it at
    every transition (:meth:`ProcessorEnergyMeter.set_state`,
    :meth:`~ProcessorEnergyMeter.finalize`), so :meth:`times` is O(1).
    """

    __slots__ = ("busy_units", "idle_units", "live_busy", "live_idle", "busy")

    def __init__(self) -> None:
        self.busy_units = 0
        self.idle_units = 0
        #: Unfinalized meters in the BUSY / IDLE state.
        self.live_busy = 0
        self.live_idle = 0
        #: Meters whose state is BUSY, finalized or not.
        self.busy = 0

    def add(self, meter: "ProcessorEnergyMeter") -> None:
        """Include *meter*: its closed times and, while it is live, its
        open span.  The meter keeps the tally current from then on."""
        bank, row = meter._bank, meter._row
        self.busy_units += _units(bank.busy_time[row])
        self.idle_units += _units(bank.idle_time[row])
        code = bank.state[row]
        if code == BUSY_CODE:
            self.busy += 1
        finalized = bank.finalized_at[row]
        if finalized != finalized:  # NaN: still metering
            self._open(code, bank.since[row])
        meter._tally = self

    def _open(self, code: int, since: float) -> None:
        """A live meter entered *code* at *since*."""
        if code == BUSY_CODE:
            self.busy_units -= _units(since)
            self.live_busy += 1
        elif code == IDLE_CODE:
            self.idle_units -= _units(since)
            self.live_idle += 1

    def _close(self, code: int, since: float, closed: float, total: float) -> None:
        """A live meter left *code*, entered at *since*, whose closed
        time in it went from *closed* to *total*."""
        if code == BUSY_CODE:
            self.busy_units += _units(total) - _units(closed) + _units(since)
            self.live_busy -= 1
        elif code == IDLE_CODE:
            self.idle_units += _units(total) - _units(closed) + _units(since)
            self.live_idle -= 1

    def times(self, now: float) -> tuple[float, float]:
        """``(busy_time, powered_time)`` summed over the meters at *now*."""
        t = _units(now)
        busy = self.busy_units + self.live_busy * t
        powered = busy + self.idle_units + self.live_idle * t
        return busy / _UNITS_PER_SECOND, powered / _UNITS_PER_SECOND


#: Process-wide bank backing every :class:`ProcessorEnergyMeter`.
BANK = MeterBank()


class ProcessorEnergyMeter:
    """Integrates a single processor's energy across state transitions.

    A ``(bank, row)`` view over :data:`BANK` (see module docstring); the
    public surface is unchanged from the per-object version.
    Deliberately no ``__slots__``: the strict-mode auditor shims
    ``set_state``/``finalize`` per instance.
    """

    def __init__(self, profile: PowerProfile, start_time: float = 0.0) -> None:
        self.profile = profile
        #: Time metering began — kept so auditors can check time closure
        #: (``busy + idle + sleep == last_transition − start_time``).
        self.start_time = float(start_time)
        self._bank = BANK
        self._row = BANK.add(profile, self.start_time)
        # Optional observability hookup (None keeps set_state at one
        # extra attribute check); see bind_telemetry().
        self._telemetry = None
        self.owner: str = ""
        #: The owning system's usage tally, bound by UsageTally.add.
        self._tally: Optional[UsageTally] = None

    def bind_telemetry(self, telemetry, owner: str) -> None:
        """Attach a :class:`~repro.obs.Telemetry` that receives an
        ``energy.state`` trace event on every state transition, tagged
        with *owner* (the processor id)."""
        self._telemetry = telemetry
        self.owner = owner

    # -- public surface --------------------------------------------------
    @property
    def state(self) -> ProcState:
        """The processor's current power state."""
        return _CODE_TO_STATE[self._bank.state[self._row]]

    @property
    def last_transition(self) -> float:
        """Time of the most recent state change."""
        return self._bank.since[self._row]

    def set_state(
        self, state: ProcState, now: float, power_w: Optional[float] = None
    ) -> None:
        """Transition to *state* at time *now*, charging the elapsed span.

        ``power_w`` overrides the profile's draw for the *new* state —
        used by DVFS, where busy power depends on the frequency the task
        runs at rather than on the state alone.
        """
        bank, row = self._bank, self._row
        finalized = bank.finalized_at[row]
        if finalized == finalized:
            raise RuntimeError("meter already finalized")
        if not isinstance(state, ProcState):
            raise TypeError(f"state must be a ProcState, got {state!r}")
        if power_w is not None and power_w < 0:
            raise ValueError("power_w must be non-negative")
        tel = self._telemetry
        code = _STATE_TO_CODE[state]
        previous = bank.state[row]
        if tel is not None and tel.tracing and code != previous:
            tel.emit(
                "energy",
                "state",
                now,
                proc=self.owner,
                from_state=_CODE_TO_STATE[previous].value,
                to_state=state.value,
            )
        self._charge(now)
        bank.state[row] = code
        bank.power_override[row] = _NAN if power_w is None else power_w
        tally = self._tally
        if tally is not None:
            if previous == BUSY_CODE:
                tally.busy -= 1
            if code == BUSY_CODE:
                tally.busy += 1
            tally._open(code, now)

    def _current_power(self) -> float:
        bank, row = self._bank, self._row
        override = bank.power_override[row]
        if override == override:
            return override
        code = bank.state[row]
        if code == BUSY_CODE:
            return bank.p_busy[row]
        if code == IDLE_CODE:
            return bank.p_idle[row]
        return bank.p_sleep[row]

    def _charge(self, now: float) -> None:
        bank, row = self._bank, self._row
        since = bank.since[row]
        if now < since:
            raise ValueError(
                f"time moved backwards: {now} < last transition {since}"
            )
        span = now - since
        code = bank.state[row]
        if code == BUSY_CODE:
            times, energies = bank.busy_time, bank.busy_energy
        elif code == IDLE_CODE:
            times, energies = bank.idle_time, bank.idle_energy
        else:
            times, energies = bank.sleep_time, bank.sleep_energy
        closed = total = times[row]
        if span > 0:
            total = times[row] = closed + span
            energies[row] += span * self._current_power()
        bank.since[row] = now
        tally = self._tally
        if tally is not None:
            tally._close(code, since, closed, total)

    def finalize(self, now: float) -> EnergyBreakdown:
        """Charge the final span and freeze the meter."""
        finalized = self._bank.finalized_at[self._row]
        if finalized == finalized:
            raise RuntimeError("meter already finalized")
        self._charge(now)
        self._bank.finalized_at[self._row] = now
        return self.snapshot()

    def snapshot(self, now: float | None = None) -> EnergyBreakdown:
        """Breakdown as of the last transition (or *now* if given).

        Passing *now* includes the currently accruing span without
        mutating the meter.
        """
        bank, row = self._bank, self._row
        busy_time = bank.busy_time[row]
        idle_time = bank.idle_time[row]
        sleep_time = bank.sleep_time[row]
        busy_energy = bank.busy_energy[row]
        idle_energy = bank.idle_energy[row]
        sleep_energy = bank.sleep_energy[row]
        finalized = bank.finalized_at[row]
        if now is not None and finalized != finalized:
            since = bank.since[row]
            if now < since:
                raise ValueError("snapshot time precedes last transition")
            span = now - since
            accrued = span * self._current_power()
            code = bank.state[row]
            if code == BUSY_CODE:
                busy_time += span
                busy_energy += accrued
            elif code == IDLE_CODE:
                idle_time += span
                idle_energy += accrued
            else:
                sleep_time += span
                sleep_energy += accrued
        return EnergyBreakdown(
            busy_time=busy_time,
            idle_time=idle_time,
            sleep_time=sleep_time,
            busy_energy=busy_energy,
            idle_energy=idle_energy,
            sleep_energy=sleep_energy,
        )

    def energy_at(self, now: float) -> float:
        """``PPj`` as of *now*: ``snapshot(now).total_energy`` bit for
        bit, from the same additions in the same order, building no
        breakdown."""
        bank, row = self._bank, self._row
        busy = bank.busy_energy[row]
        idle = bank.idle_energy[row]
        sleep = bank.sleep_energy[row]
        finalized = bank.finalized_at[row]
        if finalized != finalized:
            since = bank.since[row]
            if now < since:
                raise ValueError("snapshot time precedes last transition")
            accrued = (now - since) * self._current_power()
            code = bank.state[row]
            if code == BUSY_CODE:
                busy += accrued
            elif code == IDLE_CODE:
                idle += accrued
            else:
                sleep += accrued
        return busy + idle + sleep
