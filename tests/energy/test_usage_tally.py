"""The system usage tally is exact: it equals a full rescan bit for bit.

Every :class:`~repro.cluster.system.System` keeps a running
:class:`~repro.energy.meter.UsageTally` that the meters update at each
transition; the learning-cycle sampler reads it in O(1).  These tests
drive random submissions, crashes, repairs and DVFS frequency changes
and compare it, after every learning cycle, with the ``math.fsum``
rescan :meth:`MeterBank.sample_cycle`.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceSite
from repro.cluster.system import System
from repro.core.base import Scheduler
from repro.core.dvfs import DVFSGovernor
from repro.energy import constant_power_profile
from repro.energy.meter import (
    BANK,
    ProcessorEnergyMeter,
    ProcState,
    UsageTally,
    _units,
)
from tests.core.test_dvfs import STEPS, GovernedWorld

UNIT = Fraction(1, 2**1074)


@pytest.mark.parametrize(
    "x",
    [
        0.0,
        5e-324,  # smallest subnormal
        2.2250738585072009e-308,  # largest subnormal
        2.2250738585072014e-308,  # smallest normal
        0.1,
        1.0,
        12345.678901,
        1.7976931348623157e308,
    ],
)
def test_units_are_exact(x):
    assert _units(x) == Fraction(x) / UNIT
    assert _units(np.float64(x)) == _units(x)


@given(st.floats(min_value=0.0, allow_infinity=False, allow_nan=False))
def test_units_are_exact_for_any_double(x):
    assert _units(x) == Fraction(x) / UNIT


def rescan(system, now):
    rows = np.array([p.meter._row for p in system.processors], dtype=np.intp)
    return BANK.sample_cycle(rows, now)


def busy_coded(system):
    return sum(p.meter.state is ProcState.BUSY for p in system.processors)


def assert_exact(system, now):
    busy, powered = system.usage.times(now)
    r_busy, r_powered, r_count = rescan(system, now)
    assert (busy.hex(), powered.hex()) == (r_busy.hex(), r_powered.hex())
    assert system.busy_processors() == r_count == busy_coded(system)


class CheckingScheduler(Scheduler):
    """Places nothing itself; checks the sample of every learning cycle
    (node completions, slot releases and crashes trigger the cycles)."""

    name = "checking"

    def __init__(self):
        super().__init__()
        self.checked = 0

    def submit(self, task):
        pass

    def _scheduling_pass(self):
        pass

    def _sample_cycle(self):
        super()._sample_cycle()
        sample = self.cycle_log[-1]
        busy, powered, busy_count = rescan(self.system, self.env.now)
        assert (sample.busy_time.hex(), sample.powered_time.hex()) == (
            busy.hex(),
            powered.hex(),
        )
        assert self.system.busy_processors() == busy_count
        assert busy_count == busy_coded(self.system)
        assert sample.busy_fraction == busy_count / self.system.num_processors
        self.checked += 1


class TestTallyMatchesRescan:
    @given(
        speeds=st.lists(
            st.lists(st.floats(500.0, 1000.0), min_size=1, max_size=4),
            min_size=3,
            max_size=3,
        ),
        steps=st.lists(STEPS, min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_learning_cycle(self, speeds, steps):
        world = GovernedWorld(DVFSGovernor(), speeds)
        system = System(world.env, [ResourceSite("s", world.nodes)])
        scheduler = CheckingScheduler()
        scheduler.attach(world.env, system, streams=None)
        for step in steps:
            world.step(step)
            assert_exact(system, world.env.now)
        end = world.env.now + 1.0
        for proc in system.processors:
            proc.meter.finalize(end)
        assert_exact(system, end + 5.0)

    def test_cycles_were_checked(self):
        world = GovernedWorld(DVFSGovernor(), [[700.0, 800.0], [900.0], [600.0]])
        system = System(world.env, [ResourceSite("s", world.nodes)])
        scheduler = CheckingScheduler()
        scheduler.attach(world.env, system, streams=None)
        world.step((("submit", 0, [(5000.0, 2000.0), (800.0, 10.0)]), 30.0))
        world.step((("fail", 0), 5.0))
        world.step((("repair", 0), 40.0))
        assert scheduler.checked > 0
        assert system.usage.busy == 0
        assert_exact(system, world.env.now)


class TestTallyUnit:
    def make(self, n=3):
        meters = [ProcessorEnergyMeter(constant_power_profile()) for _ in range(n)]
        tally = UsageTally()
        for m in meters:
            tally.add(m)
        return meters, tally

    def test_reads_are_the_exact_sums_rounded_once(self):
        meters, tally = self.make()
        meters[0].set_state(ProcState.BUSY, 0.1)
        meters[1].set_state(ProcState.SLEEP, 0.3)
        meters[0].set_state(ProcState.BUSY, 0.7, power_w=60.0)
        meters[2].set_state(ProcState.BUSY, 1.0 / 3.0)
        meters[1].set_state(ProcState.IDLE, 2.9)
        now = 7.3

        def exact(state):
            closed = sum(
                Fraction(getattr(m.snapshot(), f"{state.value}_time"))
                for m in meters
            )
            return closed + sum(
                Fraction(now) - Fraction(m.last_transition)
                for m in meters
                if m.state is state
            )

        busy, powered = tally.times(now)
        assert busy == float(exact(ProcState.BUSY))
        assert powered == float(exact(ProcState.BUSY) + exact(ProcState.IDLE))
        assert tally.busy == 2
        assert (tally.live_busy, tally.live_idle) == (2, 1)

    def test_finalize_closes_the_open_spans(self):
        meters, tally = self.make(2)
        meters[0].set_state(ProcState.BUSY, 1.5)
        for m in meters:
            m.finalize(4.0)
        assert tally.times(100.0) == (2.5, 8.0)
        # A finalized meter keeps its state: it still counts as busy.
        assert (tally.busy, tally.live_busy, tally.live_idle) == (1, 0, 0)

    def test_finalize_twice_is_refused(self):
        meters, tally = self.make(1)
        meters[0].finalize(2.0)
        with pytest.raises(RuntimeError):
            meters[0].finalize(3.0)
        assert tally.times(9.0) == (0.0, 2.0)
