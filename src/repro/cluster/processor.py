"""Processor model (paper §III.B).

A processor has a speed in MIPS (uniform 500–1000 in the paper's
experiments) and a :class:`~repro.energy.power_model.PowerProfile`; its
energy is integrated by an attached
:class:`~repro.energy.meter.ProcessorEnergyMeter`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..energy.meter import ProcessorEnergyMeter, ProcState
from ..energy.power_model import PowerProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import ComputeNode

__all__ = ["Processor", "SPEED_RANGE_MIPS", "MIN_FREQUENCY_SCALE"]

#: Processing-speed range used by the paper's experiments (§V.A).
SPEED_RANGE_MIPS = (500.0, 1000.0)
#: Lowest DVFS frequency scale (typical of real governors).
MIN_FREQUENCY_SCALE = 0.5


class Processor:
    """One processor inside a compute node.

    Supports optional dynamic voltage/frequency scaling (an extension —
    the paper discusses DVFS as the complementary energy-saving
    technique, §II): the frequency scale θ ∈ [0.5, 1] multiplies the
    effective speed, and busy power follows the standard cubic model
    ``p_busy(θ) = pmin + (pmax − pmin)·θ³`` (dynamic power ∝ f·V² with
    V ∝ f).  Frequency changes apply to *subsequently started* tasks.
    """

    def __init__(
        self,
        pid: str,
        speed_mips: float,
        profile: PowerProfile,
        start_time: float = 0.0,
    ) -> None:
        if speed_mips <= 0:
            raise ValueError(f"processor {pid}: speed must be positive")
        self.pid = pid
        self.speed_mips = float(speed_mips)
        self.profile = profile
        self.meter = ProcessorEnergyMeter(profile, start_time=start_time)
        #: Count of tasks this processor has completed.
        self.tasks_completed = 0
        self._freq_scale = 1.0
        #: Busy power at the current frequency scale (cubic model): set
        #: here and at each rescale, as the frequency is the only input
        #: that changes.
        self.busy_power_w = self._busy_power()
        #: The owning node, set by it: a rescale marks the node's cached
        #: power snapshot stale (frequency sets busy power).
        self.node: Optional["ComputeNode"] = None

    # -- DVFS -----------------------------------------------------------
    @property
    def frequency_scale(self) -> float:
        """Current DVFS scale θ (1.0 = nominal frequency)."""
        return self._freq_scale

    def set_frequency_scale(self, theta: float) -> None:
        """Set the DVFS scale; clamped to [MIN_FREQUENCY_SCALE, 1].

        Marks the owning node's power snapshot stale unless it already
        is, so rescaling a node's m processors marks the node once.
        """
        if MIN_FREQUENCY_SCALE <= theta <= 1.0:
            self._freq_scale = theta
        elif not theta > 0:
            raise ValueError("frequency scale must be positive")
        else:
            self._freq_scale = min(max(theta, MIN_FREQUENCY_SCALE), 1.0)
        self.busy_power_w = self._busy_power()
        node = self.node
        if node is not None and not node._power_dirty:
            node._mark_power_dirty()

    @property
    def effective_speed_mips(self) -> float:
        """Speed at the current frequency scale."""
        return self.speed_mips * self._freq_scale

    def _busy_power(self) -> float:
        p = self.profile
        return p.p_min_w + (p.p_max_w - p.p_min_w) * self._freq_scale**3

    # -- state ------------------------------------------------------------
    @property
    def state(self) -> ProcState:
        """Current power state (busy / idle / sleep)."""
        return self.meter.state

    @property
    def current_power_w(self) -> float:
        """Instantaneous power draw, used in the agent state ``PP1..m``."""
        if self.state is ProcState.BUSY:
            return self.busy_power_w
        return self.profile.power_at(self.state.value)

    def execution_time(self, size_mi: float) -> float:
        """``ET = si / spj`` (Eq. 3) at the current frequency scale."""
        if size_mi <= 0:
            raise ValueError("task size must be positive")
        return size_mi / self.effective_speed_mips

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Processor {self.pid} {self.speed_mips:.0f}MIPS {self.state.value}>"
