"""Slack-driven DVFS governor (extension; paper §II discusses DVFS).

The paper's energy mechanism is scheduling-level (grouping, matching,
idle reduction); DVFS is the complementary hardware-level technique it
cites.  This governor adds it as an optional layer: per node, processors
are slowed to the lowest frequency that still covers the pending work's
demanded per-processor rate within its deadline windows (with a safety
factor), clamped to the *energy-optimal* band of the cubic power model.

With ``p_busy(θ) = pmin + Δ·θ³`` and execution time ∝ 1/θ, busy energy
per unit of work is ``pmin/θ + Δ·θ²``, minimized at
``θ* = (pmin / 2Δ)^(1/3)`` (≈ 0.63 for the paper's 48/95 W profile);
running below the per-profile θ* wastes static energy, so the governor
never goes below it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.node import ComputeNode
from ..obs import CAT_ENERGY, NULL_TELEMETRY

__all__ = ["DVFSGovernor", "energy_optimal_scale"]

#: Shortest deadline window counted per pending task (a numpy.float64,
#: like the deadlines, so the window sum never mixes in Python floats).
_EPS = np.float64(1e-6)


def energy_optimal_scale(p_min_w: float, p_max_w: float) -> float:
    """θ* minimizing busy energy per unit work for the cubic model."""
    if not 0 <= p_min_w < p_max_w:
        raise ValueError("need 0 <= p_min_w < p_max_w")
    delta = p_max_w - p_min_w
    return (p_min_w / (2.0 * delta)) ** (1.0 / 3.0)


class DVFSGovernor:
    """Per-node frequency governor driven by deadline slack.

    A pass evaluates only the nodes whose target can differ from the θ
    they run at: nodes with admitted work, and nodes the governor left
    below nominal frequency (an idle node's target is θ = 1.0).  The
    governor is the only code that rescales processors and sets every
    processor of a node to the same θ, so a node whose target equals
    the θ it last set needs no processor visit.
    """

    def __init__(self, safety_factor: float = 1.5) -> None:
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be at least 1")
        self.safety_factor = safety_factor
        self.adjustments = 0
        #: Telemetry sink; the owning scheduler installs its own.
        self.telemetry = NULL_TELEMETRY
        #: Nodes the governor left below nominal frequency -> their θ.
        self._scaled: dict[ComputeNode, float] = {}
        #: Nodes held at θ = 1.0 -> the work epoch that demanded it.
        self._saturated: dict[ComputeNode, tuple[float, ...]] = {}
        #: Per-node θ floor (a node's processor set never changes).
        self._floors: dict[ComputeNode, float] = {}

    def target_scale(self, node: ComputeNode, now: float) -> float:
        """The frequency scale the node's processors should run at."""
        deadlines = node.pending_deadlines
        if not deadlines:
            return 1.0
        k = min(len(deadlines), node.num_processors)
        # Every term is a numpy.float64, so sum() folds left to right
        # with one rounded IEEE add per term on every Python version
        # (3.12 compensates only exact Python floats).
        mean_window = sum(max(d - now, _EPS) for d in deadlines) / len(
            deadlines
        )
        # Demanded MI/time per concurrently busy processor.
        per_proc_demand = (node.pending_size_mi / k) / mean_window
        mean_speed = node.total_speed_mips / node.num_processors
        needed = self.safety_factor * per_proc_demand / mean_speed
        floor = self._floors.get(node)
        if floor is None:
            profile = node.processors[0].profile
            floor = self._floors[node] = max(
                energy_optimal_scale(profile.p_min_w, profile.p_max_w), 0.5
            )
        return min(max(needed, floor), 1.0)

    def apply(self, nodes: Sequence[ComputeNode], now: float) -> None:
        """Set every node's processors to its target scale."""
        tel = self.telemetry
        scaled = self._scaled
        saturated = self._saturated
        for node in nodes:
            if not node._active_groups and node not in scaled:
                continue
            deadlines = node.pending_deadlines
            # Within one work epoch (the same deadline tuple object) a
            # target of θ = 1.0 stays 1.0: ``now`` never decreases, each
            # term max(d - now, eps) is non-increasing in it, and
            # rounded IEEE add/sub/mul/div are monotone in each operand,
            # so the mean window cannot grow and ``needed`` cannot
            # shrink.  (``()`` is a shared singleton, never an epoch.)
            if saturated.get(node) is deadlines:
                continue
            theta = self.target_scale(node, now)
            if theta == 1.0 and deadlines:
                saturated[node] = deadlines
            if theta == scaled.get(node, 1.0):
                continue
            if theta < 1.0:
                scaled[node] = theta
            else:
                del scaled[node]
            changed = 0
            for proc in node.processors:
                if proc.frequency_scale != theta:
                    previous = proc.frequency_scale
                    proc.set_frequency_scale(theta)
                    self.adjustments += 1
                    changed += 1
                    if tel.tracing:
                        tel.emit(
                            CAT_ENERGY,
                            "dvfs",
                            now,
                            proc=proc.pid,
                            node=node.node_id,
                            scale=proc.frequency_scale,
                            previous=previous,
                        )
            if changed and tel.metering:
                tel.metrics.counter("energy.dvfs_adjustments").inc(changed)
