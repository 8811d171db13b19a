"""Slack-driven DVFS governor (extension; paper §II discusses DVFS).

The paper's energy mechanism is scheduling-level (grouping, matching,
idle reduction); DVFS is the complementary hardware-level technique it
cites.  This governor adds it as an optional layer: per node, processors
are slowed to the lowest frequency that still covers the pending work's
demanded per-processor rate within its deadline windows (with a safety
factor), clamped to the *energy-optimal* band of the cubic power model.

With ``p_busy(θ) = pmin + Δ·θ³`` and execution time ∝ 1/θ, busy energy
per unit of work is ``pmin/θ + Δ·θ²``, minimized at
``θ* = (pmin / 2Δ)^(1/3)`` (≈ 0.80 for the paper's 48/95 W profile:
``(48/94)^(1/3) = 0.7993``); running below the per-profile θ* wastes
static energy, so the governor never goes below it.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..cluster.node import ComputeNode
from ..cluster.processor import MIN_FREQUENCY_SCALE
from ..cluster.system import System
from ..obs import CAT_ENERGY, NULL_TELEMETRY

__all__ = ["DVFSGovernor", "energy_optimal_scale"]

#: Shortest deadline window counted per pending task.
_EPS = 1e-6
#: Relative slack of the floor horizon over the exact crossing; covers
#: every rounding in :meth:`DVFSGovernor.target_scale` and in the
#: horizon itself for nodes with fewer than 10⁷ pending tasks.
_DELTA = 1e-9


def energy_optimal_scale(p_min_w: float, p_max_w: float) -> float:
    """θ* minimizing busy energy per unit work for the cubic model."""
    if not 0 <= p_min_w < p_max_w:
        raise ValueError("need 0 <= p_min_w < p_max_w")
    delta = p_max_w - p_min_w
    return (p_min_w / (2.0 * delta)) ** (1.0 / 3.0)


class DVFSGovernor:
    """Per-node frequency governor driven by deadline slack.

    A pass evaluates only the nodes whose target can differ from the θ
    they run at.  An idle node at nominal frequency is skipped (its
    target is θ = 1.0).  After evaluating a busy node, the governor
    *settles* it: it records the node's work epoch (the
    ``pending_deadlines`` tuple object) and a time until which the
    target provably stays at the θ just set, and skips the node while
    both hold:

    - θ = 1.0 settles for the rest of the epoch.  Within an epoch only
      ``now`` varies; each window term ``max(d - now, ε)`` is
      non-increasing in it, and rounded IEEE operations are monotone in
      each operand, so the target never drops.
    - θ = floor settles until the horizon of :meth:`_floor_horizon`,
      computed from the epoch's deadlines.

    The governor is the only code that rescales processors and sets
    every processor of a node to the same θ, so a node whose target
    equals the θ it last set needs no processor visit.

    A scheduler's pass visits only :meth:`due_nodes`: the platform
    index's nodes with admitted work, and the nodes left below nominal.
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
        #: Settled nodes -> (work epoch, time until which the target
        #: stays at the θ they run at).
        self._settled: dict[ComputeNode, tuple[tuple[float, ...], float]] = {}
        #: Per-node (mean processor speed, θ floor); a node's processor
        #: set never changes.
        self._constants: dict[ComputeNode, tuple[float, float]] = {}

    def _node_constants(self, node: ComputeNode) -> tuple[float, float]:
        """The node's (mean processor speed, θ floor), computed once."""
        constants = self._constants.get(node)
        if constants is None:
            profile = node.processors[0].profile
            constants = self._constants[node] = (
                node.total_speed_mips / node.num_processors,
                max(
                    energy_optimal_scale(profile.p_min_w, profile.p_max_w),
                    MIN_FREQUENCY_SCALE,
                ),
            )
        return constants

    def target_scale(self, node: ComputeNode, now: float) -> float:
        """The frequency scale the node's processors should run at."""
        deadlines = node.pending_deadlines
        if not deadlines:
            return 1.0
        n = len(deadlines)
        k = min(n, node.num_processors)
        # An explicit left fold with one rounded IEEE add per term, the
        # same on every Python version (from 3.12 on, builtin sum()
        # compensates Python floats).
        window = 0.0
        for d in deadlines:
            w = d - now
            window += w if w > _EPS else _EPS
        # Demanded MI/time per concurrently busy processor.
        per_proc_demand = (node.pending_size_mi / k) / (window / n)
        mean_speed, floor = self._node_constants(node)
        needed = self.safety_factor * per_proc_demand / mean_speed
        return min(max(needed, floor), 1.0)

    def _floor_horizon(
        self, node: ComputeNode, deadlines: tuple[float, ...]
    ) -> float:
        """A time up to which the epoch's target provably is the floor.

        With ``n`` deadlines, ``k = min(n, m)``, pending size ``S`` and
        floor ``f``, :meth:`target_scale` returns ``f`` while the window
        fold ``W`` satisfies ``W ≥ c = sf·S·n / (k·mean_speed·f)``.  Each
        term is at least ``(1 - u)·max(d - t, 0)`` (``u = 2⁻⁵³``), so
        ``W ≥ (1 - u)ⁿ·(Σd - n·t)``, and rounding the rest of the chain
        costs at most ``(n + 6)·u`` relative.  The horizon is the ``t``
        where ``Σd - n·t = c·(1 + 2δ) + δ·|Σd|``: ``2δ`` covers that
        relative error and the rounding of ``c``, and ``δ·|Σd|`` the
        rounding of the exact sum and of the horizon's own arithmetic.
        """
        n = len(deadlines)
        mean_speed, floor = self._node_constants(node)
        c = (
            self.safety_factor
            * node.pending_size_mi
            * n
            / (min(n, node.num_processors) * mean_speed * floor)
        )
        total = math.fsum(deadlines)
        return (total - c - _DELTA * (abs(total) + 2.0 * c)) / n

    def due_nodes(self, system: System) -> list[ComputeNode]:
        """The nodes of *system* a pass must visit, in node order.

        Every other node is idle at nominal frequency, which
        :meth:`apply` would skip.  A node left below nominal has
        drained its work only since the last pass, so the second list
        is short, and usually empty.
        """
        loaded = system.loaded_nodes
        drained = [n for n in self._scaled if not n._active_groups]
        if not drained:
            return loaded
        return sorted(loaded + drained, key=system.position)

    def apply(self, nodes: Sequence[ComputeNode], now: float) -> None:
        """Set every node's processors to its target scale."""
        tel = self.telemetry
        scaled = self._scaled
        settled = self._settled
        for node in nodes:
            if not node._active_groups and node not in scaled:
                continue
            deadlines = node.pending_deadlines
            settle = settled.get(node)
            if (
                settle is not None
                and settle[0] is deadlines
                and now <= settle[1]
            ):
                continue
            theta = self.target_scale(node, now)
            # ``()`` is a shared singleton, never an epoch.
            if deadlines:
                if theta == 1.0:
                    settled[node] = (deadlines, math.inf)
                elif theta == self._constants[node][1]:
                    settled[node] = (
                        deadlines,
                        self._floor_horizon(node, deadlines),
                    )
            if theta == scaled.get(node, 1.0):
                continue
            if theta < 1.0:
                scaled[node] = theta
            else:
                del scaled[node]
            changed = 0
            for proc in node.processors:
                previous = proc.frequency_scale
                if previous != theta:
                    proc.set_frequency_scale(theta)
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
            if changed:
                self.adjustments += changed
                if tel.metering:
                    tel.metrics.counter("energy.dvfs_adjustments").inc(changed)
