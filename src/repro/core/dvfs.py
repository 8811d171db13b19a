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
from heapq import heappop, heappush
from typing import Iterable, Sequence

from ..cluster.node import ComputeNode
from ..cluster.processor import MIN_FREQUENCY_SCALE
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

    A pass evaluates only its *wake set*, in node order: the nodes whose
    target can differ from the θ they run at.  :meth:`watch` puts every
    node in it and has each node rejoin it whenever its admitted work
    changes.  An evaluation decides how long the node may sleep:

    - θ = 1.0 takes the node out until its work changes.  Until then
      only ``now`` varies; each window term ``max(d - now, ε)`` is
      non-increasing in it, and rounded IEEE operations are monotone in
      each operand, so the target never drops.
    - θ = floor takes the node out until its work changes or the
      horizon of :meth:`_floor_horizon` passes; a calendar keyed by
      horizon wakes it then.
    - Any other θ leaves it in, since the target moves with the clock.

    A woken node idle at nominal frequency leaves unevaluated: its
    target is θ = 1.0.  The governor is the only code that rescales
    processors and sets every processor of a node to the same θ, so a
    node whose target is unchanged needs no processor visit, and one
    whose target moved needs each processor set once.
    """

    def __init__(self, safety_factor: float = 1.5) -> None:
        if not safety_factor >= 1.0:
            raise ValueError("safety_factor must be at least 1")
        self.safety_factor = safety_factor
        self.adjustments = 0
        #: Telemetry sink; the owning scheduler installs its own.
        self.telemetry = NULL_TELEMETRY
        #: Nodes the governor left below nominal frequency -> their θ.
        self._scaled: dict[ComputeNode, float] = {}
        #: Per-node (mean processor speed, θ floor); a node's processor
        #: set never changes.
        self._constants: dict[ComputeNode, tuple[float, float]] = {}
        #: The watched nodes, and each one's index among them.
        self._nodes: list[ComputeNode] = []
        self._order: dict[ComputeNode, int] = {}
        #: Nodes the next pass must evaluate.
        self._wake: set[ComputeNode] = set()
        #: Nodes asleep at their floor -> the horizon of their live
        #: calendar entry.
        self._asleep: dict[ComputeNode, float] = {}
        #: Heap of (horizon, node index); an entry whose node has been
        #: evaluated since is stale and wakes nothing.
        self._calendar: list[tuple[float, int]] = []

    def watch(self, nodes: Sequence[ComputeNode]) -> None:
        """Govern *nodes*, evaluated in this order; each rejoins the
        wake set whenever its admitted work changes."""
        self._nodes = list(nodes)
        self._order = {node: i for i, node in enumerate(self._nodes)}
        wake = self._wake
        for node in self._nodes:
            node._work_watcher = wake.add
        wake.update(self._nodes)

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

    def _floor_horizon(self, node: ComputeNode) -> float:
        """A time up to which the target provably is the floor, while
        the node's work stays as it is.

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
        deadlines = node.pending_deadlines
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

    def _due(self, nodes: Iterable[ComputeNode]) -> list[ComputeNode]:
        """*nodes* that have work or run below nominal, in node order."""
        scaled = self._scaled
        return sorted(
            (n for n in nodes if n._active_groups or n in scaled),
            key=self._order.__getitem__,
        )

    def due_nodes(self, now: float) -> list[ComputeNode]:
        """The nodes :meth:`apply` at *now* would evaluate, in node order
        (read-only: the calendar is not advanced)."""
        woken = [n for n, horizon in self._asleep.items() if horizon < now]
        return self._due(self._wake.union(woken))

    def apply(self, now: float) -> None:
        """Wake the floor sleepers whose horizon has passed, evaluate the
        wake set and rescale every node whose target moved."""
        wake = self._wake
        asleep = self._asleep
        calendar = self._calendar
        while calendar and calendar[0][0] < now:
            horizon, index = heappop(calendar)
            node = self._nodes[index]
            if asleep.get(node) == horizon:
                del asleep[node]
                wake.add(node)
        if not wake:
            return
        due = self._due(wake)
        wake.clear()
        tel = self.telemetry
        scaled = self._scaled
        for node in due:
            asleep.pop(node, None)
            theta = self.target_scale(node, now)
            if theta != 1.0:
                if theta == self._constants[node][1]:
                    horizon = self._floor_horizon(node)
                    asleep[node] = horizon
                    heappush(calendar, (horizon, self._order[node]))
                else:
                    wake.add(node)
            previous = scaled.get(node, 1.0)
            if theta == previous:
                continue
            if theta < 1.0:
                scaled[node] = theta
            else:
                del scaled[node]
            # Every processor runs at ``previous``, so each one changes.
            procs = node.processors
            for proc in procs:
                proc.set_frequency_scale(theta)
            self.adjustments += len(procs)
            if tel.tracing:
                for proc in procs:
                    tel.emit(
                        CAT_ENERGY,
                        "dvfs",
                        now,
                        proc=proc.pid,
                        node=node.node_id,
                        scale=proc.frequency_scale,
                        previous=previous,
                    )
            if tel.metering:
                tel.metrics.counter("energy.dvfs_adjustments").inc(len(procs))
