"""Q+ learning baseline — extended from Tan, Liu & Qiu [12] (paper §II).

The original is a power-management Q-learner: per managed component, the
agent chooses ``go_active`` / ``go_sleep`` when the observed state
changes; the Q-value is the product of power consumption and delay
(minimized), and "multiple Q-values [are updated] in each cycle at …
various learning rates" to speed learning.

Extension to this system model: one agent per compute node decides
whether the node is *active* (accepts assignments) or *sleeping*
(receives nothing, so its processors power-gate via the platform's idle
timeout).  Every decision interval the agent scores the elapsed interval
with ``cost = power × delay`` and updates a multi-rate Q-table; the
scheduler dispatches the EDF-ordered backlog to shortest-queue active
nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cluster.node import ComputeNode
from ..rl.dense import DenseMultiRateQTable
from ..sim.fold import fold_sum
from ..workload.task import Task
from .common import SingletonScheduler, shortest_queue_node

__all__ = ["QPlusLearningScheduler"]

ACTIONS = ("go_active", "go_sleep")


class _NodeAgent:
    """Per-node active/sleep power manager; *on_toggle* is called each
    time the agent switches between active and sleeping."""

    def __init__(
        self,
        node: ComputeNode,
        table: DenseMultiRateQTable,
        on_toggle: Callable[[], None],
    ) -> None:
        self.node = node
        self.table = table
        self._on_toggle = on_toggle
        self._active_policy = node.sleep_policy
        self.active = True
        self._last_energy = 0.0
        self._last_completed = 0
        self._rt_accum = 0.0
        self._last_state: Optional[tuple] = None
        self._last_action: Optional[str] = None

    def observe(self, backlog_pressure: int) -> tuple:
        pending = self.node.pending_tasks
        pending_level = 0 if pending == 0 else (1 if pending <= 4 else 2)
        pressure_level = 0 if backlog_pressure == 0 else (
            1 if backlog_pressure < 20 else 2
        )
        return (pending_level, pressure_level, int(self.active))

    def score_interval(self, now: float, interval: float, rt_ref: float) -> float:
        """Cost of the elapsed interval: power × delay (minimized)."""
        energy = self.node.processor_energy(now)
        interval_energy = energy - self._last_energy
        self._last_energy = energy
        power = interval_energy / interval
        # Delay proxy: pending work normalized by node speed.
        pending = self.node.pending_tasks
        delay = rt_ref * (1 + pending)
        return power * delay

    def decide(
        self,
        state: tuple,
        epsilon: float,
        rng,
    ) -> str:
        if rng.random() < epsilon:
            action = ACTIONS[int(rng.integers(2))]
        else:
            # Minimize cost: best action = argmin Q → use negated values.
            q_active = self.table.q(state, "go_active")
            q_sleep = self.table.q(state, "go_sleep")
            action = "go_active" if q_active <= q_sleep else "go_sleep"
        self._last_state = state
        self._last_action = action
        self._set_active(action == "go_active")
        return action

    def _set_active(self, active: bool) -> None:
        """Apply the chosen power state to the node (go_active/go_sleep)."""
        from ..cluster.node import SleepPolicy

        if active == self.active:
            return
        if active:
            self.node.set_sleep_policy(self._active_policy)
        else:
            # go_sleep: gate idle processors immediately; queued work
            # still drains (the original never drops accepted jobs).
            self.node.set_sleep_policy(
                SleepPolicy(allow_sleep=True, idle_timeout=0.0, wake_latency=2.0)
            )
        self.active = active
        self._on_toggle()

    def learn(self, cost: float, next_state: tuple) -> None:
        if self._last_state is None or self._last_action is None:
            return
        # Q stores *cost* (power × delay); the decision rule minimizes it.
        self.table.update(
            self._last_state,
            self._last_action,
            cost,
            next_state=next_state,
            next_actions=ACTIONS,
        )


class QPlusLearningScheduler(SingletonScheduler):
    """Node-level active/sleep Q+ power management with EDF dispatch."""

    name = "Q+ learning"

    def __init__(
        self,
        decision_interval: float = 20.0,
        epsilon: float = 0.3,
        epsilon_decay: float = 0.985,
        alpha: float = 0.3,
        gamma: float = 0.4,
        neighbor_rate: float = 0.25,
    ) -> None:
        super().__init__()
        if decision_interval <= 0:
            raise ValueError("decision_interval must be positive")
        self.decision_interval = decision_interval
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self._alpha = alpha
        self._gamma = gamma
        self._neighbor_rate = neighbor_rate
        self.node_agents: Dict[str, _NodeAgent] = {}
        #: The active agents' nodes in node order; None after a toggle.
        self._awake: Optional[list[ComputeNode]] = None
        self._rng = None
        self._mean_speed = 750.0
        self._size_sum = 0.0
        self._size_count = 0

    def _setup(self) -> None:
        assert self.env is not None and self.system is not None
        assert self.streams is not None
        self._rng = self.streams["baseline.qplus"]
        self._mean_speed = (
            fold_sum(p.speed_mips for p in self.system.processors)
            / self.system.num_processors
        )
        for node in self.system.nodes:
            self.node_agents[node.node_id] = _NodeAgent(
                node,
                DenseMultiRateQTable(
                    ACTIONS,
                    alpha=self._alpha,
                    gamma=self._gamma,
                    neighbor_rate=self._neighbor_rate,
                ),
                self._agent_toggled,
            )
        self.env.process(self._decision_loop())

    def _decision_loop(self):
        assert self.env is not None
        while True:
            yield self.env.timeout(self.decision_interval)
            now = self.env.now
            pressure = len(self.backlog)
            for agent in self.node_agents.values():
                cost = agent.score_interval(
                    now, self.decision_interval, self._rt_ref
                )
                next_state = agent.observe(pressure)
                agent.learn(cost, next_state)
                agent.decide(next_state, self.epsilon, self._rng)
            # Never let every node sleep while work is waiting.
            if pressure > 0 and not any(
                a.active for a in self.node_agents.values()
            ):
                fastest = max(
                    self.node_agents.values(),
                    key=lambda a: a.node.total_speed_mips,
                )
                fastest._set_active(True)
            self.epsilon = max(0.02, self.epsilon * self.epsilon_decay)
            self.kick()

    def submit(self, task) -> None:
        self._size_sum += task.size_mi
        self._size_count += 1
        super().submit(task)

    @property
    def _rt_ref(self) -> float:
        """Mean observed service demand — delay normalization scale."""
        if self._size_count == 0:
            return 1.0
        return (self._size_sum / self._size_count) / self._mean_speed

    # -- dispatch -------------------------------------------------------------
    def _order_backlog(self) -> None:
        self.backlog.sort(key=lambda t: t.deadline)

    def _agent_toggled(self) -> None:
        self._awake = None

    def _pick_node(self, task: Task) -> Optional[ComputeNode]:
        awake = self._awake
        if awake is None:
            awake = self._awake = [
                a.node for a in self.node_agents.values() if a.active
            ]
        return shortest_queue_node(awake)

    @property
    def active_nodes(self) -> int:
        return sum(1 for a in self.node_agents.values() if a.active)
