"""Online RL baseline — extended from Tesauro et al. [11] (paper §II, §V).

The original manages power/performance of a blade cluster by learning a
CPU-throttling powercap, with "a multi-criteria objective function …
taking both power and performance into account" and "the simple random
walk policy … for setting the powercap".

Extension to this system model (the paper evaluates such an "extended
version"): the powercap becomes the *fraction of compute nodes eligible
for assignment* (fastest nodes first — the original keeps CPUs at the
highest frequency).  Every fixed decision interval the controller scores
the elapsed interval with the multi-criteria reward

    ``r = −(RT/RT_ref + P/P_ref) / 2``

and Q-learns over (discretized state × cap level); exploration proposes
the random-walk neighbor of the current cap.  Between decisions, tasks
are dispatched FIFO to the shortest-queue *eligible* node.
"""

from __future__ import annotations

import math
from typing import Optional

from ..cluster.node import ComputeNode
from ..rl.exploration import RandomWalk
from ..rl.qlearning import QTable
from ..sim.fold import fold_sum
from ..workload.task import Task
from .common import SingletonScheduler, shortest_queue_node

__all__ = ["OnlineRLScheduler"]

#: Discrete powercap levels (fraction of nodes eligible).
CAP_LEVELS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class OnlineRLScheduler(SingletonScheduler):
    """Interval-driven powercap controller with Q-learning."""

    name = "Online RL"

    def __init__(
        self,
        decision_interval: float = 25.0,
        epsilon: float = 0.35,
        epsilon_decay: float = 0.98,
        alpha: float = 0.25,
        gamma: float = 0.5,
    ) -> None:
        super().__init__()
        if decision_interval <= 0:
            raise ValueError("decision_interval must be positive")
        self.decision_interval = decision_interval
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.table = QTable(alpha=alpha, gamma=gamma)
        self.cap = 1.0
        self.cap_history: list[tuple[float, float]] = []
        self._walk: Optional[RandomWalk] = None
        self._rng = None
        self._eligible: list[ComputeNode] = []
        #: The platform's nodes sorted by id (the positional blade order).
        self._by_id: list[ComputeNode] = []
        # Interval accounting.
        self._interval_completed_idx = 0
        self._last_energy = 0.0
        self._last_state: Optional[tuple] = None
        self._last_action: Optional[float] = None
        self._mean_speed = 750.0
        self._size_sum = 0.0
        self._size_count = 0
        self._power_ref = 1.0

    # -- setup -------------------------------------------------------------
    def _setup(self) -> None:
        assert self.env is not None and self.system is not None
        assert self.streams is not None
        self._rng = self.streams["baseline.online_rl"]
        self._walk = RandomWalk(
            self._rng, initial=1.0, bounds=(CAP_LEVELS[0], 1.0), step_size=0.1
        )
        # Reference scales for reward normalization: the mean observed
        # task service time (updated online from submissions), and the
        # platform's all-idle power draw.
        self._mean_speed = (
            fold_sum(p.speed_mips for p in self.system.processors)
            / self.system.num_processors
        )
        self._size_sum = 0.0
        self._size_count = 0
        self._power_ref = fold_sum(
            p.profile.p_min_w for p in self.system.processors
        )
        # The original manages a homogeneous blade cluster: the eligible
        # subset is positional, not speed-sorted.
        self._by_id = sorted(self.system.nodes, key=lambda n: n.node_id)
        self._apply_cap(1.0)
        self.env.process(self._decision_loop())

    # -- powercap ------------------------------------------------------------
    def _apply_cap(self, cap: float) -> None:
        """Set the powercap: the eligible node set and its power states.

        Faithful to [11]: eligible nodes keep their CPUs at full
        readiness ("CPUs operate at the highest frequency under all
        workload conditions") — they never power-gate; the powercap
        saves energy solely by shrinking the eligible set, whose
        excluded nodes gate immediately.
        """
        assert self.system is not None and self.env is not None
        from ..cluster.node import SleepPolicy

        self.cap = cap
        nodes = self._by_id
        k = max(1, math.ceil(cap * len(nodes)))
        self._eligible = nodes[:k]
        eligible_ids = {n.node_id for n in self._eligible}
        for node in nodes:
            if node.node_id in eligible_ids:
                # Eligible blades stay at high readiness: only a long
                # idle spell gates them (the original keeps CPUs at the
                # highest frequency under all workload conditions).
                node.set_sleep_policy(
                    SleepPolicy(allow_sleep=True, idle_timeout=100.0, wake_latency=2.0)
                )
            else:
                node.set_sleep_policy(
                    SleepPolicy(allow_sleep=True, idle_timeout=0.0, wake_latency=2.0)
                )
        self.cap_history.append((self.env.now, cap))

    def _observe(self) -> tuple:
        assert self.system is not None
        backlog = len(self.backlog)
        pending = self.system.pending_tasks
        busy = self.system.busy_processors() / self.system.num_processors
        load_level = 0 if pending + backlog < 10 else (1 if pending + backlog < 40 else 2)
        busy_level = 0 if busy < 0.25 else (1 if busy < 0.6 else 2)
        return (load_level, busy_level)

    @staticmethod
    def _nearest_cap(value: float) -> float:
        return min(CAP_LEVELS, key=lambda c: abs(c - value))

    # -- decision loop -------------------------------------------------------
    def _decision_loop(self):
        """Random-walk powercap proposals filtered by learned Q-values.

        Literal to [11]: "the simple random walk policy is used for
        setting the powercap".  Each decision proposes the walk's
        neighbor of the current cap; the proposal is accepted when
        exploring or when its learned value is at least the incumbent's.
        Single-step moves keep the power consequences of each cap
        observable, which is what makes the Q-values converge.
        """
        assert self.env is not None and self.system is not None
        while True:
            yield self.env.timeout(self.decision_interval)
            self._learn_interval()
            state = self._observe()
            waiting = len(self.backlog) + self.system.pending_tasks
            if waiting > 1.5 * self.system.num_processors:
                # Performance constraint: the controller never lets the
                # powercap bind while the SLA is collapsing ([11]'s
                # policy trades power only within performance targets).
                cap = min(1.0, self._nearest_cap(self.cap + 0.1))
            else:
                proposal = self._nearest_cap(self._walk.step())
                if self._rng.random() < self.epsilon:
                    cap = proposal
                elif self.table.q(state, proposal) >= self.table.q(
                    state, self.cap
                ):
                    cap = proposal
                else:
                    cap = self._nearest_cap(self.cap)
            self._walk.value = cap
            self.epsilon = max(0.02, self.epsilon * self.epsilon_decay)
            self._last_state = state
            self._last_action = cap
            self._apply_cap(cap)
            self.kick()

    def _learn_interval(self) -> None:
        """Score the elapsed interval and update the Q-table."""
        assert self.env is not None and self.system is not None
        # The stream logs each completion's response time, in completion
        # order, as the task completes.
        log = self.stream.response_log
        responses = log[self._interval_completed_idx :]
        self._interval_completed_idx = len(log)
        if self._last_state is None or self._last_action is None:
            return
        # Instantaneous draw at the interval boundary: attributes power
        # cleanly to the cap that was in force.  Folded over every
        # processor in platform order, from the nodes' cached draws.
        interval_power = fold_sum(
            w for node in self.system.nodes for w in node.processor_power_w
        )
        if responses:
            mean_rt = fold_sum(responses) / len(responses)
        else:
            mean_rt = self._rt_ref
        # Backlog pressure is the leading indicator of an over-tight cap:
        # response times of *completed* tasks lag the damage by a full
        # queueing delay, so the perf term takes whichever is worse.
        waiting = len(self.backlog) + self.system.pending_tasks
        queue_factor = waiting / self.system.num_processors
        perf_norm = max(mean_rt / self._rt_ref, queue_factor)
        reward = -0.5 * (perf_norm + interval_power / self._power_ref)
        self.table.update(
            self._last_state,
            self._last_action,
            reward,
            next_state=self._observe(),
            next_actions=CAP_LEVELS,
        )

    # -- assignment -----------------------------------------------------------
    def submit(self, task: Task) -> None:
        self._size_sum += task.size_mi
        self._size_count += 1
        super().submit(task)

    @property
    def _rt_ref(self) -> float:
        """Mean observed service demand — reward normalization scale."""
        if self._size_count == 0:
            return 1.0
        return (self._size_sum / self._size_count) / self._mean_speed

    def _pick_node(self, task: Task) -> Optional[ComputeNode]:
        return shortest_queue_node(self._eligible)
