"""The per-site scheduling agent (paper §IV.B–§IV.D).

Each resource site hosts one agent.  Per learning cycle the agent

1. observes the aggregated node state ``Sc(t)`` of its site,
2. selects a grouping action — ε-greedy over its value model, seeded
   from the shared-learning memory for unseen states, and overridden by
   the memory's maximum-``l_val`` action after a reward regression
   (§IV.C),
3. merges backlog tasks into groups (§IV.D.1) and assigns each group to
   the free-slot node minimizing the fitting error of Eq. 9,
4. on group completion, computes the feedback signals (Eqs. 7–9),
   records the experience in the shared memory, and updates its value
   model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..cluster.node import ComputeNode, load_and_power
from ..cluster.site import ResourceSite
from ..cluster.taskgroup import TaskGroup
from ..obs import CAT_GROUP, CAT_MEMORY, CAT_RL, NULL_TELEMETRY, Telemetry
from ..rl.exploration import EpsilonGreedy
from ..sim.fold import fold_sum
from .actions import GroupingAction, GroupingMode, action_space
from .feedback import FeedbackRecord, grouping_error
from .grouping import Backlog, merge_next_group
from .shared_memory import Experience, SharedLearningMemory
from .state import DiscreteState, SiteObservation, discretize
from .value_models import ValueModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Scheduler

__all__ = ["SiteAgent", "PendingAction"]

#: Placement-score weights (see :meth:`SiteAgent._best_node`), calibrated
#: so the reproduction exhibits the paper's reported relationships:
#: lowest AveRT at every load with energy at-or-below Online RL's
#: (Figures 7–8).  The time term uses the group's deadline window, the
#: energy term the marginal Eq. 6 contribution, the error term Eq. 9,
#: and the wake term penalizes un-gating sleeping processors.
W_TIME = 0.6
W_ENERGY = 0.8
W_ERROR = 0.15
W_WAKE = 0.5

#: Metric names of the action counters, by action mode and by how the
#: action was chosen (built once, not per decision).
_MODE_METRICS = {mode: f"rl.actions.{mode}" for mode in GroupingMode.ALL}
_SOURCE_METRICS = {
    source: f"rl.actions.source.{source}"
    for source in ("policy", "memory-seed", "memory-override")
}


@dataclass
class PendingAction:
    """Bookkeeping linking an in-flight group to the decision behind it."""

    state: DiscreteState
    obs: SiteObservation
    action: GroupingAction


class SiteAgent:
    """Learning scheduler agent for one resource site."""

    def __init__(
        self,
        site: ResourceSite,
        value_model: ValueModel,
        exploration: EpsilonGreedy,
        memory: Optional[SharedLearningMemory],
        grouping_enabled: bool = True,
        telemetry: Optional[Telemetry] = None,
        scheduler: Optional["Scheduler"] = None,
    ) -> None:
        """Create the agent for *site*.

        ``exploration`` drives trial-and-error over the *whole* schedule
        (§IV.B: the action the agent learns is the schedule): with
        probability ε the grouping action is random, and independently
        each group's placement may be a random open node instead of the
        score minimizer.  ε decays once per feedback event (completed
        group), so learning progress spans the run regardless of load.

        ``scheduler`` is the scheduler whose passes drive the agent; its
        learning-cycle count is the agent's :attr:`cycles`.
        """
        self.site = site
        self.scheduler = scheduler
        self.agent_id = f"agent.{site.site_id}"
        self.value_model = value_model
        self.exploration = exploration
        self.memory = memory
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.backlog = Backlog()
        if grouping_enabled:
            self.actions = action_space(site.max_group_size)
        else:
            # TG ablation: the only action is singleton grouping.
            self.actions = (GroupingAction(GroupingMode.MIXED, 1),)
        self._max_power_w = fold_sum(
            p.profile.p_max_w for n in site.nodes for p in n.processors
        )
        self._total_queue_slots = sum(n.queue_slots for n in site.nodes)
        self._total_capacity = site.total_processing_capacity
        #: Each node's weighted energy term of the placement score: its
        #: marginal ECS relative to a reference node (750 MIPS
        #: processors, 5 of them).  Static, like the processor set.
        self._energy_term = {
            n: W_ENERGY
            * (
                (750.0 / (n.total_speed_mips / n.num_processors))
                * (5.0 / n.num_processors)
            )
            for n in site.nodes
        }
        self._pending: Dict[int, PendingAction] = {}
        self._last_hit_fraction: Optional[float] = None
        self._regressed = False
        #: How the most recent action was chosen: "policy",
        #: "memory-seed" (unseen-state bootstrap), or "memory-override"
        #: (reward-regression rule) — recorded for telemetry.
        self._action_source = "policy"
        self.groups_dispatched = 0
        self.feedbacks: int = 0
        #: Cumulative feedback signals, folded in only while telemetry is
        #: active — the flight recorder's convergence probe reads them as
        #: windowed means (repro.obs.convergence).
        self.reward_sum: float = 0.0
        self.l_val_sum: float = 0.0

    @property
    def cycles(self) -> int:
        """Learning cycles run so far: the scheduler's pass count (0 for
        an agent without one).  Every pass is a cycle of every agent,
        whether or not its backlog gave it work."""
        scheduler = self.scheduler
        return 0 if scheduler is None else scheduler.learning_cycles

    # -- observation -------------------------------------------------------
    def observe(self) -> tuple[DiscreteState, SiteObservation]:
        """The site's ``Sc(t)``, equal bit for bit to
        ``observe_site(site.nodes, …)``: the integer terms come from the
        site's index and the capacity term was folded at construction,
        so only load and power are folded here, in node order."""
        site = self.site
        total_load, power = load_and_power(site.nodes)
        total_capacity = self._total_capacity
        obs = SiteObservation(
            load_ratio=(
                total_load / total_capacity if total_capacity > 0 else 0.0
            ),
            free_slot_fraction=min(
                site.total_free_slots / self._total_queue_slots, 1.0
            ),
            power_fraction=min(power / self._max_power_w, 1.0),
            open_nodes=site.slotted_nodes,
        )
        return discretize(obs), obs

    # -- action selection -----------------------------------------------------
    def select_action(
        self, state: DiscreteState, obs: SiteObservation
    ) -> GroupingAction:
        """Pick the grouping action for this cycle (§IV.C policy)."""
        if self._regressed and self.memory is not None:
            # Reward regressed: adopt the shared memory's best action.
            self._regressed = False
            remembered = self.memory.best_action(state)
            if remembered is not None and remembered in self.actions:
                self._action_source = "memory-override"
                return remembered
        if (
            self.memory is not None
            and not self.value_model.knows(state, self.actions)
        ):
            # Unseen state: bootstrap from other agents' experiences
            # instead of acting blindly ("the agent improves its action
            # not only by learning from its feedback signal, but also
            # from other agents' experiences", §IV.B).
            remembered = self.memory.best_action(state)
            if remembered is not None and remembered in self.actions:
                self._action_source = "memory-seed"
                return remembered
        # ε-greedy, unrolled so the greedy branch can use the value
        # model's O(1) best_action instead of materializing all values.
        # RNG-stream identical to ``exploration.select``: one uniform
        # draw, plus one integer draw only when exploring.
        self._action_source = "policy"
        if self.exploration.explore():
            return self.actions[
                self.exploration.random_index(len(self.actions))
            ]
        return self.value_model.best_action(state, obs, self.actions)

    # -- scheduling pass ---------------------------------------------------
    def run_pass(self, now: float, backlog_patience: float) -> int:
        """Group and assign backlog tasks; returns groups dispatched."""
        backlog = self.backlog
        tasks = backlog.tasks
        if not tasks:
            return 0

        state, obs = self.observe()
        action = self.select_action(state, obs)
        tel = self.telemetry
        if tel.active:
            self._record_action(action, now)
        dispatched = 0

        oldest = backlog.oldest_arrival
        aged = oldest is not None and (now - oldest) >= backlog_patience
        # With spare nodes standing fully idle there is no reason to hold
        # tasks back for merging — capacity is abundant, dispatch now.
        site = self.site
        spare_capacity = site.spare_nodes > 0

        profiling = tel.profiling
        while tasks:
            # Read per group: the last submission may have closed a node.
            open_nodes = site.open_nodes
            if not open_nodes:
                break
            if profiling:
                t0 = tel.profiler.start()
                group = merge_next_group(
                    backlog,
                    action,
                    now,
                    allow_undersized=aged or spare_capacity,
                )
                tel.profiler.stop("agent.grouping", t0)
            else:
                group = merge_next_group(
                    backlog,
                    action,
                    now,
                    allow_undersized=aged or spare_capacity,
                )
            if group is None:
                break
            if profiling:
                t0 = tel.profiler.start()
                node = self._best_node(
                    group, open_nodes, now, explore=self.exploration.explore()
                )
                tel.profiler.stop("agent.placement", t0)
            else:
                node = self._best_node(
                    group, open_nodes, now, explore=self.exploration.explore()
                )
            group.error = grouping_error(group.pw, node.processing_capacity)
            self._pending[group.gid] = PendingAction(state, obs, action)
            submitted = node.try_submit(group)
            assert submitted, "open_nodes filter guarantees a free slot"
            dispatched += 1
            self.groups_dispatched += 1
            if tel.active:
                if tel.tracing:
                    tel.emit(
                        CAT_GROUP,
                        "merge",
                        now,
                        gid=group.gid,
                        agent=self.agent_id,
                        size=len(group),
                        mode=action.mode,
                        opnum=action.opnum,
                    )
                    tel.emit(
                        CAT_GROUP,
                        "dispatch",
                        now,
                        gid=group.gid,
                        agent=self.agent_id,
                        node=node.node_id,
                        size=len(group),
                        size_mi=group.size_mi,
                        error=group.error,
                    )
                if tel.metering:
                    metrics = tel.metrics
                    metrics.counter("sched.groups_dispatched").inc()
                    metrics.histogram("sched.group_size").observe(len(group))
        return dispatched

    def _record_action(self, action: GroupingAction, now: float) -> None:
        """Telemetry for one ε-greedy / memory action selection."""
        tel = self.telemetry
        source = self._action_source
        epsilon = self.exploration.epsilon
        if tel.tracing:
            tel.emit(
                CAT_RL,
                "action",
                now,
                agent=self.agent_id,
                mode=action.mode,
                opnum=action.opnum,
                epsilon=epsilon,
                source=source,
            )
            if source != "policy":
                tel.emit(
                    CAT_MEMORY,
                    "override" if source == "memory-override" else "seed",
                    now,
                    agent=self.agent_id,
                    mode=action.mode,
                    opnum=action.opnum,
                )
        if tel.metering:
            metrics = tel.metrics
            metrics.counter(_MODE_METRICS[action.mode]).inc()
            metrics.counter(_SOURCE_METRICS[source]).inc()
            metrics.gauge("rl.epsilon").set(epsilon)

    def _best_node(
        self,
        group: TaskGroup,
        open_nodes: list[ComputeNode],
        now: float,
        explore: bool = False,
    ) -> ComputeNode:
        """Node on which the group's processing capacity is "considerably
        favored" (§IV).

        The score blends (a) the estimated fraction of the group's
        deadline window consumed by queueing plus execution on the node,
        (b) the group's marginal contribution to the paper's energy
        metric ``ECS`` (Eq. 6 normalizes node energy by processor count,
        so fast many-processor nodes are energy-favored — "the grouping
        technique … incorporates current workload and energy consumption
        for the best action", abstract), (c) the Eq. 9 fitting error
        mapped into [0, 1), and (d) a consolidation term penalizing the
        wake-up of power-gated nodes so spare nodes stay asleep.
        """
        if explore:
            return open_nodes[self.exploration.random_index(len(open_nodes))]
        deadlines = group.deadlines
        window = 0
        for deadline in deadlines:
            window += deadline - now
        window = max(window / len(deadlines), 1e-6)
        size_mi = group.size_mi
        pw = group.pw
        energy_term = self._energy_term
        # One pass, keeping the first node of least (score, node_id):
        # what ``min(open_nodes, key=lambda n: (score, n.node_id))``
        # returns.
        best = best_value = best_id = None
        for node in open_nodes:
            speed, pending_mi, capacity, sleeping_frac = node.placement_terms()
            err = grouping_error(pw, capacity)
            value = (
                W_TIME * (pending_mi / speed + size_mi / speed) / window
                + energy_term[node]
                + W_ERROR * err / (1.0 + err)
                + W_WAKE * sleeping_frac
            )
            if best is None or (
                value < best_value
                or (value == best_value and node.node_id < best_id)
            ):
                best, best_value, best_id = node, value, node.node_id
        return best

    # -- feedback ---------------------------------------------------------
    def group_completed(self, group: TaskGroup, now: float) -> Optional[FeedbackRecord]:
        """Process Eqs. 7–9 feedback for a completed group."""
        pending = self._pending.pop(group.gid, None)
        if pending is None:
            return None
        assert group.error is not None
        record = FeedbackRecord(
            deadline_hits=group.reward(),
            group_size=len(group),
            error=group.error,
        )
        self.feedbacks += 1
        # ε decays per feedback event so that learning progress is paced
        # by experience, not by pass frequency.
        self.exploration.step()

        next_state, next_obs = self.observe()
        self.value_model.update(
            pending.state,
            pending.obs,
            pending.action,
            record.q_reward,
            next_state,
            next_obs,
            self.actions,
        )
        if self.memory is not None:
            self.memory.record(
                Experience(
                    agent_id=self.agent_id,
                    cycle=self.cycles,
                    state=pending.state,
                    action=pending.action,
                    l_val=record.l_val,
                    reward=record.reward,
                    error=record.error,
                    time=now,
                )
            )
        # Reward-regression rule (§IV.C): if the deadline-hit rate fell
        # below the previous group's, consult the shared memory next
        # cycle.
        previous_hit_fraction = self._last_hit_fraction
        hit_fraction = record.hit_fraction
        regressed = (
            previous_hit_fraction is not None
            and hit_fraction < previous_hit_fraction
        )
        if regressed:
            self._regressed = True
        self._last_hit_fraction = hit_fraction

        tel = self.telemetry
        if tel.active:
            self.reward_sum += record.reward
            self.l_val_sum += record.l_val
            if tel.tracing:
                tel.emit(
                    CAT_GROUP,
                    "complete",
                    now,
                    gid=group.gid,
                    agent=self.agent_id,
                    size=len(group),
                )
                tel.emit(
                    CAT_RL,
                    "reward",
                    now,
                    agent=self.agent_id,
                    gid=group.gid,
                    reward=record.reward,
                    l_val=record.l_val,
                    error=record.error,
                    hit_fraction=record.hit_fraction,
                    epsilon=self.exploration.epsilon,
                )
                if regressed:
                    tel.emit(
                        CAT_RL,
                        "regression",
                        now,
                        agent=self.agent_id,
                        hit_fraction=record.hit_fraction,
                        previous=previous_hit_fraction,
                    )
            if tel.metering:
                metrics = tel.metrics
                metrics.counter("rl.feedbacks").inc()
                metrics.histogram("rl.l_val").observe(record.l_val)
                if regressed:
                    metrics.counter("rl.regressions").inc()
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SiteAgent {self.agent_id} backlog={len(self.backlog)} "
            f"cycles={self.cycles}>"
        )
