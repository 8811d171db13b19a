"""The shared-learning memory (paper §III.B, §IV.C).

"In each resource site, an agent resides and agents … share a long-term
memory (shared-learning memory).  Each agent is limited to keep and update
15 cycles of its learning experiences."

The memory stores one :class:`Experience` per completed action per agent
in a 15-slot ring; any agent can query the best (maximum learning value,
Eq. 7) experience — optionally restricted to a matching discrete state —
which is exactly what §IV.C prescribes on reward regression.

Best-experience queries are served from an incrementally maintained
index: one maximum-``l_val`` entry per discrete state plus a global
maximum, both updated on ring insert and rebuilt (with exact scan
semantics) on the rare evictions that remove an indexed winner.  The
full scan, :meth:`SharedLearningMemory.scan_best_experience`, is not a
query path: it is the reference the strict-mode auditor and the tests
hold the index to, including the "first maximum in agent-creation/ring
order wins" tie-break — see ``tests/core/test_shared_memory.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..rl.replay import ReplayRing
from .actions import GroupingAction
from .state import DiscreteState

__all__ = ["Experience", "SharedLearningMemory", "AGENT_MEMORY_CYCLES"]

#: Per-agent experience budget, fixed by the paper (§III.B).
AGENT_MEMORY_CYCLES = 15


@dataclass(frozen=True)
class Experience:
    """One learning experience: an action and its evaluated feedback."""

    agent_id: str
    cycle: int
    state: DiscreteState
    action: GroupingAction
    l_val: float
    reward: int
    error: float
    time: float


class SharedLearningMemory:
    """Cross-agent experience store with per-agent ring eviction."""

    def __init__(self, cycles_per_agent: int = AGENT_MEMORY_CYCLES) -> None:
        if cycles_per_agent <= 0:
            raise ValueError("cycles_per_agent must be positive")
        self.cycles_per_agent = cycles_per_agent
        self._rings: Dict[str, ReplayRing[Experience]] = {}
        #: Agent-creation order; the scan's tie-break ("first maximum in
        #: iteration order wins") reduces to comparing these indices.
        self._order: Dict[str, int] = {}
        self._count = 0
        self._best_by_state: Dict[DiscreteState, Experience] = {}
        self._best_global: Optional[Experience] = None
        self.total_records = 0
        #: Ring-eviction and query traffic counters (plain int adds on
        #: non-hot paths) — the flight recorder's convergence probe turns
        #: them into hit/evict-rate series (repro.obs.convergence).
        self.evictions = 0
        self.queries = 0
        self.state_hits = 0

    def record(self, experience: Experience) -> None:
        """Store *experience* in its agent's ring (evicting the oldest)."""
        ring = self._rings.get(experience.agent_id)
        if ring is None:
            ring = ReplayRing(self.cycles_per_agent)
            self._rings[experience.agent_id] = ring
            self._order[experience.agent_id] = len(self._order)
        evicted: Optional[Experience] = None
        if len(ring) == ring.capacity:
            evicted = ring.oldest()
            self.evictions += 1
        else:
            self._count += 1
        ring.append(experience)
        self.total_records += 1
        self._index_insert(experience, evicted)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Experience]:
        for ring in self._rings.values():
            yield from ring

    @property
    def agents(self) -> list[str]:
        return sorted(self._rings)

    def experiences_for(self, agent_id: str) -> list[Experience]:
        """This agent's stored experiences, oldest first."""
        ring = self._rings.get(agent_id)
        return list(ring) if ring is not None else []

    def best_action(
        self, state: Optional[DiscreteState] = None
    ) -> Optional[GroupingAction]:
        """Action of the maximum-``l_val`` experience across all agents.

        With *state* given, prefer experiences recorded in that exact
        discrete state and fall back to the global best when none match
        (the paper's fallback "considering the action with the maximum
        learning value", §IV.C).
        """
        best = self.best_experience(state)
        return best.action if best is not None else None

    def best_experience(
        self, state: Optional[DiscreteState] = None
    ) -> Optional[Experience]:
        """The maximum-``l_val`` experience (state-matching preferred)."""
        self.queries += 1
        if state is not None:
            match = self._best_by_state.get(state)
            if match is not None:
                self.state_hits += 1
                return match
        return self._best_global

    def scan_best_experience(
        self, state: Optional[DiscreteState] = None
    ) -> Optional[Experience]:
        """Reference full scan the index must agree with (read by the
        auditor and the tests; queries go through the index)."""
        best_match: Optional[Experience] = None
        best_any: Optional[Experience] = None
        for exp in self:
            if best_any is None or exp.l_val > best_any.l_val:
                best_any = exp
            if state is not None and exp.state == state:
                if best_match is None or exp.l_val > best_match.l_val:
                    best_match = exp
        return best_match if best_match is not None else best_any

    # -- index maintenance ---------------------------------------------------
    def _index_insert(
        self, experience: Experience, evicted: Optional[Experience]
    ) -> None:
        # Rebuild stale winners first.  The new experience is already in
        # its ring, so these rescans see exactly what a query-time scan
        # would; identity (not equality) pins the evicted winner.
        if evicted is not None:
            if self._best_by_state.get(evicted.state) is evicted:
                best = self._rescan_state(evicted.state)
                if best is None:
                    del self._best_by_state[evicted.state]
                else:
                    self._best_by_state[evicted.state] = best
            if self._best_global is evicted:
                self._best_global = self._rescan_global()
        cur = self._best_by_state.get(experience.state)
        if cur is None or self._beats(experience, cur):
            self._best_by_state[experience.state] = experience
        if self._best_global is None or self._beats(
            experience, self._best_global
        ):
            self._best_global = experience

    def _beats(self, new: Experience, cur: Experience) -> bool:
        """True when *new* would displace *cur* under scan semantics.

        The scan keeps the first maximum in iteration order (rings in
        agent-creation order, oldest → newest within a ring).  A freshly
        recorded experience is the newest entry of its ring, so on an
        ``l_val`` tie it only precedes *cur* when its agent's ring was
        created earlier.
        """
        if new.l_val != cur.l_val:
            return new.l_val > cur.l_val
        return self._order[new.agent_id] < self._order[cur.agent_id]

    def _rescan_state(self, state: DiscreteState) -> Optional[Experience]:
        best: Optional[Experience] = None
        for exp in self:
            if exp.state == state and (best is None or exp.l_val > best.l_val):
                best = exp
        return best

    def _rescan_global(self) -> Optional[Experience]:
        best: Optional[Experience] = None
        for exp in self:
            if best is None or exp.l_val > best.l_val:
                best = exp
        return best
