"""Backend-equivalence properties for the RL fast path.

The dense (array-backed) learning-loop components must be *bit-identical*
to their dict/scan references:

- :class:`DenseQTable` vs :class:`QTable` — values, greedy actions
  (including the "ties → first" rule), best values, and snapshots, over
  arbitrary interleavings of updates and queries;
- :class:`DenseMultiRateQTable` vs :class:`MultiRateQTable` — the Q+
  baseline's multi-rate neighbor refresh over either store;
- indexed ``SharedLearningMemory.best_experience`` vs its full scan —
  including the tie-break "first maximum in agent-creation/ring
  iteration order wins" and index rebuilds after ring evictions.

Equality assertions are exact (``==`` on floats / ``is`` on experiences),
never approximate: the fast path earns its keep only if swapping it in
cannot move a golden digest.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import GroupingAction, GroupingMode
from repro.core.shared_memory import Experience, SharedLearningMemory
from repro.rl import (
    DenseMultiRateQTable,
    DenseQTable,
    MultiRateQTable,
    QTable,
)

ACTIONS = tuple(f"a{i}" for i in range(5))
STATES = [(i,) for i in range(4)]

#: One update: (state idx, action idx, reward, next-state idx or None).
_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(STATES) - 1),
        st.integers(min_value=0, max_value=len(ACTIONS) - 1),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(STATES) - 1)
        ),
    ),
    min_size=1,
    max_size=80,
)


def _apply(table, updates):
    returned = []
    for si, ai, reward, ni in updates:
        next_state = None if ni is None else STATES[ni]
        returned.append(
            table.update(
                STATES[si],
                ACTIONS[ai],
                reward,
                next_state=next_state,
                next_actions=ACTIONS if next_state is not None else (),
            )
        )
    return returned


class TestDenseQTableEquivalence:
    @given(
        updates=_updates,
        alpha=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        gamma=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_dict_backend(self, updates, alpha, gamma):
        ref = QTable(alpha=alpha, gamma=gamma)
        dense = DenseQTable(ACTIONS, alpha=alpha, gamma=gamma)
        assert _apply(ref, updates) == _apply(dense, updates)
        for state in STATES:
            assert ref.values(state, ACTIONS) == dense.values(state, ACTIONS)
            assert ref.best_action(state, ACTIONS) == dense.best_action(
                state, ACTIONS
            )
            assert ref.best_value(state, ACTIONS) == dense.best_value(
                state, ACTIONS
            )
            assert ref.state_known(state, ACTIONS) == dense.state_known(
                state, ACTIONS
            )
        assert ref.snapshot() == dense.snapshot()
        assert len(ref) == len(dense)

    @given(updates=_updates)
    @settings(max_examples=40, deadline=None)
    def test_non_canonical_queries_match(self, updates):
        """Subsets, reorderings, and foreign actions take the slow path —
        results still match the dict backend exactly."""
        ref = QTable(alpha=0.3, gamma=0.5)
        dense = DenseQTable(ACTIONS, alpha=0.3, gamma=0.5)
        _apply(ref, updates)
        _apply(dense, updates)
        weird = (ACTIONS[3], ACTIONS[0], "foreign", ACTIONS[1])
        for state in STATES:
            assert ref.values(state, weird) == dense.values(state, weird)
            assert ref.best_action(state, weird) == dense.best_action(
                state, weird
            )
            assert ref.best_value(state, weird) == dense.best_value(
                state, weird
            )

    @given(
        updates=_updates,
        neighbor_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_multirate_equivalence(self, updates, neighbor_rate):
        ref = MultiRateQTable(alpha=0.4, gamma=0.3, neighbor_rate=neighbor_rate)
        dense = DenseMultiRateQTable(
            ACTIONS, alpha=0.4, gamma=0.3, neighbor_rate=neighbor_rate
        )
        assert _apply(ref, updates) == _apply(dense, updates)
        assert ref.snapshot() == dense.snapshot()

    def test_ties_break_to_first_action(self):
        """Equal values → both backends pick the earliest action."""
        ref = QTable(alpha=1.0)
        dense = DenseQTable(ACTIONS, alpha=1.0)
        for table in (ref, dense):
            # Same value for two non-first actions; zeros elsewhere.
            table.update(STATES[0], ACTIONS[3], 7.0)
            table.update(STATES[0], ACTIONS[1], 7.0)
        assert (
            ref.best_action(STATES[0], ACTIONS)
            == dense.best_action(STATES[0], ACTIONS)
            == ACTIONS[1]
        )
        # All unseen: the first action wins on both backends.
        assert (
            ref.best_action(STATES[1], ACTIONS)
            == dense.best_action(STATES[1], ACTIONS)
            == ACTIONS[0]
        )

    @given(updates=_updates)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_bulk_load_roundtrip(self, updates):
        """snapshot → bulk_load transports tables across backends."""
        ref = QTable(alpha=0.3, gamma=0.5)
        _apply(ref, updates)
        dense = DenseQTable(ACTIONS, alpha=0.3, gamma=0.5)
        dense.bulk_load(ref.snapshot())
        assert dense.snapshot() == ref.snapshot()
        back = QTable(alpha=0.3, gamma=0.5)
        back.bulk_load(dense.snapshot())
        assert back.snapshot() == ref.snapshot()
        for state in STATES:
            assert ref.best_action(state, ACTIONS) == dense.best_action(
                state, ACTIONS
            )


#: One record: (agent idx, state idx, l_val) — a small l_val domain
#: forces frequent ties, the hard part of the index semantics.
_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=120,
)


class TestSharedMemoryIndexEquivalence:
    @given(records=_records, cycles=st.sampled_from([1, 2, 3, 15]))
    @settings(max_examples=80, deadline=None)
    def test_indexed_matches_scan(self, records, cycles):
        mem_states = [(i, i) for i in range(3)]
        memory = SharedLearningMemory(cycles_per_agent=cycles)
        for k, (agent_i, state_i, l_val) in enumerate(records):
            memory.record(
                Experience(
                    agent_id=f"agent{agent_i}",
                    cycle=k,
                    state=mem_states[state_i],
                    action=GroupingAction(GroupingMode.MIXED, 1 + k % 6),
                    l_val=float(l_val),
                    reward=k % 5,
                    error=0.0,
                    time=float(k),
                )
            )
            for state in mem_states + [None, (9, 9)]:
                scanned = memory.scan_best_experience(state)
                hits = memory.state_hits
                # `is`, not `==`: the same stored object must win, so the
                # returned *action* (what agents consume) matches too.
                assert memory.best_experience(state) is scanned
                # A hit is an answer recorded in the queried state.
                assert memory.state_hits - hits == (
                    scanned is not None and scanned.state == state
                )
                assert memory.best_action(state) == (
                    None if scanned is None else scanned.action
                )
            assert len(memory) == sum(1 for _ in memory)
