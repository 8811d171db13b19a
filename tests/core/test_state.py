"""Unit tests for state observation and discretization (§IV.B)."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeState, ResourceSite
from repro.core import SiteObservation, discretize, observe_site
from repro.core.dvfs import DVFSGovernor
from tests.core.test_dvfs import STEPS, GovernedWorld


def node_state(load=0.0, free_slots=4, powers=(48.0,) * 4, capacity=1000.0):
    return NodeState(
        node_id="n",
        load=load,
        free_slots=free_slots,
        processor_power_w=tuple(powers),
        processing_capacity=capacity,
    )


class TestObserveSite:
    def test_idle_site(self):
        states = [node_state(), node_state()]
        obs = observe_site(states, max_power_w=8 * 95.0, total_queue_slots=8)
        assert obs.load_ratio == 0.0
        assert obs.free_slot_fraction == 1.0
        assert obs.power_fraction == pytest.approx((8 * 48) / (8 * 95))
        assert obs.open_nodes == 2

    def test_loaded_site(self):
        states = [
            node_state(load=2000.0, free_slots=0, powers=(95.0,) * 4),
            node_state(load=0.0, free_slots=4),
        ]
        obs = observe_site(states, max_power_w=8 * 95.0, total_queue_slots=8)
        assert obs.load_ratio == pytest.approx(1.0)
        assert obs.free_slot_fraction == pytest.approx(0.5)
        assert obs.open_nodes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            observe_site([], 100.0, 8)
        with pytest.raises(ValueError):
            observe_site([node_state()], 0.0, 8)
        with pytest.raises(ValueError):
            observe_site([node_state()], 100.0, 0)

    def test_features_vector_bounded(self):
        obs = SiteObservation(
            load_ratio=10.0, free_slot_fraction=0.5, power_fraction=0.9, open_nodes=100
        )
        f = obs.features()
        assert f.shape == (4,)
        assert all(0 <= v <= 1 for v in f)


class TestObserveNodesDirectly:
    """Agents pass the nodes themselves; the snapshots must agree."""

    @staticmethod
    def assert_same_observation(site):
        max_power = sum(p.profile.p_max_w for n in site for p in n.processors)
        slots = sum(n.queue_slots for n in site)
        direct = observe_site(site.nodes, max_power, slots)
        snapshots = observe_site(site.states(), max_power, slots)
        for field in fields(SiteObservation):
            assert repr(getattr(direct, field.name)) == repr(
                getattr(snapshots, field.name)
            ), field.name

    @given(
        speeds=st.lists(
            st.lists(st.floats(500.0, 1000.0), min_size=1, max_size=4),
            min_size=3,
            max_size=3,
        ),
        steps=st.lists(STEPS, min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_nodes_observe_like_their_snapshots(self, speeds, steps):
        world = GovernedWorld(DVFSGovernor(), speeds)
        site = ResourceSite("s", world.nodes)
        self.assert_same_observation(site)
        for step in steps:
            world.step(step)
            self.assert_same_observation(site)

    def test_node_total_power_is_its_snapshot_total(self):
        world = GovernedWorld(DVFSGovernor(), [[700.0, 800.0], [900.0], [600.0]])
        world.step((("submit", 0, [(5000.0, 2000.0), (800.0, 10.0)]), 3.0))
        for node in world.nodes:
            assert node.total_power_w == node.state().total_power_w
        assert world.nodes[0].total_power_w > world.nodes[1].total_power_w


class TestDiscretize:
    def test_levels_partition_space(self):
        lo = SiteObservation(0.1, 0.9, 0.2, 5)
        mid = SiteObservation(1.0, 0.5, 0.5, 5)
        hi = SiteObservation(3.0, 0.1, 0.9, 5)
        assert discretize(lo) == (0, 2, 0)
        assert discretize(mid) == (1, 1, 1)
        assert discretize(hi) == (2, 0, 2)

    def test_all_states_reachable(self):
        seen = set()
        for load in (0.1, 1.0, 3.0):
            for slots in (0.1, 0.5, 0.9):
                for power in (0.2, 0.5, 0.9):
                    seen.add(
                        discretize(SiteObservation(load, slots, power, 1))
                    )
        assert len(seen) == 27
