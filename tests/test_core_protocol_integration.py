"""Integration tests: HyParView overlays at small-but-real scale.

These exercise the emergent properties the paper relies on: active-view
symmetry, connectivity, bounded degrees, catastrophic-failure repair.
"""

import random
from dataclasses import replace

import pytest

from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario
from repro.testing import check_no_open_exchange


def hyparview_scenario(n, seed=42, cycles=15):
    params = ExperimentParams.scaled(n, seed=seed, stabilization_cycles=cycles)
    scenario = Scenario("hyparview", params)
    scenario.build_overlay()
    return scenario


def active_views(scenario):
    return {
        node_id: scenario.membership(node_id).active_members()
        for node_id in scenario.alive_ids()
    }


def assert_symmetric(scenario):
    views = active_views(scenario)
    for node_id, members in views.items():
        for peer in members:
            assert node_id in views[peer], f"{node_id} -> {peer} not symmetric"


class TestOverlayConstruction:
    def test_views_respect_capacity(self):
        scenario = hyparview_scenario(120)
        capacity = scenario.params.hyparview.active_view_capacity
        for node_id in scenario.node_ids:
            protocol = scenario.membership(node_id)
            assert len(protocol.active) <= capacity
            assert len(protocol.passive) <= protocol.passive.capacity

    def test_no_self_loops_and_disjoint_views(self):
        scenario = hyparview_scenario(120)
        for node_id in scenario.node_ids:
            protocol = scenario.membership(node_id)
            assert node_id not in protocol.active
            assert node_id not in protocol.passive
            assert not set(protocol.active_members()) & set(protocol.passive_members())

    def test_overlay_connected_after_join(self):
        scenario = hyparview_scenario(150)
        assert scenario.snapshot().is_connected()

    def test_active_views_symmetric_after_join(self):
        scenario = hyparview_scenario(150)
        assert_symmetric(scenario)

    def test_symmetry_and_connectivity_survive_stabilization(self):
        scenario = hyparview_scenario(150)
        scenario.stabilize()
        assert_symmetric(scenario)
        assert scenario.snapshot().is_connected()

    def test_most_views_full_after_stabilization(self):
        scenario = hyparview_scenario(200)
        scenario.stabilize()
        capacity = scenario.params.hyparview.active_view_capacity
        full = sum(
            1
            for node_id in scenario.node_ids
            if len(scenario.membership(node_id).active) == capacity
        )
        assert full / scenario.params.n > 0.9

    def test_passive_views_populated(self):
        scenario = hyparview_scenario(200)
        scenario.stabilize()
        sizes = [len(scenario.membership(node_id).passive) for node_id in scenario.node_ids]
        assert sum(sizes) / len(sizes) > scenario.params.hyparview.passive_view_capacity * 0.5

    def test_in_degree_concentrated_at_capacity(self):
        """Figure 5: almost all nodes are known by active-view-size others."""
        scenario = hyparview_scenario(200)
        scenario.stabilize()
        snapshot = scenario.snapshot()
        capacity = scenario.params.hyparview.active_view_capacity
        histogram = snapshot.in_degree_histogram()
        at_capacity = histogram.get(capacity, 0)
        assert at_capacity / scenario.params.n > 0.75

    def test_low_clustering_coefficient(self):
        """Table 1: HyParView clustering is far below view_size/n density."""
        scenario = hyparview_scenario(200)
        scenario.stabilize()
        assert scenario.snapshot().average_clustering() < 0.1


class TestBroadcastOverOverlay:
    def test_flood_reaches_everyone_in_stable_overlay(self):
        scenario = hyparview_scenario(150)
        scenario.stabilize()
        for summary in scenario.send_broadcasts(5):
            assert summary.reliability == 1.0

    def test_flood_is_deterministic_in_stable_overlay(self):
        """Same overlay, same origin twice: identical delivery sets."""
        scenario = hyparview_scenario(100)
        scenario.stabilize()
        origin = scenario.alive_ids()[0]
        first = scenario.send_broadcast(origin=origin)
        second = scenario.send_broadcast(origin=origin)
        assert first.delivered == second.delivered
        assert first.max_hops == second.max_hops


@pytest.mark.slow
class TestCatastrophicFailureRepair:
    def test_repair_after_60_percent(self):
        scenario = hyparview_scenario(250, cycles=20)
        scenario.stabilize()
        scenario.fail_fraction(0.6)
        series = [s.reliability for s in scenario.send_paced_broadcasts(40)]
        tail = series[-10:]
        assert sum(tail) / len(tail) > 0.95

    def test_views_purged_of_dead_nodes_after_repair(self):
        scenario = hyparview_scenario(250, cycles=20)
        scenario.stabilize()
        scenario.fail_fraction(0.5)
        scenario.send_paced_broadcasts(30)
        scenario.run_cycles(3)
        alive = set(scenario.alive_ids())
        dead_refs = 0
        for node_id in alive:
            dead_refs += sum(
                1
                for peer in scenario.membership(node_id).active_members()
                if peer not in alive
            )
        assert dead_refs == 0

    def test_symmetry_restored_after_repair(self):
        scenario = hyparview_scenario(250, cycles=20)
        scenario.stabilize()
        scenario.fail_fraction(0.5)
        scenario.send_paced_broadcasts(30)
        scenario.run_cycles(2)
        assert_symmetric(scenario)

    def test_healing_with_membership_cycles_after_90_percent(self):
        scenario = hyparview_scenario(300, cycles=20)
        scenario.stabilize()
        scenario.fail_fraction(0.9)
        scenario.run_cycles(4)  # the paper's headline: ~4 rounds suffice
        series = [s.reliability for s in scenario.send_broadcasts(10)]
        assert sum(series) / len(series) > 0.9


@pytest.mark.slow
def test_lossy_reliable_stream_leaves_no_promotion_open():
    """The ``sim_reliable_zoned`` shape: n = 256, zoned latency, 5 % loss
    once stable, 500 broadcasts.  A lost rejecting NeighborReply used to
    leave its requester's promotion slot open forever (30 such nodes after
    500 ops); every reply now rides the requester's connection."""
    params = replace(ExperimentParams.scaled(256), latency_model="zoned")
    scenario = Scenario("hyparview-reliable", params)
    scenario.build_overlay()
    scenario.stabilize()
    scenario.network.loss_rate = 0.05
    origins = random.Random("second")
    ids = scenario.alive_ids()
    for _ in range(500):
        scenario.send_broadcast(origins.choice(ids))
    check_no_open_exchange(scenario)
