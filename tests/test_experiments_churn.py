"""Tests for node revival, graceful leaves and partitions."""

import pytest

from repro.common.errors import SimulationError
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario


def small_scenario(protocol="hyparview", n=80, cycles=8):
    params = ExperimentParams.scaled(n, stabilization_cycles=cycles)
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    scenario.run_cycles(cycles)
    return scenario


class TestRevive:
    def test_revive_rejoins_overlay(self):
        scenario = small_scenario()
        victim = scenario.node_ids[10]
        scenario.fail_nodes([victim])
        scenario.send_paced_broadcasts(5)  # let repair purge the victim
        scenario.revive_node(victim)
        assert scenario.network.is_alive(victim)
        membership = scenario.membership(victim)
        assert len(membership.active) >= 1
        summary = scenario.send_broadcast(origin=victim)
        assert summary.reliability > 0.95

    def test_revive_requires_dead_node(self):
        scenario = small_scenario()
        with pytest.raises(SimulationError):
            scenario.revive_node(scenario.node_ids[0])

    def test_revived_node_has_fresh_state(self):
        scenario = small_scenario()
        victim = scenario.node_ids[5]
        old_membership = scenario.membership(victim)
        scenario.fail_nodes([victim])
        scenario.revive_node(victim)
        assert scenario.membership(victim) is not old_membership
        assert scenario.nodes[victim].generation == 1

    def test_generation_rng_streams_differ(self):
        scenario = small_scenario()
        node = scenario.nodes[scenario.node_ids[3]]
        first = node.host("membership").rng.random()
        node.reset()
        second = node.host("membership").rng.random()
        assert first != second

    def test_leave_gracefully_removes_node(self):
        scenario = small_scenario()
        leaver = scenario.node_ids[7]
        # A graceful leave: DISCONNECT every active peer, then stop.
        scenario.membership(leaver).leave()
        scenario.drain()
        scenario.fail_nodes([leaver])
        scenario.drain()
        assert not scenario.network.is_alive(leaver)
        alive = set(scenario.alive_ids())
        holders = sum(
            1
            for node_id in alive
            if leaver in scenario.membership(node_id).active_members()
        )
        assert holders == 0  # DISCONNECTs landed before the crash


class TestPartitions:
    #: One seed is one draw of a heal that sometimes leaves the halves
    #: joined by a handful of one-sided edges, so the bar is set on the
    #: spread: the mean over these seeds, and how many fall short.
    SEEDS = (*range(1, 21), 42)

    @staticmethod
    def partition_then_heal(seed):
        params = ExperimentParams.scaled(100, seed=seed, stabilization_cycles=10)
        scenario = Scenario("hyparview", params)
        scenario.build_overlay()
        scenario.run_cycles(10)
        half = scenario.node_ids[:50]
        other = scenario.node_ids[50:]
        scenario.network.set_partitions([half, other])
        origin = half[0]
        # Messages stay within the partition; sends across the cut fail and
        # trigger repair, so the halves re-knit internally.
        for _ in range(5):
            summary = scenario.send_broadcast(origin=origin)
        delivered_fraction = summary.delivered / summary.population_size
        assert delivered_fraction <= 0.55  # at most its own half (+slack)
        # Heal: promotions from passive views reconnect the halves over
        # the following cycles.
        scenario.network.clear_partitions()
        scenario.run_cycles(3)
        healed = [s.reliability for s in scenario.send_broadcasts(5)]
        return sum(healed) / len(healed)

    def test_partition_splits_delivery_then_heals(self):
        healed = [self.partition_then_heal(seed) for seed in self.SEEDS]
        assert sum(healed) / len(healed) > 0.9
        assert sum(1 for value in healed if value <= 0.9) <= 3
