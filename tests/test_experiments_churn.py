"""Tests for continuous churn and node revival."""

import pytest
from conftest import run_cell

from repro.common.errors import ConfigurationError, SimulationError
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
        scenario.leave_gracefully(leaver)
        assert not scenario.network.is_alive(leaver)
        alive = set(scenario.alive_ids())
        holders = sum(
            1
            for node_id in alive
            if leaver in scenario.membership(node_id).active_members()
        )
        assert holders == 0  # DISCONNECTs landed before the crash


class TestChurnExperiment:
    """The ``churn`` scenario's cell, at a test's own scale."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_cell("churn", ("hyparview",), n=60, cycles=3, steps=0)

    def test_hyparview_survives_churn(self):
        result = run_cell("churn", ("hyparview",), steps=25)
        assert result["steps"] == 25
        assert len(result["series"]) == 25  # one probe per step
        assert result["crashes"] + result["leaves"] + result["revives"] <= 25
        assert result["average"] > 0.95
        assert result["final_largest_component"] > 0.95
        assert result["stale_active_entries"] <= 2

    def test_population_floor_respected(self):
        result = run_cell("churn", ("hyparview",), n=12, cycles=5, steps=40)
        # The live population never drops below 30 % of n (at least two).
        assert result["final_alive"] >= max(2, int(0.3 * 12))
        assert result["final_alive"] == (
            12 - result["crashes"] - result["leaves"] + result["revives"]
        )

    def test_cyclon_acked_under_churn(self):
        result = run_cell("churn", ("cyclon-acked",), steps=20)
        assert result["average"] > 0.7  # probabilistic gossip, lower bar


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
