"""Tests for Scamp and CyclonAcked baselines."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario
from repro.protocols import scamp


def scamp_scenario(n=150, cycles=10, seed=42):
    params = ExperimentParams.scaled(n, seed=seed, stabilization_cycles=cycles)
    scenario = Scenario("scamp", params)
    scenario.build_overlay()
    return scenario


class TestScampSubscription:
    def test_join_through_self_rejected(self, world):
        _, a = world.scamp()
        with pytest.raises(ConfigurationError):
            a.join(a.address)

    def test_subscriber_starts_with_contact_in_view(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        assert a.address in b.partial_view

    def test_bootstrap_contact_keeps_first_subscriber(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        assert b.address in a.partial_view
        assert a.address in b.in_view  # keeper notification arrived

    def test_subscription_spreads_beyond_contact(self):
        scenario = scamp_scenario(100)
        last = scenario.node_ids[-1]
        holders = sum(
            1
            for node_id in scenario.node_ids
            if last in scenario.membership(node_id).partial_view
        )
        assert holders >= 1

    def test_view_sizes_grow_logarithmically(self):
        """SCAMP's equilibrium is around (c+1) * log(n) entries."""
        import math

        scenario = scamp_scenario(200)
        sizes = [len(scenario.membership(n).partial_view) for n in scenario.node_ids]
        mean_size = sum(sizes) / len(sizes)
        expected = (scamp.C + 1) * math.log(200)
        assert 0.4 * expected < mean_size < 2.5 * expected

    def test_overlay_connected_after_joins(self):
        scenario = scamp_scenario(100)
        assert scenario.snapshot().largest_component_fraction() > 0.95

    def test_no_self_entries(self):
        scenario = scamp_scenario(100)
        for node_id in scenario.node_ids:
            protocol = scenario.membership(node_id)
            assert node_id not in protocol.partial_view
            assert node_id not in protocol.in_view


class TestScampMaintenance:
    def test_heartbeats_refresh_isolation_timer(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        for _ in range(3):
            a.cycle()
            b.cycle()
            world.drain()
        # b receives a's heartbeats (a has b in partial view), so b's
        # isolation counter keeps resetting.
        assert b._cycles_since_heartbeat <= 1

    def test_isolated_node_resubscribes(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        # a never runs cycles (no heartbeats to b); once the threshold is
        # passed b resubscribes through its partial view.
        for _ in range(scamp.ISOLATION_CYCLES):
            b.cycle()
            world.drain()
        assert b.resubscriptions == 0
        b.cycle()
        world.drain()
        assert b.resubscriptions == 1

    def test_unsubscribe_patches_views(self, world):
        protocols = [world.scamp()[1] for _ in range(6)]
        world.join_chain(protocols)
        leaver = protocols[1]
        holders = [p for p in protocols if leaver.address in p.partial_view]
        leaver.leave()
        world.drain()
        for holder in holders:
            assert leaver.address not in holder.partial_view
        assert leaver.partial_view == []

    def test_report_failure_removes_peer(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        b.report_failure(a.address)
        assert a.address not in b.partial_view


class TestScampGossipTargets:
    def test_targets_subset_of_partial_view(self):
        scenario = scamp_scenario(80)
        node_id = scenario.node_ids[5]
        protocol = scenario.membership(node_id)
        targets = protocol.gossip_targets(4)
        assert len(targets) <= 4
        assert set(targets) <= set(protocol.partial_view)

    def test_exclusion_respected(self):
        scenario = scamp_scenario(80)
        node_id = scenario.node_ids[5]
        protocol = scenario.membership(node_id)
        view = protocol.partial_view
        if view:
            excluded = view[0]
            for _ in range(10):
                assert excluded not in protocol.gossip_targets(len(view), exclude=(excluded,))


class TestCyclonAcked:
    def test_failure_report_expunges_peer(self, world):
        (_, a), (_, b) = world.cyclon_acked(), world.cyclon_acked()
        b.join(a.address)
        world.drain()
        assert b.address in a.view
        a.report_failure(b.address)
        assert b.address not in a.view
        assert a.failures_detected == 1

    def test_failure_report_for_unknown_peer_is_noop(self, world):
        (_, a), (_, b) = world.cyclon_acked(), world.cyclon_acked()
        a.report_failure(b.address)
        assert a.failures_detected == 0

    def test_acked_gossip_cleans_views_on_dissemination(self):
        params = ExperimentParams.scaled(120, stabilization_cycles=10)
        scenario = Scenario("cyclon-acked", params)
        scenario.build_overlay()
        scenario.run_cycles(10)
        scenario.fail_fraction(0.4)
        scenario.send_broadcasts(20)
        alive = set(scenario.alive_ids())
        dead_refs = total_refs = 0
        for node_id in alive:
            for peer in scenario.membership(node_id).view.members():
                total_refs += 1
                if peer not in alive:
                    dead_refs += 1
        # Gossip-driven detection strictly reduces stale entries; the plain
        # Cyclon run below keeps nearly all of them.
        assert dead_refs / total_refs < 0.4

    def test_plain_cyclon_keeps_stale_entries(self):
        params = ExperimentParams.scaled(120, stabilization_cycles=10)
        scenario = Scenario("cyclon", params)
        scenario.build_overlay()
        scenario.run_cycles(10)
        scenario.fail_fraction(0.4)
        scenario.send_broadcasts(20)
        alive = set(scenario.alive_ids())
        dead_refs = total_refs = 0
        for node_id in alive:
            for peer in scenario.membership(node_id).view.members():
                total_refs += 1
                if peer not in alive:
                    dead_refs += 1
        assert dead_refs / total_refs > 0.25  # close to the 40% injected
