"""Tests for the eager gossip and flood broadcast layers."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario

SMALL = HyParViewConfig(active_view_capacity=3, passive_view_capacity=5)


def flood_world(world, count, config=SMALL):
    nodes = world.hyparview_many(count, config=config)
    layers = [world.with_flood(node, proto) for node, proto in nodes]
    world.join_chain([p for _, p in nodes])
    return nodes, layers


def eager_world(world, count, fanout=2, acked=False):
    nodes = [world.cyclon() for _ in range(count)]
    layers = [world.with_eager(node, proto, fanout=fanout, acked=acked) for node, proto in nodes]
    world.join_chain([p for _, p in nodes])
    return nodes, layers


class TestFloodBroadcast:
    def test_reaches_all_nodes_in_connected_overlay(self, world):
        nodes, layers = flood_world(world, 8)
        mid = layers[0].broadcast("hello")
        world.drain()
        for layer in layers:
            assert layer.has_delivered(mid)

    def test_payload_passed_to_deliver_callback(self, world):
        (node_a, a), (node_b, b) = world.hyparview_many(2, config=SMALL)
        got = []
        from repro.gossip.flood import FloodBroadcast

        layer_a = node_a.wire("gossip", FloodBroadcast(node_a.host("gossip"), a, world.tracker))
        node_b.wire(
            "gossip",
            FloodBroadcast(
                node_b.host("gossip"), b, world.tracker, on_deliver=lambda m, p: got.append(p)
            ),
        )
        world.join_chain([a, b])
        layer_a.broadcast({"k": 1})
        world.drain()
        assert got == [{"k": 1}]

    def test_duplicates_counted_not_redelivered(self, world):
        nodes, layers = flood_world(world, 8)
        layers[0].broadcast("x")
        world.drain()
        assert sum(layer.delivered_count for layer in layers) == len(layers)
        assert sum(layer.duplicate_count for layer in layers) > 0  # flooding is redundant

    def test_send_failure_triggers_membership_repair(self, world):
        nodes, layers = flood_world(world, 6)
        victim_node, victim_proto = nodes[3]
        # Make the failure visible only at send time: no watch notification
        # has fired yet because we drain only after the broadcast.
        world.network.fail(victim_node.node_id)
        layers[0].broadcast("probe")
        world.drain()
        for _, proto in nodes:
            if proto is not victim_proto:
                assert victim_proto.address not in proto.active

    def test_hop_counts_recorded(self, world):
        nodes, layers = flood_world(world, 10)
        mid = layers[0].broadcast("x")
        world.drain()
        summary = world.tracker.finalize(mid, frozenset(n.node_id for n, _ in nodes))
        assert summary.max_hops >= 1
        assert summary.reliability == 1.0


class TestEagerGossip:
    def test_fanout_validation(self, world):
        node, proto = world.cyclon()
        from repro.gossip.eager import EagerGossip

        with pytest.raises(ConfigurationError):
            EagerGossip(node.host("gossip"), proto, fanout=0)

    def test_delivery_with_sufficient_fanout(self, world):
        nodes, layers = eager_world(world, 10, fanout=4)
        mid = layers[0].broadcast("x")
        world.drain()
        delivered = sum(1 for layer in layers if layer.has_delivered(mid))
        assert delivered >= 8  # fanout 4 over 10 nodes: near-full coverage

    def test_forward_excludes_sender(self, world):
        (na, a), (nb, b) = world.cyclon(), world.cyclon()
        layer_a = world.with_eager(na, a, fanout=3)
        world.with_eager(nb, b, fanout=3)
        b.join(a.address)
        world.drain()
        layer_a.broadcast("x")
        world.drain()
        # b's only view member is a (the sender): it must not echo back.
        assert world.network.stats.messages_by_type.get("GossipData", 0) == 1

    def test_unacked_gossip_leaves_views_dirty(self, world):
        nodes, layers = eager_world(world, 6, fanout=3, acked=False)
        victim_node, victim_proto = nodes[2]
        world.network.fail(victim_node.node_id)
        for _ in range(5):
            layers[0].broadcast("x")
            world.drain()
        holders = sum(
            1 for _, p in nodes if p is not victim_proto and victim_proto.address in p.view
        )
        assert holders > 0  # stale entries survive plain gossip

    def test_acked_gossip_cleans_views(self, world):
        # Acked gossip only helps a membership protocol that reacts to the
        # reports — CyclonAcked, not plain Cyclon.
        nodes = [world.cyclon_acked() for _ in range(6)]
        layers = [world.with_eager(n, p, fanout=5, acked=True) for n, p in nodes]
        world.join_chain([p for _, p in nodes])
        victim_node, victim_proto = nodes[2]
        world.network.fail(victim_node.node_id)
        for _ in range(6):
            for layer in layers:
                if layer.membership is not victim_proto:
                    layer.broadcast("x")
            world.drain()
        holders = sum(
            1 for _, p in nodes if p is not victim_proto and victim_proto.address in p.view
        )
        assert holders == 0

    def test_an_old_message_is_never_delivered_twice(self, world):
        (na, a), (nb, b) = world.cyclon(), world.cyclon()
        layer_a = world.with_eager(na, a, fanout=2)
        layer_b = world.with_eager(nb, b, fanout=2)
        b.join(a.address)
        world.drain()
        mids = [layer_a.broadcast(i) for i in range(200)]
        world.drain()
        assert layer_b.delivered_count == 200
        from repro.gossip.messages import GossipData

        world.network.send(na.node_id, nb.node_id, GossipData(mids[0], 0, 1, na.node_id))
        world.drain()
        assert layer_b.delivered_count == 200
        assert layer_b.duplicate_count == 1


class TestScenarioLevelGossip:
    def test_hyparview_atomic_broadcast_in_stable_overlay(self):
        params = ExperimentParams.scaled(100, stabilization_cycles=10)
        scenario = Scenario("hyparview", params)
        scenario.build_overlay()
        scenario.stabilize()
        summaries = scenario.send_broadcasts(10)
        assert all(s.reliability == 1.0 for s in summaries)

    def test_eager_gossip_reliability_monotone_in_fanout(self):
        params = ExperimentParams.scaled(150, stabilization_cycles=10)
        scenario = Scenario("cyclon", params)
        scenario.build_overlay()
        scenario.stabilize()
        frozen = scenario.freeze()
        averages = []
        for fanout in (1, 3, 6):
            clone = Scenario.thaw(frozen)
            for node_id in clone.node_ids:
                clone.broadcast_layer(node_id).fanout = fanout
            summaries = clone.send_broadcasts(15)
            averages.append(sum(s.reliability for s in summaries) / len(summaries))
        assert averages[0] < averages[1] <= averages[2] + 1e-9

    def test_broadcast_from_dead_origin_rejected(self):
        params = ExperimentParams.scaled(50, stabilization_cycles=5)
        scenario = Scenario("hyparview", params)
        scenario.build_overlay()
        victim = scenario.node_ids[3]
        scenario.fail_nodes([victim])
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            scenario.send_broadcast(origin=victim)
