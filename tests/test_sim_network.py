"""Tests for the simulated network fabric: delivery disciplines, failure
injection, connection watching, partitions and loss."""

from dataclasses import dataclass

import pytest
from conftest import FrameLog

from repro.common.errors import SimulationError, UnknownNodeError
from repro.common.ids import NodeId
from repro.common.messages import Message, register_message
from repro.common.rng import SeedSequence
from repro.sim.engine import Engine
from repro.sim.network import LinkFaultRule, Network
from repro.sim.node import SimNode


@register_message("test.ping")
@dataclass(frozen=True, slots=True)
class Ping(Message):
    value: int


def make_network(loss_rate: float = 0.0):
    engine = Engine()
    network = Network(engine, seeds=SeedSequence(3), loss_rate=loss_rate)
    return engine, network


def make_node(network, name):
    node = SimNode(NodeId(name, 1), network)
    received = []
    node.register_handler(Ping, received.append)
    return node, received


class TestDatagramDelivery:
    def test_delivers_to_alive_destination(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert received == [Ping(1)]

    def test_latency_applied(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.send(a.node_id, b.node_id, Ping(1))
        assert received == []  # not yet delivered
        engine.run_until_idle()
        assert engine.now > 0.0

    def test_silently_dropped_to_dead_destination(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.fail(b.node_id)
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert received == []
        assert network.stats.dropped_dead == 1

    def test_random_loss(self):
        engine, network = make_network(loss_rate=0.5)
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        for i in range(200):
            network.send(a.node_id, b.node_id, Ping(i))
        engine.run_until_idle()
        assert 0 < len(received) < 200
        assert network.stats.dropped_loss == 200 - len(received)

    def test_loss_rate_validation(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            Network(engine, loss_rate=1.0)


class TestReliableDelivery:
    def test_no_loss_applied_to_reliable_sends(self):
        engine, network = make_network(loss_rate=0.9)
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        failures = []
        for i in range(50):
            network.send(a.node_id, b.node_id, Ping(i), on_failure=lambda p, m: failures.append(p))
        engine.run_until_idle()
        assert len(received) == 50
        assert failures == []

    def test_failure_callback_for_dead_destination(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        failures = []
        network.fail(b.node_id)
        network.send(a.node_id, b.node_id, Ping(1), on_failure=lambda p, m: failures.append((p, m)))
        engine.run_until_idle()
        assert failures == [(b.node_id, Ping(1))]
        assert network.stats.send_failures == 1

    def test_failure_callback_when_destination_dies_in_flight(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        failures = []
        network.send(a.node_id, b.node_id, Ping(1), on_failure=lambda p, m: failures.append(p))
        network.fail(b.node_id)  # dies before delivery
        engine.run_until_idle()
        assert received == []
        assert failures == [b.node_id]

    def test_no_failure_callback_to_dead_sender(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        failures = []
        network.fail(b.node_id)
        network.send(a.node_id, b.node_id, Ping(1), on_failure=lambda p, m: failures.append(p))
        network.fail(a.node_id)
        engine.run_until_idle()
        assert failures == []


class TestProbe:
    def test_probe_alive(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        results = []
        network.probe(a.node_id, b.node_id, lambda p, ok: results.append((p, ok)))
        engine.run_until_idle()
        assert results == [(b.node_id, True)]
        assert network.stats.probes_ok == 1

    def test_probe_dead(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.fail(b.node_id)
        results = []
        network.probe(a.node_id, b.node_id, lambda p, ok: results.append(ok))
        engine.run_until_idle()
        assert results == [False]
        assert network.stats.probes_failed == 1

    def test_probe_target_dies_during_handshake(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        results = []
        network.probe(a.node_id, b.node_id, lambda p, ok: results.append(ok))
        network.fail(b.node_id)
        engine.run_until_idle()
        assert results == [False]


class TestWatch:
    def test_watcher_notified_on_failure(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        downs = []
        network.watch(a.node_id, b.node_id, downs.append)
        network.fail(b.node_id)
        engine.run_until_idle()
        assert downs == [b.node_id]

    def test_unwatch_suppresses_notification(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        downs = []
        network.watch(a.node_id, b.node_id, downs.append)
        network.unwatch(a.node_id, b.node_id)
        network.fail(b.node_id)
        engine.run_until_idle()
        assert downs == []

    def test_watching_already_dead_peer_notifies(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.fail(b.node_id)
        downs = []
        network.watch(a.node_id, b.node_id, downs.append)
        engine.run_until_idle()
        assert downs == [b.node_id]

    def test_dead_watcher_not_notified(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        downs = []
        network.watch(a.node_id, b.node_id, downs.append)
        network.fail(a.node_id)
        network.fail(b.node_id)
        engine.run_until_idle()
        assert downs == []

    def test_rewatch_replaces_callback(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        first, second = [], []
        network.watch(a.node_id, b.node_id, first.append)
        network.watch(a.node_id, b.node_id, second.append)
        network.fail(b.node_id)
        engine.run_until_idle()
        assert first == []
        assert second == [b.node_id]

    def test_notification_arrives_after_delay_not_instantly(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        times = []
        network.watch(a.node_id, b.node_id, lambda p: times.append(engine.now))
        network.fail(b.node_id)
        assert times == []  # notification is scheduled, not synchronous
        engine.run_until_idle()
        assert times and times[0] > 0.0


class TestLiveness:
    def test_fail_and_recover(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        assert network.is_alive(a.node_id)
        network.fail(a.node_id)
        assert not network.is_alive(a.node_id)
        network.recover(a.node_id)
        assert network.is_alive(a.node_id)

    def test_unknown_node_operations_raise(self):
        engine, network = make_network()
        ghost = NodeId("ghost", 1)
        with pytest.raises(UnknownNodeError):
            network.fail(ghost)
        with pytest.raises(UnknownNodeError):
            network.recover(ghost)
        with pytest.raises(UnknownNodeError):
            network.node(ghost)

    def test_duplicate_registration_rejected(self):
        engine, network = make_network()
        make_node(network, "a")
        with pytest.raises(SimulationError):
            SimNode(NodeId("a", 1), network)

    def test_dead_node_timers_suppressed(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        fired = []
        a.clock.schedule(1.0, lambda: fired.append(1))
        network.fail(a.node_id)
        engine.run_until_idle()
        assert fired == []


class TestPartitions:
    def test_datagrams_cross_partition_dropped(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.set_partitions([[a.node_id], [b.node_id]])
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert received == []

    def test_reliable_sends_cross_partition_fail(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.set_partitions([[a.node_id], [b.node_id]])
        failures = []
        network.send(a.node_id, b.node_id, Ping(1), on_failure=lambda p, m: failures.append(p))
        engine.run_until_idle()
        assert failures == [b.node_id]

    def test_same_partition_delivers(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        c, _ = make_node(network, "c")
        network.set_partitions([[a.node_id, b.node_id], [c.node_id]])
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert received == [Ping(1)]

    def test_unlisted_nodes_form_implicit_group(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received_b = make_node(network, "b")
        c, received_c = make_node(network, "c")
        network.set_partitions([[a.node_id]])
        network.send(b.node_id, c.node_id, Ping(1))
        network.send(a.node_id, b.node_id, Ping(2))
        engine.run_until_idle()
        assert received_c == [Ping(1)]
        assert received_b == []

    def test_heal_partition(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.set_partitions([[a.node_id], [b.node_id]])
        network.clear_partitions()
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert received == [Ping(1)]

    def test_node_in_two_groups_rejected(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        with pytest.raises(SimulationError):
            network.set_partitions([[a.node_id], [a.node_id]])


class TestStatsAndTrace:
    def test_stats_count_sends_and_deliveries(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.send(a.node_id, b.node_id, Ping(1))
        network.send(a.node_id, b.node_id, Ping(2))
        engine.run_until_idle()
        snapshot = network.stats.snapshot()
        assert snapshot["sent"] == 2
        assert snapshot["delivered"] == 2
        assert snapshot["messages_by_type"] == {"Ping": 2}

    def test_trace_records_send_and_deliver(self):
        engine, network = make_network()
        network.trace = FrameLog()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        kinds = [record.kind for record in network.trace]
        assert kinds == ["send", "deliver"]
        assert all(record.message_type == "Ping" for record in network.trace)

    def test_unhandled_messages_counted(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b = SimNode(NodeId("bare", 1), network)  # no handlers at all
        network.send(a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert b.unhandled == 1


class TestFramesInFlightMeetLaterHooks:
    """``send`` takes a straight line while no hook is installed; a frame
    sent on it is still judged at delivery by whatever arrived meanwhile."""

    def test_adversary_installed_after_send_drops_at_delivery(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        failures = []
        network.send(a.node_id, b.node_id, Ping(1))
        network.send(a.node_id, b.node_id, Ping(2), lambda peer, message: failures.append(message))
        network.set_adversary(b.node_id, {"Ping"})
        engine.run_until_idle()
        assert received == [] and failures == []  # accepted, then ignored
        assert network.stats.dropped_adversary == 2
        assert network.stats.delivered == 0

    def test_crash_after_send_is_dropped_or_reported_at_delivery(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        failures = []
        network.send(a.node_id, b.node_id, Ping(1))
        network.send(a.node_id, b.node_id, Ping(2), lambda peer, message: failures.append((peer, message)))
        network.fail(b.node_id)
        engine.run_until_idle()
        assert received == []
        assert network.stats.dropped_dead == 1
        assert failures == [(b.node_id, Ping(2))] and network.stats.send_failures == 1

    def test_trace_attached_after_send_records_the_delivery(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, received = make_node(network, "b")
        network.send(a.node_id, b.node_id, Ping(1))
        network.trace = FrameLog()
        engine.run_until_idle()
        assert received == [Ping(1)]
        assert [record.kind for record in network.trace] == ["deliver"]

    def test_rule_expiry_and_recover_return_to_the_straight_line(self):
        engine, network = make_network()
        a, _ = make_node(network, "a")
        b, _ = make_node(network, "b")
        network.add_link_rule(LinkFaultRule(until=1.0))
        assert network._hooked
        engine.post(2.0, network.send, a.node_id, b.node_id, Ping(1))
        engine.run_until_idle()
        assert not network._hooked  # pruned lazily by the first send past `until`
        network.set_adversary(b.node_id, {"Ping"})
        network.fail(b.node_id)
        network.recover(b.node_id)  # registrations die with the old process
        assert not network._hooked
