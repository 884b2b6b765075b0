"""Tests for the SimNode protocol container."""

from dataclasses import dataclass

import pytest

from repro.common.errors import SimulationError
from repro.common.ids import NodeId
from repro.common.messages import Message, register_message
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import SimNode


@register_message("test.alpha")
@dataclass(frozen=True, slots=True)
class Alpha(Message):
    value: int


@register_message("test.beta")
@dataclass(frozen=True, slots=True)
class Beta(Message):
    value: int


class FakeProtocol:
    def __init__(self):
        self.alphas = []

    def handlers(self):
        return {Alpha: self.alphas.append}


class TestSimNode:
    def make(self):
        engine = Engine()
        network = Network(engine)
        return engine, network, SimNode(NodeId("n", 1), network)

    def test_wire_registers_handlers(self):
        engine, network, node = self.make()
        protocol = node.wire("proto", FakeProtocol())
        node.deliver(Alpha(1))
        assert protocol.alphas == [Alpha(1)]
        assert node.protocol("proto") is protocol

    def test_duplicate_slot_rejected(self):
        engine, network, node = self.make()
        node.attach("proto", object())
        with pytest.raises(SimulationError):
            node.attach("proto", object())

    def test_duplicate_handler_rejected(self):
        engine, network, node = self.make()
        node.register_handler(Alpha, lambda m: None)
        with pytest.raises(SimulationError):
            node.register_handler(Alpha, lambda m: None)

    def test_missing_protocol_raises(self):
        engine, network, node = self.make()
        with pytest.raises(SimulationError):
            node.protocol("nope")

    def test_unhandled_counted_not_fatal(self):
        engine, network, node = self.make()
        node.deliver(Beta(1))
        assert node.unhandled == 1

    def test_host_rng_streams_isolated_per_purpose(self):
        engine, network, node = self.make()
        host_a = node.host("membership")
        host_b = node.host("gossip")
        assert host_a.rng.random() != host_b.rng.random()
        assert host_a.address == node.node_id

    def test_alive_tracks_network(self):
        engine, network, node = self.make()
        assert node.alive
        network.fail(node.node_id)
        assert not node.alive
