"""Behavioural tests for less-travelled paths: the flood resend extension,
corrupt wire frames, Scamp's indirection factor, the Host bundle."""

import asyncio
import json

from conftest import FrameLog
from repro.core.config import HyParViewConfig
from repro.gossip.flood import RESEND_MEMORY, FloodBroadcast
from repro.protocols import scamp
from repro.protocols.scamp import ScampForwardedSubscription, ScampSubscribe


SMALL = HyParViewConfig(active_view_capacity=2, passive_view_capacity=6)


class TestFloodResendOnRepair:
    def test_payload_resent_to_promoted_replacement(self, world):
        # a -- b (active); c sits in a's passive view.  b dies; a's
        # broadcast fails towards b, repair promotes c, and the resend
        # extension pushes the *same payload* to c.
        (na, a), (nb, b), (nc, c) = world.hyparview_many(3, config=SMALL)
        layer_a = na.wire(
            "gossip",
            FloodBroadcast(na.host("gossip"), a, world.tracker, resend_on_repair=True),
        )
        layer_c = world.with_flood(nc, c)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        # Crash b and broadcast before the watch notification lands, so the
        # failure is detected by the send itself.
        world.network.fail(nb.node_id)
        message_id = layer_a.broadcast("survivor-payload")
        world.drain()
        assert c.address in a.active  # repair promoted c
        assert layer_c.has_delivered(message_id)  # resend delivered payload

    def test_resend_memory_keeps_only_recent_messages(self, world):
        (na, a), (nb, b) = world.hyparview_many(2, config=SMALL)
        layer_a = na.wire(
            "gossip",
            FloodBroadcast(na.host("gossip"), a, world.tracker, resend_on_repair=True),
        )
        world.with_flood(nb, b)
        world.join_chain([a, b])
        first = layer_a.broadcast(0)
        for index in range(RESEND_MEMORY):
            layer_a.broadcast(index + 1)
        world.drain()
        assert len(layer_a._sent) == RESEND_MEMORY
        assert first not in layer_a._sent

    def test_without_resend_payload_is_lost(self, world):
        (na, a), (nb, b), (nc, c) = world.hyparview_many(3, config=SMALL)
        layer_a = world.with_flood(na, a)
        layer_c = world.with_flood(nc, c)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        world.network.fail(nb.node_id)
        message_id = layer_a.broadcast("lost-payload")
        world.drain()
        assert c.address in a.active  # repair still happens
        assert not layer_c.has_delivered(message_id)  # but the message is gone


class TestScampIndirection:
    def test_contact_creates_view_plus_c_copies(self, world):
        protocols = [world.scamp()[1] for _ in range(8)]
        world.join_chain(protocols)
        contact = protocols[0]
        view_size = len(contact.partial_view)
        world.network.trace = FrameLog()
        contact.handle_subscribe(ScampSubscribe(protocols[-1].address))
        # Count only the copies the contact itself fanned out (trace starts
        # empty, the cascade adds more forwards downstream).
        first_wave = [
            record
            for record in world.network.trace
            if record.kind == "send"
            and record.message_type == "ScampForwardedSubscription"
            and record.src == contact.address
        ]
        assert len(first_wave) == view_size + scamp.C

    def test_forwarding_hop_cap_integrates_subscription(self, world):
        (_, a), (_, b) = world.scamp(), world.scamp()
        b.join(a.address)
        world.drain()
        # A forwarded subscription arriving at the cap is kept, not lost.
        stranger = world.scamp()[1]
        a.handle_forwarded_subscription(
            ScampForwardedSubscription(stranger.address, scamp.MAX_FORWARD_HOPS)
        )
        assert stranger.address in a.partial_view


class TestHostBundle:
    def test_host_passthroughs(self, world):
        node, protocol = world.hyparview()
        host = node.host("probe-test")
        other, _ = world.hyparview()
        assert host.now() == world.engine.now
        fired = []
        host.schedule(0.5, lambda: fired.append(host.now()))
        results = []
        host.probe(other.node_id, lambda peer, ok: results.append((peer, ok)))
        downs = []
        host.watch(other.node_id, downs.append)
        world.drain()
        assert fired == [0.5]
        assert results == [(other.node_id, True)]
        host.unwatch(other.node_id)
        world.network.fail(other.node_id)
        world.drain()
        assert downs == []


class TestRuntimeCorruptFrames:
    def test_corrupt_and_unknown_frames_are_dropped_not_fatal(self):
        async def scenario():
            from repro.runtime.node import RuntimeNode

            node = RuntimeNode(config=HyParViewConfig(neighbor_request_timeout=1.0))
            identity = await node.start()
            reader, writer = await asyncio.open_connection(identity.host, identity.port)
            writer.write(json.dumps({"hello": ["attacker", 1]}).encode() + b"\n")
            writer.write(b"this is not json\n")
            writer.write(json.dumps({"type": "no.such", "fields": {}}).encode() + b"\n")
            writer.write(json.dumps({"weird": 1}).encode() + b"\n")
            # A valid frame after the garbage still gets through.
            from repro.common.ids import NodeId
            from repro.common.messages import encode_message
            from repro.core.messages import Join

            writer.write(
                json.dumps(encode_message(Join(NodeId("attacker", 1)))).encode() + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.3)
            assert node.membership.stats.joins_received == 1
            writer.close()
            await node.stop()

        asyncio.run(asyncio.wait_for(scenario(), 15.0))

    def test_connection_without_hello_is_rejected(self):
        async def scenario():
            from repro.runtime.node import RuntimeNode

            node = RuntimeNode(config=HyParViewConfig(neighbor_request_timeout=1.0))
            identity = await node.start()
            reader, writer = await asyncio.open_connection(identity.host, identity.port)
            writer.write(b"garbage-first-line\n")
            await writer.drain()
            data = await reader.read()  # server closes on us
            assert data == b""
            await node.stop()

        asyncio.run(asyncio.wait_for(scenario(), 15.0))
