"""The epoch handshake: restarted identities vs. their predecessors.

A node that restarts on the *same* address must be distinguishable from
the process it replaced: peers learn the higher epoch from the wire
handshake, reject handshakes claiming an older one, and drop frames that
arrive on connections belonging to a superseded incarnation.  The
observable guarantee: **zero stale-incarnation deliveries**, even with a
publish in flight across the crash/restart window.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.common.ids import MessageId, NodeId
from repro.common.messages import encode_message
from repro.core.config import HyParViewConfig
from repro.gossip.messages import GossipData
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import AsyncioTransport

CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    neighbor_request_timeout=1.0,
    promotion_retry_delay=0.1,
    promotion_max_passes=10,
)


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def wait_until(predicate, timeout=8.0, interval=0.05):
    """Poll ``predicate`` until truthy (returns True) or timeout (False)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


async def _hello(port: int, claimed: NodeId, epoch: int):
    """Open a raw connection to ``port`` and perform the wire handshake
    claiming to be ``claimed`` at ``epoch``.  Returns (reader, writer)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    frame = json.dumps({"hello": claimed.to_wire(), "epoch": epoch}) + "\n"
    writer.write(frame.encode("utf-8"))
    await writer.drain()
    return reader, writer


class TestEpochHandshake:
    def test_restart_bumps_incarnation_and_epoch(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            await cluster.start()
            victim_id = cluster.nodes[2].node_id
            await cluster.nodes[2].crash()
            reborn = await cluster.restart_node(2, reuse_port=True)
            assert reborn.node_id == victim_id  # same address...
            assert reborn.incarnation == 1  # ...new identity
            assert reborn.transport.epoch == 1
            # Peers that talk to the reborn node learn its epoch from the
            # wire handshake (the rejoin takes a moment to propagate).
            assert await wait_until(
                lambda: max(
                    node.transport.peer_epoch(victim_id)
                    for node in cluster.nodes[:2]
                )
                == 1
            )
            await cluster.stop()

        run(scenario())

    def test_publish_racing_restart_never_delivers_stale(self):
        """A publish burst in flight while the victim restarts on its old
        port: whatever the predecessor's half-dead sockets still carry, no
        delivery may be attributed to the old incarnation after the new
        process started."""

        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            await cluster.start()
            victim_id = cluster.nodes[2].node_id

            publishing = True

            async def publish_loop():
                sent = []
                while publishing:
                    origin = cluster.nodes[0]
                    if origin.started:
                        sent.append(origin.broadcast({"seq": len(sent)}))
                    await asyncio.sleep(0.005)
                return sent

            publisher = asyncio.create_task(publish_loop())
            await asyncio.sleep(0.1)
            await cluster.nodes[2].crash()
            await asyncio.sleep(0.05)  # publishes keep flowing meanwhile
            reborn = await cluster.restart_node(2, reuse_port=True)
            await cluster.wait_for_views(1)
            await asyncio.sleep(0.3)
            publishing = False
            sent = await publisher
            assert len(sent) > 10

            # The audit: no record by the old incarnation after the new
            # process came up.
            stale = [
                record
                for record in cluster.delivery_log.records_for(victim_id)
                if record.incarnation < reborn.incarnation
                and record.at > reborn.started_at
            ]
            assert stale == []
            # The reborn node's own history starts empty and then fills
            # with post-restart messages only.
            assert all(
                record.incarnation == 1
                for record in cluster.delivery_log.records_for(
                    victim_id, incarnation=reborn.incarnation
                )
            )
            await cluster.stop()

        run(scenario())

    def test_stale_handshake_rejected(self):
        """A connection claiming an address's *old* epoch after peers have
        seen a newer one is refused outright (half-open predecessor socket
        or an identity replay)."""

        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            ghost = NodeId("127.0.0.1", 45999)

            # First contact: the address at epoch 1.
            _reader, writer = await _hello(node.node_id.port, ghost, epoch=1)
            await asyncio.sleep(0.05)
            assert node.transport.peer_epoch(ghost) == 1

            # The predecessor (epoch 0) shows up late: rejected, closed.
            stale_reader, stale_writer = await _hello(
                node.node_id.port, ghost, epoch=0
            )
            assert await stale_reader.read() == b""  # EOF, no reply hello
            assert node.transport.stale_handshakes == 1

            stale_writer.close()
            writer.close()
            await node.stop()

        run(scenario())

    def test_frames_on_superseded_connection_are_dropped(self):
        """A connection whose epoch has been overtaken may still have
        frames in flight; the read loop drops them, counted.  (In
        production the epoch map advances when a newer handshake races a
        frame already buffered on the old connection; the map is advanced
        directly here to pin that race deterministically.)"""

        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            ghost = NodeId("127.0.0.1", 45998)

            _reader, writer = await _hello(node.node_id.port, ghost, epoch=0)
            await asyncio.sleep(0.05)
            assert node.transport.peer_epoch(ghost) == 0
            node.transport._peer_epochs[ghost] = 1  # the address moved on

            # The old incarnation's connection speaks from the past.
            writer.write(b'{"ghost": "frame"}\n')
            await writer.drain()
            await asyncio.sleep(0.05)
            assert node.transport.frames_stale == 1
            assert node.unhandled == 0  # nothing was dispatched

            writer.close()
            await node.stop()

        run(scenario())

    def test_incarnation_validation(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="incarnation"):
            RuntimeNode(config=CONFIG, incarnation=-1)


class TestHostileWireAndShutdown:
    """The same wire under malformed input and a close that races a dial."""

    def test_malformed_frames_are_counted_and_the_connection_survives(self):
        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            transport = node.transport
            ghost = NodeId("127.0.0.1", 45997)
            downs = []
            _reader, writer = await _hello(node.node_id.port, ghost, epoch=0)
            assert await wait_until(lambda: ghost in transport._connections)
            connection = transport._connections[ghost]
            transport._watch_callbacks[ghost] = downs.append

            writer.write(b"x" * (100 * 1024) + b"\n")  # over the 64 KiB limit
            writer.write(b"\xff\xfe not json at all\n")
            writer.write(b'{"type": "no.such.message", "fields": {}}\n')
            # Well-formed JSON of the wrong shape (AttributeError / TypeError /
            # ValueError / OverflowError inside the decoder, not CodecError).
            writer.write(b'{"type": "hyparview.join", "fields": 3}\n')
            writer.write(b'{"type": ["x"], "fields": {}}\n')
            for port in (b'"abc"', b"1e999"):
                writer.write(
                    b'{"type": "hyparview.join", "fields": {"new_node": ["@node", "h", %s]}}\n'
                    % port
                )
            # Nesting past the recursion limit: in the decoder (1.3 KB) and
            # in the JSON parser itself (10 KB, well under the line limit).
            deep = b"[" * 600 + b"1" + b"]" * 600
            writer.write(b'{"type": "hyparview.join", "fields": {"new_node": %s}}\n' % deep)
            writer.write(b"[" * 5000 + b"]" * 5000 + b"\n")
            valid = GossipData(MessageId(ghost, 1), "still here", 1, ghost)
            writer.write((json.dumps(encode_message(valid)) + "\n").encode())
            await writer.drain()

            assert await wait_until(lambda: transport.frames_received == 1)
            assert node.delivered == [(valid.message_id, "still here")]
            assert transport.frames_malformed == 9
            # Same connection, reader still running, peer never reported down.
            assert transport._connections[ghost] is connection
            assert not connection.reader_task.done()
            assert downs == []

            writer.close()
            await node.stop()

        run(scenario())

    def test_oversize_line_whose_tail_arrives_later_counts_once(self):
        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            transport = node.transport
            ghost = NodeId("127.0.0.1", 45995)
            _reader, writer = await _hello(node.node_id.port, ghost, epoch=0)
            assert await wait_until(lambda: ghost in transport._connections)

            writer.write(b"x" * (100 * 1024))  # over the 64 KiB limit, no newline yet
            await writer.drain()
            assert await wait_until(lambda: transport.frames_malformed == 1)
            writer.write(b'y" , "not json either}\n')  # the same line's tail
            valid = GossipData(MessageId(ghost, 1), "after the tail", 1, ghost)
            writer.write((json.dumps(encode_message(valid)) + "\n").encode())
            await writer.drain()

            assert await wait_until(lambda: transport.frames_received == 1)
            assert node.delivered == [(valid.message_id, "after the tail")]
            assert transport.frames_malformed == 1

            writer.close()
            await node.stop()

        run(scenario())

    def test_close_with_a_dial_in_flight_leaves_no_task_behind(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            complaints = []
            loop.set_exception_handler(lambda _loop, context: complaints.append(context))
            listener = RuntimeNode(config=CONFIG)
            await listener.start()
            tasks_before = asyncio.all_tasks()
            dialer = AsyncioTransport(NodeId("127.0.0.1", 45996), lambda _p, _m: None)
            results = []
            dialer.probe(listener.node_id, lambda peer, ok: results.append(ok))
            await asyncio.sleep(0)  # the probe task starts the dial
            assert dialer._connecting
            await dialer.close()
            # Long enough for an uncancelled handshake to complete and for
            # the listener to see the dialer's socket go away.
            await asyncio.sleep(0.3)
            assert asyncio.all_tasks() == tasks_before
            assert not dialer._connections and not dialer._background
            assert results == []  # a closing transport reports nothing
            await listener.stop()
            assert complaints == []

        run(scenario())
