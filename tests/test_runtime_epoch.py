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
import gc
import json
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ids import MessageId, NodeId
from repro.common.messages import encode_message
from repro.core.config import HyParViewConfig
from repro.gossip.messages import GossipData
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import MAX_FRAME_BYTES, AsyncioTransport

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


async def _listening(handler=lambda _peer, _message: None, **options) -> AsyncioTransport:
    """An :class:`AsyncioTransport` serving on a free loopback port."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = NodeId("127.0.0.1", probe.getsockname()[1])
    transport = AsyncioTransport(address, handler, **options)
    await transport.start_server()
    return transport


def _complaints() -> list:
    """Collect what the running loop would log as an unhandled error."""
    complaints = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: complaints.append(context)
    )
    return complaints


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
            complaints = _complaints()
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

    def test_silent_inbound_sockets_are_refused_after_connect_timeout(self):
        async def scenario():
            transport = await _listening(connect_timeout=0.2)
            port = transport.local_address.port
            silent = [await asyncio.open_connection("127.0.0.1", port) for _ in range(5)]
            for reader, _writer in silent:
                assert await reader.read() == b""  # closed, no reply hello
            assert transport.handshakes_refused == 5
            assert not transport._background  # no handshake task left
            for _reader, writer in silent:
                writer.close()
            await transport.close()

        run(scenario())

    def test_close_with_a_silent_peer_attached_leaves_no_task_behind(self):
        async def scenario():
            complaints = _complaints()
            tasks_before = asyncio.all_tasks()
            transport = await _listening(connect_timeout=0.2)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport.local_address.port
            )
            assert await wait_until(lambda: transport._background, interval=0.01)
            await transport.close()  # the handshake is still waiting for a hello
            assert asyncio.all_tasks() == tasks_before
            assert await reader.read() == b""
            assert transport.handshakes_refused == 0  # cancelled, not refused
            writer.close()
            gc.collect()
            await asyncio.sleep(0)
            assert complaints == []

        run(scenario())

    def test_frame_cap_delivers_a_line_at_the_cap_and_drops_one_past_it(self):
        async def scenario():
            received = []
            transport = await _listening(lambda _peer, message: received.append(message))
            ghost = NodeId("127.0.0.1", 45994)
            _reader, writer = await _hello(transport.local_address.port, ghost, epoch=0)

            def line(sequence: int, size: int) -> bytes:
                bare = GossipData(MessageId(ghost, sequence), "", 1, ghost)
                pad = size - len(json.dumps(encode_message(bare)))
                padded = GossipData(MessageId(ghost, sequence), "x" * pad, 1, ghost)
                frame = json.dumps(encode_message(padded)).encode()
                assert len(frame) == size
                return frame + b"\n"

            writer.write(line(1, MAX_FRAME_BYTES))
            writer.write(line(2, MAX_FRAME_BYTES + 1))
            writer.write(line(3, 1000))
            await writer.drain()
            assert await wait_until(lambda: len(received) == 2)
            assert [m.message_id.sequence for m in received] == [1, 3]
            assert transport.frames_malformed == 1
            writer.close()
            await transport.close()

        run(scenario())

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=256))
    @example(b"x" * (MAX_FRAME_BYTES + 1))  # over the frame cap
    @example(b'{"hello": ["127.0.0.1", 1e999]}')  # int(inf): OverflowError
    @example(b'{"hello": ["127.0.0.1", 9], "epoch": 1e999}')
    @example(b'{"hello": "127.0.0.1:9"}')
    @example(b'{"epoch": 0}')
    @example(b"[" * 5000)
    def test_any_invalid_hello_is_refused_counted_and_survived(self, hello_line):
        async def scenario():
            complaints = _complaints()
            transport = await _listening()
            port = transport.local_address.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(hello_line + b"\n")
                await writer.drain()
                reply = await reader.read()
            except ConnectionResetError:  # closed with our bytes still unread
                reply = b""
            assert reply == b""
            assert transport.handshakes_refused == 1
            writer.close()
            # A well-formed peer is still served.
            good_reader, good_writer = await _hello(port, NodeId("127.0.0.1", 45993), epoch=0)
            assert json.loads(await good_reader.readline()) == {
                "hello": transport.local_address.to_wire(), "epoch": 0,
            }
            good_writer.close()
            await transport.close()
            gc.collect()
            await asyncio.sleep(0)
            assert complaints == []

        run(scenario())
