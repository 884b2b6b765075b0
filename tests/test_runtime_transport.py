"""Work pins for the live transport's data path.

A fan-out of one message encodes it once; everything queued for a peer at
one pump wakeup leaves in one write and one ``drain()``; outcomes (sent
counts, observer calls, failure callbacks) stay per frame; the per-peer
bulkhead bounds queued plus in-flight frames by ``max_queue``; and a
handler that raises costs one counted frame, not the connection.
"""

from __future__ import annotations

import asyncio
import gc
import socket

import pytest

from repro.common.errors import CodecError
from repro.common.ids import MessageId, NodeId
from repro.gossip.messages import GossipData
from repro.runtime import transport as transport_module
from repro.runtime.transport import AsyncioTransport


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def wait_until(predicate, timeout=8.0, interval=0.01):
    """Poll ``predicate`` until truthy (returns True) or timeout (False)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def free_address() -> NodeId:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return NodeId("127.0.0.1", probe.getsockname()[1])


def gossip(origin: NodeId, sequence: int, payload="x") -> GossipData:
    return GossipData(MessageId(origin, sequence), payload, 1, origin)


class Inbox:
    """An ``IncomingHandler`` that records payloads in arrival order."""

    def __init__(self) -> None:
        self.payloads: list = []

    def __call__(self, _peer: NodeId, message) -> None:
        self.payloads.append(message.payload)


async def started(handler=None, **options) -> AsyncioTransport:
    transport = AsyncioTransport(
        free_address(), handler if handler is not None else Inbox(), **options
    )
    await transport.start_server()
    return transport


async def pooled(sender: AsyncioTransport, dst: NodeId) -> None:
    """Open and pool the connection ``sender`` -> ``dst``."""
    results = []
    sender.probe(dst, lambda _peer, ok: results.append(ok))
    assert await wait_until(lambda: results == [True])


class TestEncodeOncePerFanOut:
    def test_fan_out_to_three_pooled_peers_encodes_once(self, monkeypatch):
        calls = []
        encode = transport_module.encode_message

        def counting_encode(message):
            calls.append(message)
            return encode(message)

        monkeypatch.setattr(transport_module, "encode_message", counting_encode)

        async def scenario():
            sender = await started()
            inboxes = [Inbox() for _ in range(3)]
            peers = [await started(inbox) for inbox in inboxes]
            for peer in peers:
                await pooled(sender, peer.local_address)
            message = gossip(sender.local_address, 1, "fan-out")
            for peer in peers:
                sender.send(peer.local_address, message)
            assert await wait_until(
                lambda: all(inbox.payloads == ["fan-out"] for inbox in inboxes)
            )
            assert calls == [message]
            assert sender.frames_sent == 3
            # A new message object is a new encode, even if equal.
            sender.send(peers[0].local_address, gossip(sender.local_address, 1, "fan-out"))
            assert len(calls) == 2
            for transport in (sender, *peers):
                await transport.close()

        run(scenario())

    def test_unencodable_message_raises_at_every_send(self):
        async def scenario():
            sender = await started()
            bad = gossip(sender.local_address, 1, payload=object())
            dst = free_address()
            for _ in range(2):
                with pytest.raises(CodecError):
                    sender.send(dst, bad)
            assert not sender._outboxes
            await sender.close()

        run(scenario())


class TestCoalescedWrites:
    def test_frames_queued_at_one_wakeup_leave_in_order_with_one_drain(self):
        async def scenario():
            sender = await started()
            inbox = Inbox()
            receiver = await started(inbox)
            dst = receiver.local_address
            await pooled(sender, dst)
            writer = sender._connections[dst].writer
            drains, writes = [], []
            drain, writelines = writer.drain, writer.writelines

            async def counting_drain():
                drains.append(1)
                await drain()

            def counting_writelines(frames):
                writes.append(len(frames))
                writelines(frames)

            writer.drain, writer.writelines = counting_drain, counting_writelines
            count = 50
            for sequence in range(count):
                sender.send(dst, gossip(sender.local_address, sequence, sequence))
            assert await wait_until(lambda: len(inbox.payloads) == count)
            assert inbox.payloads == list(range(count))
            assert drains == [1] and writes == [count]
            assert sender.frames_sent == count
            await sender.close()
            await receiver.close()

        run(scenario())

    def test_failed_dial_fails_every_queued_frame_once(self):
        async def scenario():
            sender = await started()
            observed = []
            sender.send_observer = lambda peer, ok: observed.append((peer, ok))
            dead = free_address()  # nobody listens here
            failed = []
            count = 5
            for sequence in range(count):
                sender.send(
                    dead,
                    gossip(sender.local_address, sequence),
                    lambda peer, message, sequence=sequence: failed.append(
                        (sequence, peer, message.message_id.sequence)
                    ),
                )
            assert await wait_until(lambda: len(failed) == count)
            await asyncio.sleep(0.05)  # no late duplicates
            assert sorted(failed) == [(s, dead, s) for s in range(count)]
            assert observed == [(dead, False)] * count
            assert sender.frames_sent == 0
            await sender.close()

        run(scenario())


class TestBulkhead:
    def test_stalled_peer_never_holds_more_than_max_queue_frames(self):
        """The pump's batch is stuck in ``drain()`` against a peer that
        stopped reading; the queue behind it may refill only up to the
        frames the batch leaves of ``max_queue``."""

        async def scenario():
            stalled = []

            async def never_read(reader, writer):
                stalled.append(writer)

            server = await asyncio.start_server(never_read, "127.0.0.1", 0)
            dst = NodeId("127.0.0.1", server.sockets[0].getsockname()[1])
            max_queue = 4
            sender = await started(max_queue=max_queue)
            message = gossip(sender.local_address, 1, "y" * (256 * 1024))
            sends = most = 0
            while sender.frames_overflow < 20 and sends < 5000:
                sender.send(dst, message)
                sends += 1
                outstanding = sends - sender.frames_overflow - sender.frames_sent
                most = max(most, outstanding)
                assert outstanding <= max_queue
                await asyncio.sleep(0.001)
            assert sender.frames_overflow >= 20
            assert most == max_queue
            await sender.close()
            for writer in stalled:
                writer.close()
            server.close()
            await server.wait_closed()

        run(scenario())


class TestHandlerFaults:
    def test_raising_handler_costs_one_frame_not_the_connection(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            complaints = []
            loop.set_exception_handler(lambda _loop, context: complaints.append(context))
            received = []

            def handler(_peer, message):
                if message.payload == "boom":
                    raise RuntimeError("handler bug")
                received.append(message.payload)

            sender = await started()
            receiver = await started(handler)
            src, dst = sender.local_address, receiver.local_address
            sender.send(dst, gossip(src, 1, "before"))
            assert await wait_until(lambda: received == ["before"])
            downs = []
            receiver.watch(src, downs.append)  # the pooled inbound connection
            connection = receiver._connections[src]

            sender.send(dst, gossip(src, 2, "boom"))
            sender.send(dst, gossip(src, 3, "after"))
            assert await wait_until(lambda: received == ["before", "after"])
            assert receiver.handler_errors == 1
            assert receiver.frames_received == 3
            assert receiver._connections[src] is connection
            assert not connection.reader_task.done()
            assert downs == []
            await sender.close()
            await receiver.close()
            gc.collect()  # an unretrieved task exception is reported here
            await asyncio.sleep(0)
            assert complaints == []

        run(scenario())
