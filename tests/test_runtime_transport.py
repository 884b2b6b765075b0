"""Work pins for the live transport's data path.

A fan-out of one message encodes it once, and a broadcast's payload is
encoded once across a cluster: relays re-send the body bytes they
received, and a duplicate's body is never parsed; everything queued for
a peer at one pump wakeup leaves in one write and one ``drain()``;
outcomes (sent counts, observer calls, failure callbacks) stay per
frame; the per-peer bulkhead bounds queued plus in-flight frames by
``max_queue``; a handler that raises costs one counted frame, not the
connection; and a hostile GossipData header or body costs one counted
line, not the reader.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.common.ids import MessageId, NodeId
from repro.common.messages import encode_value
from repro.core.config import HyParViewConfig
from repro.gossip.messages import GossipData
from repro.runtime import transport as transport_module
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import MAX_FRAME_BYTES, AsyncioTransport

CLUSTER_CONFIG = HyParViewConfig(
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


def counting(monkeypatch, name: str) -> list:
    """Record the first argument of every call the transport makes to the
    codec function ``name``."""
    calls = []
    function = getattr(transport_module, name)

    def counted(value):
        calls.append(value)
        return function(value)

    monkeypatch.setattr(transport_module, name, counted)
    return calls


async def pooled(sender: AsyncioTransport, dst: NodeId) -> None:
    """Open and pool the connection ``sender`` -> ``dst``."""
    results = []
    sender.probe(dst, lambda _peer, ok: results.append(ok))
    assert await wait_until(lambda: results == [True])


class TestOnePayloadEncodePerBroadcast:
    def test_fan_out_to_three_pooled_peers_encodes_once(self, monkeypatch):
        calls = counting(monkeypatch, "encode_value")

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
            assert calls == ["fan-out"]
            assert sender.frames_sent == 3
            # A new message object is a new encode, even if equal.
            sender.send(peers[0].local_address, gossip(sender.local_address, 1, "fan-out"))
            assert len(calls) == 2
            for transport in (sender, *peers):
                await transport.close()

        run(scenario())

    def test_relays_resend_the_received_bytes_across_a_four_node_cluster(self, monkeypatch):
        """The origin encodes the payload once; every other node parses it
        once, on its first copy, relays those bytes and never reads a
        duplicate's body."""
        encodes = counting(monkeypatch, "encode_value")
        decodes = counting(monkeypatch, "decode_value")

        async def scenario():
            cluster = LocalCluster(4, config=CLUSTER_CONFIG, base_seed=5)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(2)
                encodes.clear()
                decodes.clear()
                payload = {"seq": 1, "data": ("x" * 64, 3, None)}
                message_id = cluster.nodes[0].broadcast(payload)
                assert await cluster.wait_for_delivery(message_id, 4) == 4
                # The origin sends to its whole view, every other node to its
                # view but the sender of its first copy; three copies are
                # first copies, the rest duplicates.
                copies = sum(len(node.active_view()) for node in cluster.nodes) - 3
                layers = [node.broadcast_layer for node in cluster.nodes]
                assert await wait_until(
                    lambda: sum(layer.duplicate_count for layer in layers) == copies - 3
                )
                assert copies - 3 > 0
                assert encodes == [payload]
                assert len(decodes) == 3
                assert [record.payload for record in cluster.delivery_log.records] == [
                    payload
                ] * 4
            finally:
                await cluster.stop()

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

    def test_unencodable_payload_raises_at_the_origin_send(self):
        async def scenario():
            cluster = LocalCluster(2, config=CLUSTER_CONFIG, base_seed=9)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(1)
                with pytest.raises(CodecError):
                    cluster.nodes[0].broadcast(object())
            finally:
                await cluster.stop()

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


# ----------------------------------------------------------------------
# GossipData frames: header, tab, body
# ----------------------------------------------------------------------
GHOST = NodeId("127.0.0.1", 45990)


def header(sequence: int, hops: int = 1) -> list:
    """A valid per-hop header: a message of GHOST's, sent by GHOST."""
    return [GHOST.host, GHOST.port, sequence, hops, GHOST.host, GHOST.port]


def body_of(payload) -> bytes:
    return json.dumps(encode_value(payload)).encode()


def gossip_line(fields: list, body: bytes) -> bytes:
    return json.dumps(fields).encode() + b"\t" + body + b"\n"


def padded_line(sequence: int, size: int) -> bytes:
    """A valid frame of exactly ``size`` bytes, newline excluded."""
    bare = len(gossip_line(header(sequence), body_of(""))) - 1
    line = gossip_line(header(sequence), body_of("x" * (size - bare)))
    assert len(line) == size + 1
    return line


class _Writer:
    def close(self) -> None:
        pass


async def read_lines(transport: AsyncioTransport, lines: list) -> None:
    """Run the transport's read loop over ``lines`` on a connection from
    GHOST, to EOF."""
    reader = asyncio.StreamReader(limit=MAX_FRAME_BYTES)
    for line in lines:
        reader.feed_data(line)
    reader.feed_eof()
    connection = transport_module._Connection(GHOST, reader, _Writer(), epoch=0)
    await transport._read_loop(connection)


HOSTS = st.one_of(
    st.integers(), st.booleans(), st.none(), st.lists(st.text(max_size=3), max_size=2)
)
PORTS = st.one_of(
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=65536),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)
COUNTS = st.one_of(
    st.booleans(), st.integers(max_value=-1), st.floats(), st.text(max_size=3), st.none()
)
BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from([0, 4]), HOSTS),
    st.tuples(st.sampled_from([1, 5]), PORTS),
    st.tuples(st.sampled_from([2, 3]), COUNTS),
)
BAD_BODIES = [
    b"",
    b"{broken",
    b"\xff\xfe not utf-8",
    b"[" * 20000 + b"]" * 20000,  # too deep for the JSON parser
    b'{"no": "tag"}',
    b'["@node", "h", "abc"]',
    b'["@node", "h", 1e999]',
    b'{"@dict": {"k": {"x": 1}}}',
]
#: ``(kind, detail)``: what one hostile line is made of (see ``hostile``).
LINES = st.one_of(
    st.tuples(st.just("good"), st.none()),
    st.tuples(st.just("bad-field"), BAD_FIELDS),
    st.tuples(st.just("bad-length"), st.sampled_from([0, 1, 5, 7])),
    st.tuples(st.just("truncated"), st.integers(min_value=1)),
    st.tuples(st.just("bad-body"), st.sampled_from(BAD_BODIES)),
    st.tuples(st.just("garbage"), st.binary(max_size=64)),
    st.tuples(st.just("sized"), st.sampled_from([0, 1])),
)


def hostile(kind: str, detail, sequence: int) -> tuple[bytes, str]:
    """One line and what the reader must make of it: ``good`` (delivered),
    ``bad`` (counted malformed) or ``any`` (one or the other)."""
    if kind == "good":
        return gossip_line(header(sequence), body_of(f"payload-{sequence}")), "good"
    if kind == "bad-field":
        index, value = detail
        fields = header(sequence)
        fields[index] = value
        return gossip_line(fields, body_of("payload")), "bad"
    if kind == "bad-length":
        fields = (header(sequence) + [0])[:detail]
        return gossip_line(fields, body_of("payload")), "bad"
    if kind == "truncated":
        full = gossip_line(header(sequence), body_of("payload"))
        return full[: 1 + detail % (len(full) - 2)] + b"\n", "bad"
    if kind == "bad-body":
        return gossip_line(header(sequence), detail), "bad"
    if kind == "garbage":
        return b"[" + detail.replace(b"\n", b" ") + b"\n", "any"
    return padded_line(sequence, MAX_FRAME_BYTES + detail), "bad" if detail else "good"


class TestGossipFrames:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(LINES, max_size=5))
    @example([("sized", 0), ("sized", 1)])
    @example([("bad-field", (1, True)), ("bad-field", (3, -1)), ("bad-field", (0, 7))])
    @example([("bad-body", b"[" * 20000 + b"]" * 20000), ("truncated", 40)])
    def test_hostile_lines_are_counted_once_and_the_reader_survives(self, drawn):
        lines, expected = [], []
        for sequence, (kind, detail) in enumerate(drawn, 1):
            line, expect = hostile(kind, detail, sequence)
            lines.append(line)
            expected.append((sequence, expect))
        lines.append(gossip_line(header(0), body_of("sentinel")))

        async def scenario():
            received, seen = [], set()

            def handler(_peer, message):
                seen.add(message.message_id)
                received.append((message.message_id.sequence, message.payload))

            transport = AsyncioTransport(free_address(), handler)
            transport.delivered = seen.__contains__
            await read_lines(transport, lines)  # returns at EOF: never raised
            assert received[-1] == (0, "sentinel")
            delivered = {sequence for sequence, _payload in received}
            for sequence, expect in expected:
                if expect == "good":
                    assert sequence in delivered
                elif expect == "bad":
                    assert sequence not in delivered
            # Every line is received or counted malformed, exactly once.
            assert transport.frames_received == len(received)
            assert transport.frames_received + transport.frames_malformed == len(lines)
            assert transport.handler_errors == 0
            await transport.close()

        run(scenario())

    def test_every_bad_body_is_counted_once(self):
        # Outside Hypothesis, which raises the recursion limit: at the
        # interpreter's default, 600 levels overflow the value decoder
        # (two frames a level) but not the JSON parser (one).
        bodies = [*BAD_BODIES, b"[" * 600 + b"1" + b"]" * 600]

        async def scenario():
            received = []
            transport = AsyncioTransport(
                free_address(), lambda _peer, message: received.append(message.payload)
            )
            lines = [gossip_line(header(sequence), body) for sequence, body in enumerate(bodies)]
            await read_lines(transport, [*lines, gossip_line(header(99), body_of("after"))])
            assert received == ["after"]
            assert transport.frames_malformed == len(bodies)
            await transport.close()

        run(scenario())

    def test_a_changed_payload_is_encoded_afresh(self):
        """Only a relay of the message being handled re-sends its bytes: a
        new message carrying the payload, or a send after the frame was
        handled, encodes the payload as it is now."""

        async def scenario():
            handled = []
            inbox = Inbox()
            receiver = await started(inbox)

            def rebroadcast(_peer, message):
                handled.append(message)
                message.payload["k"] = "changed"
                relay.send(
                    receiver.local_address,
                    GossipData(MessageId(GHOST, 2), message.payload, 0, relay.local_address),
                )

            relay = await started(rebroadcast)
            await read_lines(relay, [gossip_line(header(1), body_of({"k": "as received"}))])
            payload = handled[0].payload
            payload["k"] = "changed again"
            relay.send(
                receiver.local_address,
                GossipData(MessageId(GHOST, 1), payload, 2, relay.local_address),
            )
            assert await wait_until(
                lambda: inbox.payloads == [{"k": "changed"}, {"k": "changed again"}]
            )
            await relay.close()
            await receiver.close()

        run(scenario())

    def test_a_fresh_copy_with_a_bad_body_is_dropped_and_a_good_copy_later_delivered(self):
        async def scenario():
            cluster = LocalCluster(2, config=CLUSTER_CONFIG, base_seed=3)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(1)
                node = cluster.nodes[0]
                writer = await hello(node.node_id)
                message_id = MessageId(GHOST, 1)
                writer.write(gossip_line(header(1), b'{"@dict": {"k": '))
                await writer.drain()
                assert await wait_until(lambda: node.transport.frames_malformed == 1)
                assert not node.broadcast_layer.has_delivered(message_id)

                writer.write(gossip_line(header(1), body_of({"k": "good"})))
                await writer.drain()
                # Delivered here, and forwarded to the other node.
                assert await cluster.wait_for_delivery(message_id, 2) == 2
                assert [record.payload for record in cluster.delivery_log.records] == [
                    {"k": "good"}
                ] * 2
                assert node.transport.frames_malformed == 1
                writer.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_duplicate_body_is_never_parsed(self, monkeypatch):
        decodes = counting(monkeypatch, "decode_value")

        async def scenario():
            node = RuntimeNode(config=CLUSTER_CONFIG)
            await node.start()
            writer = await hello(node.node_id)
            writer.write(gossip_line(header(1), body_of("first")))
            writer.write(gossip_line(header(1, hops=2), b"{not json at all"))
            writer.write(gossip_line(header(1, hops=3), body_of("second")))
            await writer.drain()
            assert await wait_until(lambda: node.broadcast_layer.duplicate_count == 2)
            assert decodes == ["first"]
            assert node.delivered == [(MessageId(GHOST, 1), "first")]
            assert node.transport.frames_malformed == 0
            assert node.transport.frames_received == 3
            writer.close()
            await node.stop()

        run(scenario())


async def hello(dst: NodeId):
    """A raw connection to ``dst`` that has said hello as GHOST; returns its
    writer."""
    _reader, writer = await asyncio.open_connection(dst.host, dst.port)
    writer.write(json.dumps({"hello": GHOST.to_wire(), "epoch": 0}).encode() + b"\n")
    await writer.drain()
    return writer
