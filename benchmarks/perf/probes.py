"""Single-layer probes: one layer alone, untraced, under two seconds each.

A probe answers "how fast is this layer with nothing around it", so a later
change to the layer has a number of its own besides its share of a workload.
Each is reported with the workloads whose path crosses the layer.
"""

from __future__ import annotations

import asyncio
import json
import socket
import statistics
import time
from dataclasses import dataclass

from repro.common.ids import MessageId, NodeId
from repro.common.messages import Message, decode_message, encode_message, register_message
from repro.common.rng import SeedSequence
from repro.gossip.messages import GossipData
from repro.runtime.transport import AsyncioTransport
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import SimNode

_BURST = 256


def gossip_message(payload_text: str) -> GossipData:
    """The frame a live publish puts on the wire: a topic envelope in a
    :class:`GossipData`."""
    origin = NodeId("127.0.0.1", 40_001)
    return GossipData(
        MessageId(origin, 7),
        {"@topic": "topic-0", "@data": {"seq": 7, "data": payload_text}},
        2,
        NodeId("127.0.0.1", 40_002),
    )


def codec_us(payload_text: str, rounds: int = 2_000) -> tuple[float, float]:
    """Median µs to encode one gossip frame to JSON bytes, and to decode it."""
    message = gossip_message(payload_text)
    frame = json.dumps(encode_message(message))
    if decode_message(json.loads(frame)) != message:
        raise AssertionError("codec probe: frame does not round-trip")
    encode, decode = [], []
    clock = time.perf_counter
    for _ in range(rounds):
        start = clock()
        json.dumps(encode_message(message))
        middle = clock()
        decode_message(json.loads(frame))
        encode.append(middle - start)
        decode.append(clock() - middle)
    return statistics.median(encode) * 1e6, statistics.median(decode) * 1e6


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def transport_frames_per_s(payload_text: str, frames: int = 20_000) -> float:
    """Frames per second one pooled loopback connection carries between two
    transports: encode, outbox, write+drain, readline, decode, dispatch."""
    message = gossip_message(payload_text)
    received = 0
    done = asyncio.get_running_loop().create_future()

    def on_message(_peer: NodeId, _message: Message) -> None:
        nonlocal received
        received += 1
        if received == frames:
            done.set_result(time.perf_counter())

    sender = AsyncioTransport(
        NodeId("127.0.0.1", _free_port()), lambda _p, _m: None, max_queue=frames
    )
    receiver = AsyncioTransport(NodeId("127.0.0.1", _free_port()), on_message)
    await sender.start_server()
    await receiver.start_server()
    try:
        start = time.perf_counter()
        for _ in range(frames):
            sender.send(receiver.local_address, message)
        end = await asyncio.wait_for(done, timeout=30.0)
    finally:
        await sender.close()
        await receiver.close()
    if sender.frames_overflow:
        raise AssertionError("transport probe: outbox overflowed")
    return frames / (end - start)


def engine_events_per_s(events: int) -> float:
    """Bare kernel: ``events`` no-op events posted and drained as 256-wide
    bursts, the shape one flood hop gives the queue."""
    engine = Engine()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    start = time.perf_counter()
    for _ in range(max(1, events // _BURST)):
        for _ in range(_BURST):
            engine.post(0.01, tick)
        engine.run_until_idle()
    return fired / (time.perf_counter() - start)


@register_message("perfbench.ping")
@dataclass(frozen=True, slots=True)
class _Ping(Message):
    value: int


def network_sends_per_s(sends: int) -> float:
    """``Network.send`` + delivery between two nodes with a no-op handler."""
    engine = Engine()
    network = Network(engine, seeds=SeedSequence(3))
    a = SimNode(NodeId("a", 1), network)
    b = SimNode(NodeId("b", 1), network)
    b.register_handler(_Ping, lambda _message: None)
    message = _Ping(1)
    before = network.stats.delivered
    start = time.perf_counter()
    for _ in range(max(1, sends // _BURST)):
        for _ in range(_BURST):
            network.send(a.node_id, b.node_id, message)
        engine.run_until_idle()
    elapsed = time.perf_counter() - start
    return (network.stats.delivered - before) / elapsed
