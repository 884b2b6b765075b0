"""The two live workloads: a real ``LocalCluster`` on loopback TCP with the
pub/sub facade on top, loaded from this one process, thread and event loop.

Both are **closed loops**: a publisher sends its next message only after every
node's probe subscriber has received the previous one.  Traffic crosses the
host's loopback interface, never a real link.

Latency is taken at one probe ``Subscription`` per (node, topic), each read by
its own task.  Every other subscription is emptied by one sweeper task, so the
generator costs O(messages), not O(messages × clients) task wake-ups.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.runtime.cluster import LocalCluster
from repro.service.bench import BENCH_CONFIG
from repro.service.pubsub import PubSubClient, PubSubCluster, ServiceConfig, Subscription

from harness import SAMPLE_PERIOD, Calibration, Stage, Tracer, peak_rss_mib

DELIVERY_TIMEOUT = 5.0
#: A run with this many undelivered publishes stops early: each one costs
#: ``DELIVERY_TIMEOUT`` seconds and the run has already failed.
MAX_FAILURES = 3
_SWEEP_YIELD = 64
#: Well inside the time a 256-deep client queue takes to fill at these rates.
_SWEEP_PERIOD = 0.02
_PAYLOAD_POOL = 64
_FILL_ROUNDS = 2
#: A set-up attempt ends regular about six times in ten.
_OVERLAY_ATTEMPTS = 20

#: Limits lifted so they never fire on an honest run; if one does, the run
#: is incorrect, not mistuned.
SERVICE_CONFIG = ServiceConfig(
    publish_rate=1e9, publish_burst=1e9, subscriber_queue=256
)


@dataclass(frozen=True)
class LiveSpec:
    name: str
    why: str
    nodes: int
    active_view: int
    clients: int
    topics: int
    payload_bytes: int
    #: Publishes in flight (= publisher tasks, each a closed loop).
    window: int
    warmup: int
    exact_ops: int
    live = True

    def toy(self) -> "LiveSpec":
        return replace(
            self, nodes=3, clients=min(self.clients, 30), warmup=20, exact_ops=100
        )


LIVE_WORKLOADS = (
    LiveSpec(
        name="live_serial_fanout",
        why="8 nodes, 1024 clients, 64 B, one publish in flight: the latency floor and client fan-out; batching is bypassed",
        nodes=8,
        active_view=BENCH_CONFIG.active_view_capacity,
        clients=1024,
        topics=2,
        payload_bytes=64,
        window=1,
        warmup=300,
        exact_ops=500,
    ),
    LiveSpec(
        name="live_window_bulk",
        why="8 nodes, 16 clients, 2 KiB, 16 publishes in flight: codec, outbox and socket path under load; fan-out is bypassed",
        nodes=8,
        active_view=4,
        clients=16,
        topics=2,
        payload_bytes=2048,
        window=16,
        warmup=1000,
        exact_ops=1200,
    ),
)


class Deployment:
    """A started cluster with its facades, clients and subscriptions."""

    def __init__(self, spec: LiveSpec, cluster: LocalCluster) -> None:
        self.spec = spec
        self.cluster = cluster
        self.service = PubSubCluster(cluster, config=SERVICE_CONFIG)
        self.publishers: list[tuple[PubSubClient, str]] = []
        self.client_subscriptions: list[Subscription] = []
        #: topic -> the probe subscription on every node.
        self.probes: dict[str, list[Subscription]] = {}
        topics = [f"topic-{index}" for index in range(spec.topics)]
        for index in range(spec.clients):
            topic = topics[index % spec.topics]
            client = self.service.facade(index % spec.nodes).client(f"client-{index}")
            self.client_subscriptions.append(client.subscribe(topic))
            self.publishers.append((client, topic))
        # Probes subscribe last, so a facade feeds them last: when a probe
        # has a message, every client queue on that node has it.
        for topic in topics:
            self.probes[topic] = [
                self.service.subscribe(node, topic, client="probe")
                for node in range(spec.nodes)
            ]

    async def stop(self) -> None:
        self.service.detach()
        await self.cluster.stop()

    def counters(self) -> dict[str, int]:
        """Cumulative public counters; read as deltas around a phase."""
        nodes = self.cluster.nodes
        facades = self.service.facades
        subscriptions = self.client_subscriptions + [
            probe for probes in self.probes.values() for probe in probes
        ]
        return {
            "frames_sent": sum(node.transport.frames_sent for node in nodes),
            "frames_overflow": sum(node.transport.frames_overflow for node in nodes),
            "frames_rejected": sum(node.transport.frames_rejected for node in nodes),
            "unhandled": sum(node.unhandled for node in nodes),
            "client_deliveries": sum(facade.messages_delivered for facade in facades),
            "dropped": sum(subscription.dropped for subscription in subscriptions),
            "rate_limited": sum(client.rate_limited for client, _topic in self.publishers),
        }


class LoadGenerator:
    """Closed-loop publishers, probe readers and the sweeper."""

    def __init__(self, deployment: Deployment, seed: int, tracer: Tracer) -> None:
        self.deployment = deployment
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self._rng = random.Random(f"{seed}/publishers")
        payload_rng = random.Random(f"{seed}/payloads")
        size = deployment.spec.payload_bytes
        self._payloads = [
            payload_rng.randbytes(size // 2).hex() for _ in range(_PAYLOAD_POOL)
        ]
        #: message id -> [probes still to hear from, future]
        self._pending: dict = {}
        self._tasks = [
            asyncio.create_task(self._read_probe(probe))
            for probes in deployment.probes.values()
            for probe in probes
        ]
        self._tasks.append(asyncio.create_task(self._sweep()))

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _read_probe(self, probe: Subscription) -> None:
        async for message in probe:
            entry = self._pending.get(message.message_id)
            if entry is not None:
                entry[0] -= 1
                if entry[0] == 0 and not entry[1].done():
                    entry[1].set_result(time.perf_counter())

    async def _sweep(self) -> None:
        subscriptions = self.deployment.client_subscriptions
        while True:
            for index, subscription in enumerate(subscriptions, 1):
                while subscription.qsize():
                    await subscription.get()
                if index % _SWEEP_YIELD == 0:
                    await asyncio.sleep(0)
            await asyncio.sleep(_SWEEP_PERIOD)

    async def run(
        self,
        span: str,
        *,
        count: Optional[int] = None,
        deadline: Optional[float] = None,
        calibrate: bool = False,
    ) -> Stage:
        """Publish until ``count`` operations were issued or ``deadline``
        passed, ``window`` at a time; returns once all have completed.  With
        ``calibrate`` a task spins every ``SAMPLE_PERIOD`` while they run."""
        spec = self.deployment.spec
        nodes = spec.nodes
        loop = asyncio.get_running_loop()
        clock = time.perf_counter
        publishers = self.deployment.publishers
        stage = Stage(calibration=Calibration() if calibrate else None)
        issued = 0

        async def publisher(parent: int) -> None:
            nonlocal issued
            while self.failed < MAX_FAILURES:
                if count is not None and issued >= count:
                    return
                if deadline is not None and clock() >= deadline:
                    return
                issued += 1
                sequence = self.attempted
                self.attempted += 1
                client, topic = self._rng.choice(publishers)
                payload = {"seq": sequence, "data": self._payloads[sequence % _PAYLOAD_POOL]}
                future = loop.create_future()
                start = clock()
                message_id = client.publish(topic, payload)
                self._pending[message_id] = [nodes, future]
                try:
                    end = await asyncio.wait_for(future, DELIVERY_TIMEOUT)
                except asyncio.TimeoutError:
                    self.failed += 1
                    continue
                finally:
                    del self._pending[message_id]
                stage.ops.append((start, end))
                self.tracer.add(f"op[{sequence}]", start, end, parent)

        async def calibrator() -> None:
            while True:
                await asyncio.sleep(SAMPLE_PERIOD)
                stage.calibration.sample()

        sampler = asyncio.create_task(calibrator()) if calibrate else None
        try:
            with self.tracer.span(span) as parent:
                await asyncio.gather(*(publisher(parent) for _ in range(spec.window)))
        finally:
            if sampler is not None:
                sampler.cancel()
                await asyncio.gather(sampler, return_exceptions=True)
                stage.calibration.sample()
        return stage


@dataclass
class LiveAttempt:
    #: The exact prefix first, then the timed remainder.
    stages: list[Stage]
    #: Counter deltas over the exact prefix (quiesced on both sides).
    exact: dict[str, int]


async def quiesce() -> None:
    """Let redundant flood copies still on the wire land before counters are
    read."""
    await asyncio.sleep(0.05)


async def measure(
    generator: LoadGenerator,
    *,
    seconds: Optional[float],
    profile: Optional[cProfile.Profile] = None,
) -> LiveAttempt:
    """Run the exact prefix (under ``profile`` when given), then keep going
    until ``seconds`` have passed since it began.  ``seconds=None`` stops after
    the prefix and does not calibrate: that is the traced run."""
    deployment = generator.deployment
    spec = deployment.spec
    calibrate = seconds is not None
    await quiesce()
    gc.collect()
    before = deployment.counters()
    began = time.perf_counter()
    if profile is not None:
        profile.enable()
    stages = [await generator.run("measure.exact", count=spec.exact_ops, calibrate=calibrate)]
    if profile is not None:
        profile.disable()
    await quiesce()
    after = deployment.counters()
    if seconds is not None:
        stages.append(
            await generator.run("measure.timed", deadline=began + seconds, calibrate=True)
        )
    return LiveAttempt(
        stages=stages,
        exact={key: after[key] - before[key] for key in after},
    )


async def views_full(cluster: LocalCluster, size: int) -> bool:
    """Run membership cycles until every active view holds ``size`` peers."""
    for _ in range(_FILL_ROUNDS + 1):
        if all(len(node.active_view()) == size for node in cluster.nodes):
            return True
        for node in cluster.nodes:
            node.membership.cycle()
        await asyncio.sleep(0.1)
    return False


async def set_up(spec: LiveSpec, seed: int, tracer: Tracer) -> Deployment:
    """Start clusters until one forms a regular overlay, then attach the
    service and subscribe every client.  Only that set-up is timed.

    Joins race on a live cluster, so the same seed can end with 10, 11 or 12
    links between 8 nodes of degree 3 — 13, 15 or 17 frames per broadcast and
    a tenth more or less throughput from nothing the program did.  An overlay
    whose views are not all full is an input this benchmark does not use.
    """
    clock = time.perf_counter
    full = min(spec.active_view, spec.nodes - 1)
    for attempt in range(_OVERLAY_ATTEMPTS):
        start = clock()
        cluster = LocalCluster(
            spec.nodes,
            config=replace(BENCH_CONFIG, active_view_capacity=spec.active_view),
            base_seed=seed * 10_000 + attempt * 100,
        )
        accepted = False
        try:
            await cluster.start()
            if await views_full(cluster, full):
                formed = clock()
                deployment = Deployment(spec, cluster)
                end = clock()
                parent = tracer.add("setup", start, end, None)
                tracer.add("cluster_start", start, formed, parent)
                tracer.add("subscribe", formed, end, parent)
                accepted = True
                return deployment
        finally:
            if not accepted:
                await cluster.stop()
    raise RuntimeError(f"no regular overlay in {_OVERLAY_ATTEMPTS} attempts")


async def deploy(spec: LiveSpec, seed: int, tracer: Tracer, setups: int) -> Deployment:
    """Set the service up ``setups`` times, keeping the last."""
    for _ in range(setups - 1):
        await (await set_up(spec, seed, tracer)).stop()
        gc.collect()
    return await set_up(spec, seed, tracer)


async def warm_up(generator: LoadGenerator) -> float:
    """Fixed warm-up; returns peak RSS after it (a fixed amount of work, so
    the figure does not grow with how many operations fit in the run)."""
    await generator.run("warmup", count=generator.deployment.spec.warmup)
    return peak_rss_mib()
