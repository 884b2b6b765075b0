"""Topic pub/sub over the live runtime: fan-out, budgets, restart re-attach.

Real loopback sockets, small clusters — same conventions as
``test_runtime.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import ConfigurationError, RateLimitedError, ServiceError
from repro.core.config import HyParViewConfig
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RuntimeNode
from repro.service import PubSubCluster, PubSubNode, ServiceConfig

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


class TestPubSubNode:
    def test_requires_started_node(self):
        node = RuntimeNode(config=CONFIG)
        with pytest.raises(ConfigurationError, match="started"):
            PubSubNode(node)

    def test_topic_fanout_across_nodes(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            ones = service.subscribe(1, "orders", client="c1")
            twos = service.subscribe(2, "orders", client="c2")
            other = service.subscribe(1, "audit", client="c1")
            message_id = service.facade(0).client("c0").publish("orders", {"n": 1})
            await cluster.wait_for_delivery(message_id, 3)
            got_one = await ones.get(timeout=2.0)
            got_two = await twos.get(timeout=2.0)
            assert got_one.topic == "orders" and got_one.payload == {"n": 1}
            assert got_two.message_id == message_id
            assert await other.get(timeout=0.2) is None  # wrong topic
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_publisher_receives_own_topic_locally(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            client = service.facade(0).client("me")
            subscription = client.subscribe("loop")
            client.publish("loop", "hello")
            message = await subscription.get(timeout=2.0)
            assert message.payload == "hello"
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_rate_limit_raises_and_counts(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(
                cluster,
                config=ServiceConfig(publish_rate=10.0, publish_burst=2.0),
            )
            client = service.facade(0).client("spammer")
            client.publish("t")
            client.publish("t")
            with pytest.raises(RateLimitedError, match="spammer"):
                client.publish("t")
            assert client.rate_limited == 1
            assert client.published == 2
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_slow_subscriber_sheds_oldest(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(
                cluster, config=ServiceConfig(subscriber_queue=2)
            )
            facade = service.facade(0)
            subscription = facade.subscribe("firehose")
            for n in range(4):  # local self-delivery fills the buffer
                facade.publish("firehose", n)
            await asyncio.sleep(0.1)
            assert subscription.dropped == 2
            assert subscription.qsize() == 2
            first = await subscription.get(timeout=1.0)
            assert first.payload == 2  # the two oldest were shed
            assert service.total_dropped() == subscription.dropped
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_plain_broadcasts_are_ignored_not_delivered(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            subscription = service.subscribe(0, "t")
            cluster.nodes[0].broadcast("raw payload")
            await asyncio.sleep(0.2)
            assert service.facade(0).messages_ignored >= 1
            assert await subscription.get(timeout=0.2) is None
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_topic_and_detach_validation(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            facade = PubSubNode(cluster.nodes[0])
            with pytest.raises(ServiceError, match="topic"):
                facade.publish("")
            facade.detach()
            with pytest.raises(ServiceError, match="detached"):
                facade.subscribe("t")
            with pytest.raises(ServiceError, match="detached"):
                facade.publish("t")
            facade.detach()  # idempotent
            await cluster.stop()

        run(scenario())


async def _single_facade(scenario) -> None:
    """Run ``scenario(facade)`` against one facade of a started 2-node cluster."""
    cluster = LocalCluster(2, config=CONFIG)
    await cluster.start()
    facade = PubSubNode(cluster.nodes[0])
    try:
        await scenario(facade)
    finally:
        facade.detach()
        await cluster.stop()


async def _parked(subscription) -> asyncio.Task:
    """A task reading ``subscription``, run until it waits on an empty buffer."""
    reader = asyncio.create_task(subscription.get())
    while subscription._waiter is None:
        await asyncio.sleep(0)
    return reader


async def _buffered(subscription, count: int) -> int:
    """Wait until ``subscription`` buffers ``count`` messages; returns its size."""
    deadline = asyncio.get_running_loop().time() + 2.0
    while subscription.qsize() < count and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.01)
    return subscription.qsize()


class TestSubscriptionContract:
    """One bounded buffer and one reader per subscription."""

    def test_cancelled_reader_does_not_break_the_next_delivery(self):
        async def scenario(facade):
            abandoned = facade.subscribe("t")
            others = [facade.subscribe("t") for _ in range(3)]
            reader = await _parked(abandoned)
            reader.cancel()
            facade.publish("t", "next")  # before the cancelled reader runs again
            await asyncio.gather(reader, return_exceptions=True)
            assert reader.cancelled()
            for subscription in [*others, abandoned]:
                assert (await subscription.get(timeout=1.0)).payload == "next"

        run(_single_facade(scenario))

    def test_timed_out_get_consumes_nothing(self):
        async def scenario(facade):
            subscription = facade.subscribe("t")
            assert await subscription.get(timeout=0.05) is None
            facade.publish("t", "later")
            assert (await subscription.get(timeout=1.0)).payload == "later"

        run(_single_facade(scenario))

    def test_close_returns_buffered_messages_then_none(self):
        async def scenario(facade):
            subscription = facade.subscribe("t")
            facade.publish("t", 1)
            facade.publish("t", 2)
            assert await _buffered(subscription, 2) == 2
            subscription.close()
            facade.publish("t", 3)  # after close: not delivered
            assert [(await subscription.get()).payload for _ in range(2)] == [1, 2]
            assert await subscription.get() is None
            assert [m.payload async for m in subscription] == []

        run(_single_facade(scenario))

    def test_close_wakes_a_parked_reader(self):
        async def scenario(facade):
            subscription = facade.subscribe("t")
            reader = await _parked(subscription)
            subscription.close()
            assert await asyncio.wait_for(reader, 1.0) is None

        run(_single_facade(scenario))

    def test_second_concurrent_reader_raises(self):
        async def scenario(facade):
            subscription = facade.subscribe("t")
            reader = await _parked(subscription)
            with pytest.raises(ServiceError, match="already has a reader"):
                await subscription.get(timeout=0.05)
            facade.publish("t", "first reader's")
            assert (await asyncio.wait_for(reader, 1.0)).payload == "first reader's"

        run(_single_facade(scenario))


class TestPubSubCluster:
    def test_restart_reattaches_fresh_facade(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            old_facade = service.facade(2)
            old_subscription = old_facade.subscribe("t")
            await cluster.nodes[2].crash()
            await cluster.restart_node(2, reuse_port=True)
            assert service.reattached == 1
            assert service.facade(2) is not old_facade
            assert service.facade(2).node is cluster.nodes[2]
            # The old facade died with its process; its subscription ended.
            assert await old_subscription.get(timeout=0.2) is None
            # The fresh facade serves traffic once the overlay re-admits
            # the reborn node (some peer carries it in an active view).
            reborn_id = cluster.nodes[2].node_id
            deadline = asyncio.get_running_loop().time() + 8.0
            while asyncio.get_running_loop().time() < deadline:
                if any(
                    reborn_id in node.active_view()
                    for node in cluster.nodes[:2]
                ):
                    break
                await asyncio.sleep(0.05)
            subscription = service.subscribe(2, "t", client="back")
            message_id = service.publish(0, "t", "again")
            await cluster.wait_for_delivery(message_id, 3)
            message = await subscription.get(timeout=2.0)
            assert message.payload == "again"
            service.detach()
            await cluster.stop()

        run(scenario())

    def test_detach_unhooks_restart_listener(self):
        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            service.detach()
            assert cluster.restart_listeners == []
            await cluster.stop()

        run(scenario())


class TestClusterMetrics:
    def test_registry_mirrors_service_and_transport_counters(self):
        async def scenario():
            from repro.obs.http import MetricsServer, scrape

            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster, config=ServiceConfig(subscriber_queue=2))
            registry = service.metrics_registry()
            assert service.metrics_registry() is registry  # cached
            subscription = service.subscribe(1, "t", client="c1")
            message_id = service.publish(0, "t", {"n": 1})
            await cluster.wait_for_delivery(message_id, 2)
            assert (await subscription.get(timeout=2.0)).payload == {"n": 1}
            # A subscriber that never reads: k = 5 messages at capacity 2.
            idle = service.subscribe(1, "firehose", client="idle")
            for n in range(5):
                await cluster.wait_for_delivery(service.publish(0, "firehose", n), 2)
            assert idle.dropped == service.total_dropped() == 3

            server = await MetricsServer(registry).start()
            try:
                body = await scrape("127.0.0.1", server.port)
            finally:
                await server.close()
            service.detach()
            await cluster.stop()
            return body

        body = run(scenario())
        # One exposition covers the service counters, the breaker, the
        # per-client budgets and the transport epoch audits.
        for family in (
            "repro_service_published_total",
            "repro_service_delivered_total",
            "repro_service_client_rate_limited_total",
            "repro_breaker_trips_total",
            "repro_breaker_open",
            "repro_transport_frames_total",
            "repro_transport_epoch",
        ):
            assert f"# TYPE {family} " in body, family
        published = [
            line
            for line in body.splitlines()
            if line.startswith("repro_service_published_total{")
        ]
        assert sum(float(line.split()[-1]) for line in published) >= 1
        dropped = [
            line
            for line in body.splitlines()
            if line.startswith("repro_service_dropped_total{")
        ]
        assert sum(float(line.split()[-1]) for line in dropped) == 3


class TestServiceBenchArtifacts:
    def test_write_artifacts_writes_only_the_bench_report(self, tmp_path):
        from repro.service.bench import write_artifacts

        report = {"delivered": 10}
        assert write_artifacts(report, tmp_path) == [tmp_path / "BENCH_service_live.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_service_live.json"]

    def test_artifact_is_canonical_json(self, tmp_path):
        from repro.service.bench import write_artifacts

        [path] = write_artifacts({"published": 3, "delivered": 9}, tmp_path / "out")
        assert path.read_text() == '{\n  "delivered": 9,\n  "published": 3\n}\n'

    def test_format_report_summarises_every_section(self):
        from repro.service.bench import format_report

        report = {
            "config": {"nodes": 3, "clients": 100, "topics": 2, "duration": 6.0, "rate": 60.0},
            "published": 350,
            "delivered": 1000,
            "received_by_clients": 990,
            "throughput_msgs_per_s_per_node": 55.55,
            "latency": {
                "phases": [
                    {"phase": "steady", "publishes": 120, "p50_ms": 1.234, "p99_ms": 9.87},
                    {"phase": "faulted", "publishes": 0, "p50_ms": None, "p99_ms": None},
                ]
            },
            "protection": {
                "breaker_trips": 2, "breakers_open": 0,
                "rate_limited": 1, "subscriber_sheds": 0,
            },
            "staleness": {"stale_deliveries": 0, "stale_handshakes": 1, "frames_stale": 4},
        }
        lines = format_report(report).splitlines()
        assert lines[0] == "service bench — 3 nodes, 100 clients, 2 topics, 6s @ 60 msg/s"
        assert "throughput 55.5 msg/s/node" in lines[2]
        assert "p50=1.2ms p99=9.9ms" in lines[3]
        assert "p50=- p99=-" in lines[4]
        assert "breaker trips=2" in lines[5]
        assert "stale handshakes=1 stale frames=4" in lines[6]
        assert len(lines) == 7  # no metrics section in the report, no metrics line

        report["metrics"] = {
            "families": ["a", "b"], "exposition_bytes": 10, "endpoint": "http://h:1/metrics",
        }
        assert format_report(report).splitlines()[-1] == (
            "  metrics: scraped 2 families (10 bytes) from http://h:1/metrics"
        )

    @pytest.mark.parametrize(
        "shape",
        [
            {"nodes": 1},
            {"clients": 1, "topics": 2},
            {"topics": 0},
            {"duration": 0.0},
            {"rate": -1.0},
        ],
        ids=["one-node", "fewer-clients-than-topics", "no-topics", "no-duration", "negative-rate"],
    )
    def test_invalid_shape_rejected_before_any_node_starts(self, shape):
        from repro.service.bench import run_service_bench

        with pytest.raises(ConfigurationError):
            run(run_service_bench(**shape), timeout=5.0)
