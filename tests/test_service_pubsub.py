"""Topic pub/sub over the live runtime: fan-out, budgets, restart re-attach.

Real loopback sockets, small clusters — same conventions as
``test_runtime.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import ConfigurationError, RateLimitedError, ServiceError
from repro.core.config import HyParViewConfig
from repro.faults.plan import CrashEvent, DegradeEvent, FaultPlan
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

        def row(phase, messages, average, wrong, p50):
            return {
                "phase": phase, "messages": messages, "average": average, "min": average,
                "atomic": average, "wrong": wrong, "p50_ms": p50, "p99_ms": p50,
            }

        report = {
            "config": {
                "nodes": 8, "clients": 100, "topics": 2, "rate": 60.0,
                "plan": ["crash 1@1", "restart 1@3"],
            },
            "published": 350,
            "delivered": 1000,
            "received_by_clients": 990,
            "throughput_msgs_per_s_per_node": 55.55,
            "phases": [row("before", 60, 1.0, 0, 1.234), row("during", 0, None, 0, None)],
            "protection": {
                "breaker_trips": 2, "breakers_open": 0,
                "rate_limited": 1, "subscriber_sheds": 0,
            },
            "staleness": {"stale_deliveries": 0, "stale_handshakes": 1, "frames_stale": 4},
            "metrics": {"families": ["a", "b"], "exposition_bytes": 10},
            "chaos_applied": ["t=1 crash 1@1 -> 1 crashed"],
        }
        lines = format_report(report).splitlines()
        assert lines[0] == (
            "repro chaos — 8 loopback-TCP nodes, 100 clients on 2 topics at 60 msg/s, "
            "plan: crash 1@1; restart 1@3"
        )
        assert lines[1].split() == [
            "phase", "messages", "average", "min", "atomic", "wrong", "p50_ms", "p99_ms",
        ]
        assert lines[3].split() == [
            "before", "60", "1.0000", "1.0000", "1.0000", "0", "1.2340", "1.2340",
        ]
        assert lines[4].split() == ["during", "0", "-", "-", "-", "0", "-", "-"]
        assert "throughput 55.5 msg/s/node" in lines[5]
        assert "breaker trips=2" in lines[6]
        assert "stale handshakes=1 stale frames=4" in lines[7]
        assert lines[8] == "  metrics: scraped 2 families (10 bytes)"
        assert lines[9:] == ["  t=1 crash 1@1 -> 1 crashed"]

    @pytest.mark.parametrize(
        "nodes, events",
        [
            (1, ()),
            (4, (DegradeEvent(at=0.0, until=1.0, duplicate_rate=0.2),)),
            (4, (CrashEvent(at=0.1, count=5),)),
        ],
        ids=["one-node", "duplicating-plan", "plan-larger-than-cluster"],
    )
    def test_invalid_shape_rejected_before_any_node_starts(self, monkeypatch, nodes, events):
        from repro.service.bench import run_live_plan

        async def no_start(*_args, **_kwargs):
            raise AssertionError("a node started")

        monkeypatch.setattr(LocalCluster, "start", no_start)
        with pytest.raises(ConfigurationError):
            run(run_live_plan(FaultPlan(events=events), nodes=nodes), timeout=5.0)


class TestLiveRun:
    """One live run of the built-in plan, end to end on loopback TCP."""

    def test_builtin_plan_reports_the_fault_and_the_heal(self):
        from repro.service.bench import BENCH_SCHEMA, run_live_plan

        report = run(run_live_plan(nodes=4, time_scale=0.5), timeout=30.0)
        assert report["schema"] == BENCH_SCHEMA
        rows = {row["phase"]: row for row in report["phases"]}
        assert list(rows) == ["before", "during", "after"]
        assert rows["before"]["average"] == 1.0
        # The partition cuts the survivors in two: the report shows it.
        assert rows["during"]["average"] < rows["before"]["average"]
        # Heal + rejoin + same-port restart stitch the overlay back.
        assert rows["after"]["average"] >= 0.95
        assert all(row["wrong"] == 0 for row in rows.values())
        assert sum(row["messages"] for row in rows.values()) == report["published"]
        assert report["staleness"]["stale_deliveries"] == 0
        assert "restart 1@3 -> 1 restarted" in " ".join(report["chaos_applied"])

    def test_empty_plan_has_one_after_row(self):
        from repro.service.bench import TAIL, run_live_plan

        report = run(run_live_plan(FaultPlan.empty(), nodes=3, time_scale=0.25), timeout=30.0)
        [row] = report["phases"]
        assert (row["phase"], row["start"], row["end"]) == ("after", 0.0, TAIL)
        assert row["average"] == 1.0
        assert report["chaos_applied"] == []
