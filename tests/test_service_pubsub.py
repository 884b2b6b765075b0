"""Topic pub/sub over the live runtime: fan-out, budgets, restart re-attach.

Real loopback sockets, small clusters — same conventions as
``test_runtime.py``.
"""

from __future__ import annotations

import asyncio
import json
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, RateLimitedError, ServiceError
from repro.core.config import HyParViewConfig
from repro.faults.plan import CrashEvent, DegradeEvent, FaultPlan
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RuntimeNode
from repro.service import PubSubCluster, PubSubNode, ServiceConfig
from repro.service.limits import BreakerConfig

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


def _latencies(*, min_value, min_size):
    """Publish→deliver samples in seconds; negative ones are clock skew."""
    return st.lists(
        st.floats(min_value=min_value, max_value=5.0, allow_nan=False),
        min_size=min_size,
        max_size=60,
    )


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
            assert facade.messages_dropped == subscription.dropped
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


class _FakeGuard:
    rejected = 2

    def trips(self):
        return 1

    def open_peers(self):
        return ["x"]


class _FakeTransport:
    frames_sent = 7
    frames_received = 6
    frames_stale = 0
    frames_malformed = 0
    stale_handshakes = 1
    handshakes_refused = 0
    frames_overflow = 0
    frames_rejected = 0
    frames_faulted = 0
    handler_errors = 0


class _FakeNode:
    transport = _FakeTransport()


class _FakeClient:
    rate_limited = 4


class _FakeFacade:
    """Just the counters :mod:`repro.service.bench` sums over a facade."""

    def __init__(self):
        self.node = _FakeNode()
        self.guard = _FakeGuard()
        self.clients = {"c1": _FakeClient(), "c2": _FakeClient()}
        self.messages_dropped = 1
        self.messages_ignored = 5


class _FakeService:
    def __init__(self):
        self.facades = []
        self.reattached = 0


class TestLiveCounters:
    def test_report_sums_service_and_transport_counters(self):
        from repro.service.bench import TRANSPORT_COUNTERS, protection_counts, transport_counts

        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster, config=ServiceConfig(subscriber_queue=2))
            subscription = service.subscribe(1, "t", client="c1")
            message_id = service.publish(0, "t", {"n": 1})
            await cluster.wait_for_delivery(message_id, 2)
            assert (await subscription.get(timeout=2.0)).payload == {"n": 1}
            # A subscriber that never reads: k = 5 messages at capacity 2.
            idle = service.subscribe(1, "firehose", client="idle")
            for n in range(5):
                await cluster.wait_for_delivery(service.publish(0, "firehose", n), 2)
            assert idle.dropped == 3
            counts = protection_counts(service), transport_counts(service)
            service.detach()
            await cluster.stop()
            return counts

        protection, transport = run(scenario())
        assert protection["subscriber_sheds"] == 3
        assert protection["rate_limited"] == protection["breaker_trips"] == 0
        # The six publishes from node 0 are among the frames sent.
        assert transport["frames_sent"] >= 6
        assert list(transport) == list(TRANSPORT_COUNTERS)
        assert len(TRANSPORT_COUNTERS) == 10

    def test_sums_read_the_facades_at_call_time(self):
        from repro.service.bench import protection_counts, transport_counts

        service = _FakeService()
        # No facades yet: every sum is zero.
        assert set(protection_counts(service).values()) == {0}
        assert set(transport_counts(service).values()) == {0}
        # A facade swapped in by a node restart is picked up.
        service.facades = [_FakeFacade()]
        service.reattached = 1
        assert protection_counts(service) == {
            "rate_limited": 8,
            "breaker_trips": 1,
            "breaker_rejected": 2,
            "breakers_open": 1,
            "subscriber_sheds": 1,
            "ignored": 5,
            "facades_reattached": 1,
        }
        transport = transport_counts(service)
        assert (transport["frames_sent"], transport["stale_handshakes"]) == (7, 1)

    def test_sums_add_every_facade(self):
        from repro.service.bench import TRANSPORT_COUNTERS, protection_counts, transport_counts

        service = _FakeService()
        service.facades = [_FakeFacade(), _FakeFacade()]
        service.facades[1].messages_ignored = 1
        protection = protection_counts(service)
        assert (protection["rate_limited"], protection["breaker_rejected"]) == (16, 4)
        assert (protection["ignored"], protection["facades_reattached"]) == (6, 0)
        transport = transport_counts(service)
        assert transport == {
            name: 2 * getattr(_FakeTransport, name) for name in TRANSPORT_COUNTERS
        }

    def test_transport_counters_are_live_transport_attributes(self):
        from repro.service.bench import TRANSPORT_COUNTERS

        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            counts = {name: getattr(node.transport, name) for name in TRANSPORT_COUNTERS}
            await node.stop()
            return counts

        counts = run(scenario())
        assert all(type(count) is int for count in counts.values()), counts

    def test_report_counts_rate_limited_publishes_on_every_node(self):
        from repro.service.bench import protection_counts

        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(
                cluster, config=ServiceConfig(publish_rate=0.1, publish_burst=1.0)
            )
            for index in range(2):
                client = service.facade(index).client(f"c{index}")
                client.publish("t")
                for _ in range(index + 1):
                    with pytest.raises(RateLimitedError):
                        client.publish("t")
            counts = protection_counts(service)
            service.detach()
            await cluster.stop()
            return counts

        assert run(scenario())["rate_limited"] == 3

    def test_report_counts_plain_broadcasts_as_ignored(self):
        from repro.service.bench import protection_counts

        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            message_id = cluster.nodes[0].broadcast("raw payload")
            await cluster.wait_for_delivery(message_id, 2)
            counts = protection_counts(service)
            service.detach()
            await cluster.stop()
            return counts

        # Each node delivers the plain broadcast once, the origin included.
        assert run(scenario())["ignored"] == 2

    def test_report_counts_breaker_trips_and_rejections(self):
        from repro.service.bench import protection_counts

        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(
                cluster,
                config=ServiceConfig(
                    breaker=BreakerConfig(failure_threshold=1, recovery_timeout=60.0)
                ),
            )
            transport = cluster.nodes[0].transport
            peer = cluster.nodes[1].node_id
            transport.send_observer(peer, False)  # one failed send trips it
            assert not transport.send_guard(peer)
            counts = protection_counts(service)
            service.detach()
            await cluster.stop()
            return counts

        counts = run(scenario())
        assert (counts["breaker_trips"], counts["breakers_open"]) == (1, 1)
        assert counts["breaker_rejected"] >= 1

    def test_restarted_node_is_counted_through_its_fresh_facade(self):
        from repro.service.bench import protection_counts

        async def scenario():
            cluster = LocalCluster(2, config=CONFIG)
            await cluster.start()
            service = PubSubCluster(cluster)
            message_id = cluster.nodes[0].broadcast("raw payload")
            await cluster.wait_for_delivery(message_id, 2)
            before = protection_counts(service)
            await cluster.nodes[1].crash()
            await cluster.restart_node(1, reuse_port=True)
            after = protection_counts(service)
            service.detach()
            await cluster.stop()
            return before, after

        before, after = run(scenario())
        assert (before["ignored"], before["facades_reattached"]) == (2, 0)
        # The crashed facade's count went with it; the fresh one starts at 0.
        assert (after["ignored"], after["facades_reattached"]) == (1, 1)


class TestLatencyRow:
    """Phase latency through the one percentile helper: milliseconds,
    linear interpolation, skew clamped to 0."""

    def test_negative_sample_clamps_to_zero(self):
        from repro.service.bench import latency_row

        assert latency_row([-0.5]) == {
            "samples": 1, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }

    def test_single_sample_is_every_quantile(self):
        from repro.service.bench import latency_row

        row = latency_row([0.25])
        assert row["mean_ms"] == row["p50_ms"] == row["p99_ms"] == row["max_ms"] == 250.0

    def test_reports_milliseconds(self):
        from repro.service.bench import latency_row

        row = latency_row([i / 100.0 for i in range(1, 101)])
        assert row["samples"] == 100
        assert row["mean_ms"] == pytest.approx(505.0)
        assert row["p50_ms"] == pytest.approx(505.0)  # halfway between 500 and 510
        assert row["p99_ms"] == pytest.approx(990.1)
        assert row["max_ms"] == pytest.approx(1000.0)

    def test_one_outlier_moves_the_max_not_the_median(self):
        from repro.service.bench import latency_row

        row = latency_row([0.01] * 99 + [5.0])
        assert row["p50_ms"] == pytest.approx(10.0)
        assert row["p99_ms"] == pytest.approx(10.0 + 0.01 * 4990.0)
        assert row["max_ms"] == pytest.approx(5000.0)

    @given(_latencies(min_value=0.0, min_size=2))
    def test_quantiles_match_inclusive_linear_interpolation(self, latencies):
        from repro.service.bench import latency_row

        ms = [latency * 1000.0 for latency in latencies]
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        row = latency_row(latencies)
        assert row["p50_ms"] == pytest.approx(cuts[49], abs=1e-6)
        assert row["p99_ms"] == pytest.approx(cuts[98], abs=1e-6)
        assert row["max_ms"] == max(ms)

    @given(_latencies(min_value=-1.0, min_size=0))
    def test_quantiles_are_ordered(self, latencies):
        from repro.service.bench import latency_row

        row = latency_row(latencies)
        assert row["samples"] == len(latencies)
        if latencies:
            ulp = 1e-9  # the interpolation rounds
            assert 0.0 <= row["p50_ms"] <= row["p99_ms"] + ulp
            assert row["p99_ms"] <= row["max_ms"] + ulp
            assert row["mean_ms"] <= row["max_ms"] + ulp

    @given(_latencies(min_value=-1.0, min_size=0))
    def test_skew_reads_as_a_zero_sample(self, latencies):
        from repro.service.bench import latency_row

        clamped = [max(0.0, latency) for latency in latencies]
        assert latency_row(latencies) == latency_row(clamped)


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

    def test_latency_row_clamps_skew_and_reads_none_when_empty(self):
        from repro.service.bench import latency_row

        assert latency_row([]) == {
            "samples": 0, "mean_ms": None, "p50_ms": None, "p99_ms": None, "max_ms": None,
        }
        row = latency_row([0.003, -0.001, 0.002, 0.001])
        assert row["samples"] == 4
        assert row["mean_ms"] == pytest.approx(1.5)  # the -1 ms sample reads 0
        assert row["p50_ms"] == pytest.approx(1.5)  # linear interpolation
        assert row["p99_ms"] == pytest.approx(2.97)
        assert row["max_ms"] == pytest.approx(3.0)

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
        assert lines[8:] == ["  t=1 crash 1@1 -> 1 crashed"]

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


@pytest.fixture(scope="module")
def empty_plan_report():
    """One short live run without faults, shared by the report-shape tests."""
    from repro.service.bench import run_live_plan

    return run(run_live_plan(FaultPlan.empty(), nodes=3, time_scale=0.25), timeout=30.0)


class TestLiveRun:
    """One live run of the built-in plan, end to end on loopback TCP."""

    def test_builtin_plan_reports_the_fault_and_the_heal(self):
        from repro.service.bench import BENCH_SCHEMA, run_live_plan

        report = run(run_live_plan(nodes=4, time_scale=0.5), timeout=30.0)
        assert report["schema"] == BENCH_SCHEMA == "repro-service-live/3"
        assert "metrics" not in report
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

    def test_report_carries_every_protection_and_transport_counter(self, empty_plan_report):
        from repro.service.bench import TRANSPORT_COUNTERS

        protection = empty_plan_report["protection"]
        staleness = empty_plan_report["staleness"]
        assert sorted(protection) == sorted([
            "publish_errors", "rate_limited", "breaker_trips", "breaker_rejected",
            "breakers_open", "subscriber_sheds", "ignored", "facades_reattached",
        ])
        assert sorted(staleness) == sorted(["stale_deliveries", *TRANSPORT_COUNTERS])
        assert all(type(count) is int for count in [*protection.values(), *staleness.values()])
        assert staleness["frames_sent"] >= empty_plan_report["published"] > 0

    def test_report_round_trips_through_its_artifact(self, empty_plan_report, tmp_path):
        from repro.service.bench import write_artifacts

        [path] = write_artifacts(empty_plan_report, tmp_path)
        assert json.loads(path.read_text()) == empty_plan_report

    def test_format_report_reads_a_live_report(self, empty_plan_report):
        from repro.service.bench import format_report

        lines = format_report(empty_plan_report).splitlines()
        assert lines[0].endswith("plan: empty")
        assert lines[3].split()[0] == "after"
        assert lines[4].startswith(f"  published {empty_plan_report['published']} ")
        assert len(lines) == 7  # no chaos was applied
