"""Tests for the unified metrics plane (repro.obs.metrics / collectors / http).

Instruments must render deterministically (sorted names, sorted label
sets) for the snapshot the ``repro chaos`` report embeds; the collectors
must mirror the codebase's scattered plain-int counters without touching
them; the exposition endpoint must serve valid Prometheus text format over
a bare socket.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.collectors import bind_pubsub_cluster
from repro.obs.http import CONTENT_TYPE, MetricsServer, scrape
from repro.obs.metrics import Counter, Gauge, MetricsRegistry


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


class TestInstruments:
    def test_counter_mirrors_totals_per_label_set(self):
        counter = Counter("c_total")
        counter.set_total(1)
        counter.set_total(2, node="a")
        assert counter.value() == 1
        assert counter.value(node="a") == 2
        counter.set_total(9, node="a")
        assert counter.value(node="a") == 9

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5, node="a")
        gauge.set(3, node="a")
        assert gauge.value(node="a") == 3
        assert gauge.value(node="b") == 0


class TestRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_conflicts_are_errors(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TypeError, match="already registered as counter"):
            registry.gauge("x_total")
        registry.gauge("depth")
        with pytest.raises(TypeError, match="already registered as gauge"):
            registry.counter("depth")

    def test_snapshot_is_sorted_and_insertion_order_free(self):
        def build(order):
            registry = MetricsRegistry()
            for name, labels in order:
                registry.counter(name).set_total(1, **labels)
            return registry.snapshot()

        series = [("b_total", {"node": "n2"}), ("a_total", {}), ("b_total", {"node": "n1"})]
        snapshot = build(series)
        assert snapshot == build(list(reversed(series)))
        assert list(snapshot) == ["a_total", "b_total"]
        assert list(snapshot["b_total"]) == ['b_total{node="n1"}', 'b_total{node="n2"}']

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests served").set_total(3, path='/a"b\n')
        registry.gauge("depth").set(1.5)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests served\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{path="/a\\"b\\n"} 3\n' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("live")
        state = {"value": 1}
        registry.register_collector(lambda: gauge.set(state["value"]))
        assert registry.snapshot()["live"] == {"live": 1}
        state["value"] = 7
        assert registry.snapshot()["live"] == {"live": 7}


class TestCollectors:
    def test_bind_pubsub_cluster_reads_facades_at_collect_time(self):
        class Guard:
            rejected = 2

            def trips(self):
                return 1

            def open_peers(self):
                return ["x"]

        class Transport:
            frames_sent = 7
            frames_received = 6
            frames_stale = 0
            frames_malformed = 0
            stale_handshakes = 0
            handshakes_refused = 0
            frames_overflow = 0
            frames_rejected = 0
            frames_faulted = 0
            handler_errors = 0
            epoch = 1

        class Inner:
            node_id = "127.0.0.1:9001"
            transport = Transport()

        class Client:
            rate_limited = 4

        class Facade:
            node = Inner()
            guard = Guard()
            clients = {"c1": Client(), "c2": Client()}
            messages_published = 20
            messages_delivered = 18
            messages_dropped = 1
            messages_ignored = 0

        class Service:
            facades = []

        service = Service()
        registry = MetricsRegistry()
        bind_pubsub_cluster(registry, service)
        # No facades yet: the binding itself publishes nothing.
        assert registry.snapshot()["repro_service_published_total"] == {}
        # Facades appearing later (e.g. after a node restart) are picked up.
        service.facades = [Facade()]
        snapshot = registry.snapshot()
        label = '{node="127.0.0.1:9001"}'
        assert snapshot["repro_service_published_total"][f"repro_service_published_total{label}"] == 20
        assert (
            snapshot["repro_service_client_rate_limited_total"][
                f"repro_service_client_rate_limited_total{label}"
            ]
            == 8
        )
        assert snapshot["repro_breaker_trips_total"][f"repro_breaker_trips_total{label}"] == 1
        assert snapshot["repro_breaker_open"][f"repro_breaker_open{label}"] == 1
        assert (
            snapshot["repro_transport_frames_total"][
                'repro_transport_frames_total{node="127.0.0.1:9001",outcome="frames_sent"}'
            ]
            == 7
        )


class TestMetricsServer:
    def test_serves_and_scrapes_exposition(self):
        async def exercise():
            registry = MetricsRegistry()
            registry.counter("up_total", "Liveness").set_total(1)
            server = await MetricsServer(registry).start()
            try:
                body = await scrape("127.0.0.1", server.port)
                root = await scrape("127.0.0.1", server.port, path="/")
            finally:
                await server.close()
            return body, root

        body, root = run(exercise())
        assert "# TYPE up_total counter" in body
        assert "up_total 1" in body
        assert body == root

    def test_unknown_path_is_http_404(self):
        async def exercise():
            server = await MetricsServer(MetricsRegistry()).start()
            try:
                with pytest.raises(RuntimeError, match="HTTP 404"):
                    await scrape("127.0.0.1", server.port, path="/nope")
            finally:
                await server.close()

        run(exercise())

    def test_port_requires_running_server(self):
        with pytest.raises(RuntimeError):
            MetricsServer(MetricsRegistry()).port

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")
