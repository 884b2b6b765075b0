"""Sustained-throughput benchmark for the live pub/sub service.

The acceptance demo of the service layer, runnable locally and nightly in
CI: a small loopback-TCP cluster, ≥100 multiplexed clients spread over a
few topics, a sustained publish stream, and (by default) a mid-run
crash + same-port restart of one node.  The run reports

* per-phase publish→deliver latency (p50/p99) from the
  :class:`~repro.faults.chaos.ChaosController` latency report —
  ``steady`` / ``faulted`` / ``recovered`` windows;
* sustained throughput in delivered messages per second per node;
* the protection counters: circuit-breaker trips and reopens, rate-limited
  publishes, subscriber-queue sheds, outbox overflows;
* the epoch-handshake counters — ``stale_handshakes``/``frames_stale``
  must stay at the transport level, with **zero** stale-incarnation
  deliveries reaching clients.

Artifact: ``BENCH_service_live.json`` (``repro-service-live/1``, the full
report).  Wall-clock latency on shared CI runners is noisy; the artifact
is BENCH-grade in *shape*, not in its numbers.
"""

from __future__ import annotations

import asyncio
import json
import pathlib

from ..common.errors import ConfigurationError, RateLimitedError, ServiceError
from ..core.config import HyParViewConfig
from ..faults.chaos import ChaosController
from ..faults.plan import CrashEvent, FaultPlan, PartitionEvent, Phase, RestartEvent
from ..runtime.cluster import LocalCluster
from .limits import BreakerConfig
from .pubsub import PubSubCluster, ServiceConfig

#: Live benchmark overlay tuning: small views, fast repair — the cluster
#: is 3 nodes on loopback, not 10k on a WAN.
BENCH_CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    neighbor_request_timeout=1.0,
    promotion_retry_delay=0.1,
    promotion_max_passes=10,
)

BENCH_SCHEMA = "repro-service-live/1"


async def run_service_bench(
    *,
    nodes: int = 3,
    clients: int = 100,
    topics: int = 2,
    duration: float = 6.0,
    rate: float = 60.0,
    seed: int = 7,
    chaos: bool = True,
    metrics_port: int = 0,
) -> dict:
    """Run the benchmark; returns the ``repro-service-live/1`` report."""
    if nodes < 2:
        raise ConfigurationError(f"service bench needs >= 2 nodes: {nodes}")
    if clients < topics or topics < 1:
        raise ConfigurationError(
            f"need at least one client per topic: {clients} clients, {topics} topics"
        )
    if duration <= 0 or rate <= 0:
        raise ConfigurationError(
            f"duration and rate must be positive: {duration}, {rate}"
        )

    cluster = LocalCluster(nodes, config=BENCH_CONFIG, base_seed=seed)
    await cluster.start()
    service = PubSubCluster(
        cluster,
        config=ServiceConfig(
            # Per-client budget: generous burst, sustained rate well above
            # the per-client share of the aggregate stream, so the limiter
            # only fires on misbehaving clients (counted, not expected).
            publish_rate=max(10.0, 4.0 * rate / clients),
            publish_burst=20.0,
            subscriber_queue=256,
            # Hair-trigger breaker: on loopback the overlay's own failure
            # detector removes a crashed peer after its *first* failed
            # send, so a higher threshold would never accumulate — one
            # failure trips, the half-open probe recloses after restart.
            breaker=BreakerConfig(
                failure_threshold=1,
                recovery_timeout=0.5,
                half_open_successes=1,
            ),
        ),
    )

    # --- the fault timeline and its measurement phases ------------------
    crash_at = duration / 3.0
    restart_at = 2.0 * duration / 3.0
    if chaos:
        # Two fault flavours in one window: a crash of one node, restarted
        # later on the SAME port to exercise the epoch handshake, plus a
        # partition of the *survivors* (crash first, so the split samples
        # only live nodes and the cut is guaranteed to cross live traffic).
        # The partition is what trips circuit breakers — sends across the
        # cut fail *repeatedly*, whereas a clean crash is caught by the
        # TCP watch before a second send can fail.  The partition heals as
        # the node returns; breakers reclose through half-open probes.
        plan = FaultPlan(
            events=(
                CrashEvent(at=crash_at, count=1),
                PartitionEvent(
                    at=crash_at, weights=(0.5, 0.5), heal_at=restart_at, rejoin=2
                ),
                RestartEvent(at=restart_at, count=1),
            ),
            label="service-bench",
        )
        phases = (
            Phase("steady", 0.0, crash_at),
            Phase("faulted", crash_at, restart_at),
            Phase("recovered", restart_at, duration + 1.0),
        )
    else:
        plan = FaultPlan.empty()
        phases = (Phase("steady", 0.0, duration + 1.0),)
    controller = ChaosController(
        cluster, plan, seed=seed, phases=phases, restart_reuse_port=True
    )

    # --- many lightweight clients, multiplexed over few nodes -----------
    topic_names = [f"topic-{index}" for index in range(topics)]
    subscriptions = []
    publishers = []  # (facade index, client name, topic)
    for index in range(clients):
        node_index = index % nodes
        topic = topic_names[index % topics]
        client = service.facade(node_index).client(f"client-{index}")
        subscriptions.append(client.subscribe(topic))
        publishers.append((node_index, client.name, topic))

    received = 0

    async def drain(subscription) -> None:
        nonlocal received
        async for _message in subscription:
            received += 1

    drains = [asyncio.create_task(drain(subscription)) for subscription in subscriptions]

    # --- sustained publish load over the fault timeline -----------------
    loop = asyncio.get_running_loop()
    chaos_task = asyncio.create_task(controller.run())
    await asyncio.sleep(0)  # let the controller stamp its start time
    start = loop.time()
    interval = 1.0 / rate
    published = 0
    rate_limited = 0
    publish_errors = 0
    tick = 0
    while True:
        now = loop.time() - start
        if now >= duration:
            break
        node_index, client_name, topic = publishers[tick % len(publishers)]
        tick += 1
        facade = service.facade(node_index)
        if not facade.node.started:
            continue  # this node is mid-crash; its clients ride it out
        try:
            message_id = facade.client(client_name).publish(
                topic, {"seq": published, "client": client_name}
            )
        except RateLimitedError:
            rate_limited += 1
        except ServiceError:
            publish_errors += 1
        else:
            published += 1
            controller.mark_publish(message_id)
        await asyncio.sleep(max(0.0, start + tick * interval - loop.time()))
    await chaos_task
    await asyncio.sleep(1.0)  # let in-flight deliveries land

    latency = controller.latency_report()

    # --- stale-incarnation audit ---------------------------------------
    # Every delivery record carries (node, incarnation); a predecessor
    # incarnation delivering *after* its successor started would be a
    # stale delivery.  With the epoch handshake this must be zero — the
    # stale frames die in the transport, visible in its counters instead.
    successors = {
        node.node_id: (node.incarnation, node.started_at)
        for node in cluster.nodes
        if node.node_id is not None and node.incarnation > 0
    }
    stale_deliveries = 0
    for record in cluster.delivery_log.records:
        successor = successors.get(record.node)
        if successor is None:
            continue
        incarnation, started_at = successor
        if record.incarnation < incarnation and record.at > started_at:
            stale_deliveries += 1
    transport_counters = {
        "frames_stale": 0,
        "stale_handshakes": 0,
        "frames_overflow": 0,
        "frames_rejected": 0,
    }
    for node in cluster.nodes:
        if node.transport is None:
            continue
        for key in transport_counters:
            transport_counters[key] += getattr(node.transport, key)

    delivered = latency["samples"]
    report = {
        "schema": BENCH_SCHEMA,
        "scenario": "service_live",
        "config": {
            "nodes": nodes,
            "clients": clients,
            "topics": topics,
            "duration": duration,
            "rate": rate,
            "seed": seed,
            "chaos": chaos,
        },
        "published": published,
        "delivered": delivered,
        "received_by_clients": received,
        "throughput_msgs_per_s_per_node": delivered / duration / nodes,
        "latency": latency,
        "protection": {
            "rate_limited": rate_limited,
            "publish_errors": publish_errors,
            "breaker_trips": service.total_breaker_trips(),
            "breakers_open": sum(
                len(facade.guard.open_peers()) for facade in service.facades
            ),
            "subscriber_sheds": service.total_dropped(),
            "facades_reattached": service.reattached,
        },
        "staleness": {
            "stale_deliveries": stale_deliveries,
            **transport_counters,
        },
        "chaos_applied": [
            f"t={at:g} {description}" for at, description in controller.applied
        ],
    }

    # --- unified metrics plane: serve one scrape of the run -------------
    # The registry's collectors read the live facades/transports, so the
    # scrape happens before detach/stop.  The exposition covers breaker
    # state, epoch/staleness audits and topic rate-limit counters — the
    # same families an external Prometheus would collect from a long-lived
    # deployment.
    from ..obs.http import MetricsServer, scrape

    registry = service.metrics_registry()
    metrics_server = await MetricsServer(registry, port=metrics_port).start()
    try:
        exposition = await scrape(metrics_server.host, metrics_server.port)
        endpoint = f"http://{metrics_server.host}:{metrics_server.port}/metrics"
    finally:
        await metrics_server.close()
    families = sorted(
        {
            line.split("{", 1)[0].split(" ", 1)[0]
            for line in exposition.splitlines()
            if line and not line.startswith("#")
        }
    )
    report["metrics"] = {
        "endpoint": endpoint,
        "exposition_bytes": len(exposition),
        "families": families,
        "snapshot": registry.snapshot(),
    }

    for task in drains:
        task.cancel()
    await asyncio.gather(*drains, return_exceptions=True)
    service.detach()
    await cluster.stop()
    return report


def write_artifacts(report: dict, out_dir: pathlib.Path) -> list[pathlib.Path]:
    """Write ``BENCH_service_live.json``; returns the written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_path = out_dir / "BENCH_service_live.json"
    bench_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return [bench_path]


def format_report(report: dict) -> str:
    """Human-readable summary of one benchmark run."""
    lines = [
        f"service bench — {report['config']['nodes']} nodes, "
        f"{report['config']['clients']} clients, "
        f"{report['config']['topics']} topics, "
        f"{report['config']['duration']:g}s @ {report['config']['rate']:g} msg/s",
        f"  published {report['published']}  delivered {report['delivered']}  "
        f"to clients {report['received_by_clients']}",
        f"  throughput {report['throughput_msgs_per_s_per_node']:.1f} msg/s/node",
    ]
    for row in report["latency"]["phases"]:
        p50 = row["p50_ms"]
        p99 = row["p99_ms"]
        lines.append(
            f"  phase {row['phase']:<10} publishes={row['publishes']:<5} "
            f"p50={'-' if p50 is None else f'{p50:.1f}ms'} "
            f"p99={'-' if p99 is None else f'{p99:.1f}ms'}"
        )
    protection = report["protection"]
    staleness = report["staleness"]
    lines.append(
        f"  breaker trips={protection['breaker_trips']} "
        f"open={protection['breakers_open']} "
        f"rate-limited={protection['rate_limited']} "
        f"sheds={protection['subscriber_sheds']}"
    )
    lines.append(
        f"  stale deliveries={staleness['stale_deliveries']} "
        f"stale handshakes={staleness['stale_handshakes']} "
        f"stale frames={staleness['frames_stale']}"
    )
    metrics = report.get("metrics")
    if metrics:
        lines.append(
            f"  metrics: scraped {len(metrics['families'])} families "
            f"({metrics['exposition_bytes']} bytes) from {metrics['endpoint']}"
        )
    return "\n".join(lines)


__all__ = ["BENCH_CONFIG", "BENCH_SCHEMA", "format_report", "run_service_bench", "write_artifacts"]
