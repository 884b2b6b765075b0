"""One live run of a fault plan: the pub/sub service under chaos.

The acceptance demo of the live stack (``repro chaos``): a loopback-TCP
cluster, ~100 multiplexed clients spread over a few topics, and a paced
publish stream across a :class:`~repro.faults.plan.FaultPlan` that a
:class:`~repro.faults.chaos.ChaosController` applies.  The plan's own
timeline names the phases — ``before`` its first event, ``during`` it
(up to its horizon) and ``after`` it (a fixed tail past the horizon) —
and each phase row holds

* the paper's reliability (§2.5: the share of the population alive at the
  end that delivered a message) as average / min / atomic fraction, by
  the function the simulator's fault scenarios use
  (:func:`~repro.faults.measure.phase_rows`);
* ``wrong``: deliveries whose payload is not the one that was published
  (a corrupted relay rewrote it);
* publish→deliver latency (p50/p99).

The report also carries every live counter, read from the facades and
transports where they are kept: the protection counts (circuit-breaker
trips and rejected sends, rate-limited publishes, subscriber-queue sheds,
deliveries without a topic) and the staleness audit — every transport
frame counter beside the stale-incarnation deliveries, of which **zero**
may reach clients (stale frames die in the transport).

Artifact: ``BENCH_service_live.json`` (``repro-service-live/3``, the full
report).  Wall-clock latency on shared CI runners is noisy; the artifact
is BENCH-grade in *shape*, not in its numbers.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import pathlib

from ..common.errors import RateLimitedError, ServiceError
from ..core.config import HyParViewConfig
from ..experiments.reporting import format_table
from ..faults.chaos import ChaosController
from ..faults.measure import phase_rows
from ..faults.plan import CrashEvent, FaultPlan, PartitionEvent, Phase, RestartEvent
from ..metrics.stats import mean, percentile
from ..runtime.cluster import LocalCluster
from .limits import BreakerConfig
from .pubsub import _DATA_KEY, _TOPIC_KEY, PubSubCluster, ServiceConfig

#: Live benchmark overlay tuning: small views, fast repair — the cluster
#: is a handful of nodes on loopback, not 10k on a WAN.
BENCH_CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    neighbor_request_timeout=1.0,
    promotion_retry_delay=0.1,
    promotion_max_passes=10,
)

BENCH_SCHEMA = "repro-service-live/3"

#: The client load: lightweight clients multiplexed over the nodes, spread
#: over a few topics, publishing round-robin at an aggregate rate
#: (messages per wall second).
CLIENTS = 100
TOPICS = 2
RATE = 60.0
#: Plan seconds the stream runs past the plan's horizon (the ``after``
#: phase), then wall seconds for in-flight deliveries to land.
TAIL = 2.0
SETTLE = 1.0

SERVICE_CONFIG = ServiceConfig(
    # Per-client budget: generous burst, sustained rate well above the
    # per-client share of the aggregate stream, so the limiter only fires
    # on misbehaving clients (counted, not expected).
    publish_rate=10.0,
    publish_burst=20.0,
    subscriber_queue=256,
    # Hair-trigger breaker: on loopback the overlay's own failure detector
    # removes a crashed peer after its *first* failed send, so a higher
    # threshold would never accumulate — one failure trips, the half-open
    # probe recloses after the restart.
    breaker=BreakerConfig(failure_threshold=1, recovery_timeout=0.5, half_open_successes=1),
)

#: The built-in plan: a steady window, then two fault flavours at once — a
#: crash of one node and a partition of the *survivors* (crash first, so
#: the split samples only live nodes and the cut crosses live traffic).
#: Sends across the cut fail *repeatedly*, which is what trips circuit
#: breakers (a clean crash is caught by the TCP watch before a second send
#: fails).  The partition heals with a rejoin; breakers reclose through
#: half-open probes.  Then the crashed node restarts on its SAME port, to
#: exercise the epoch handshake — after the heal, so its JOIN does not
#: meet the cut.
BUILTIN_PLAN = FaultPlan(
    events=(
        CrashEvent(at=1.0, count=1),
        PartitionEvent(at=1.0, weights=(0.5, 0.5), heal_at=2.5, rejoin=2),
        RestartEvent(at=3.0, count=1),
    ),
    label="crash-partition-restart",
)

#: Every counter a live transport keeps: frame outcomes (outbox sheds and
#: injected faults included), the epoch handshake audit and handler errors.
TRANSPORT_COUNTERS = (
    "frames_sent",
    "frames_received",
    "frames_stale",
    "frames_malformed",
    "stale_handshakes",
    "handshakes_refused",
    "frames_overflow",
    "frames_rejected",
    "frames_faulted",
    "handler_errors",
)


def latency_row(latencies: list[float]) -> dict:
    """A phase row's latency keys from publish→deliver samples in seconds:
    milliseconds, a negative sample (clock skew) clamped to 0, and
    ``None`` for an empty phase."""
    ms = [max(0.0, latency) * 1000.0 for latency in latencies]
    row = {"samples": len(ms), "mean_ms": mean(ms) if ms else None}
    for key, q in (("p50_ms", 50), ("p99_ms", 99), ("max_ms", 100)):
        row[key] = percentile(ms, q) if ms else None
    return row


def protection_counts(service: PubSubCluster) -> dict:
    """The service's protection counters summed over its facades.  The
    facade list is read at call time, so a facade swapped in by a node
    restart is the one counted."""
    facades = service.facades
    return {
        "rate_limited": sum(
            client.rate_limited for facade in facades for client in facade.clients.values()
        ),
        "breaker_trips": sum(facade.guard.trips() for facade in facades),
        "breaker_rejected": sum(facade.guard.rejected for facade in facades),
        "breakers_open": sum(len(facade.guard.open_peers()) for facade in facades),
        "subscriber_sheds": sum(facade.messages_dropped for facade in facades),
        "ignored": sum(facade.messages_ignored for facade in facades),
        "facades_reattached": service.reattached,
    }


def transport_counts(service: PubSubCluster) -> dict:
    """Each of :data:`TRANSPORT_COUNTERS` summed over the facades' nodes."""
    transports = [facade.node.transport for facade in service.facades]
    return {
        name: sum(getattr(transport, name) for transport in transports)
        for name in TRANSPORT_COUNTERS
    }


async def run_live_plan(
    plan: FaultPlan = BUILTIN_PLAN,
    *,
    nodes: int = 8,
    seed: int = 7,
    time_scale: float = 1.0,
) -> dict:
    """Run ``plan`` on a live pub/sub cluster under a paced publish stream;
    returns the ``repro-service-live/3`` report."""
    cluster = LocalCluster(nodes, config=BENCH_CONFIG, base_seed=seed)
    # Built before any socket opens: a refused plan raises with nothing to
    # stop.
    controller = ChaosController(cluster, plan, time_scale=time_scale, seed=seed)
    first = min((event.at for event in plan.events), default=plan.horizon)
    windows = (
        ("before", 0.0, first),
        ("during", first, plan.horizon),
        ("after", plan.horizon, plan.horizon + TAIL),
    )
    phases = tuple(Phase(name, start, end) for name, start, end in windows if end > start)
    loop = asyncio.get_running_loop()
    service = None
    tasks: list[asyncio.Task] = []
    received = 0

    async def drain(subscription) -> None:
        nonlocal received
        async for _message in subscription:
            received += 1

    try:
        await cluster.start()
        service = PubSubCluster(cluster, config=SERVICE_CONFIG)
        publishers = []  # (facade index, client name, topic)
        for index in range(CLIENTS):
            node_index, topic = index % nodes, f"topic-{index % TOPICS}"
            client = service.facade(node_index).client(f"client-{index}")
            tasks.append(asyncio.create_task(drain(client.subscribe(topic))))
            publishers.append((node_index, client.name, topic))

        # --- the paced stream across the plan timeline ------------------
        chaos = asyncio.create_task(controller.run())
        tasks.append(chaos)
        await asyncio.sleep(0)  # let the controller stamp its start time
        start = loop.time()
        # message id -> (publish plan time, publish wall time, envelope)
        sent = {}
        publish_errors = 0
        for tick in itertools.count():
            now = loop.time()
            if now - start >= phases[-1].end * time_scale:
                break
            node_index, client_name, topic = publishers[tick % len(publishers)]
            facade = service.facade(node_index)
            if facade.node.started:  # a crashed node's clients ride it out
                data = {"seq": len(sent), "client": client_name}
                try:
                    message_id = facade.client(client_name).publish(topic, data)
                except RateLimitedError:
                    pass  # the client counts it
                except ServiceError:
                    publish_errors += 1
                else:
                    envelope = {_TOPIC_KEY: topic, _DATA_KEY: data}
                    sent[message_id] = ((now - start) / time_scale, now, envelope)
            await asyncio.sleep(max(0.0, start + (tick + 1) / RATE - loop.time()))
        await chaos
        await asyncio.sleep(SETTLE)

        # --- per-phase reliability, wrong values and latency ------------
        population = {node.node_id for node in cluster.alive_nodes()}
        deliveries = {message_id: [] for message_id in sent}
        for record in cluster.delivery_log.records:
            if record.message_id in deliveries:
                deliveries[record.message_id].append(record)
        rows = phase_rows(
            phases,
            [plan_time for plan_time, _wall, _envelope in sent.values()],
            [
                len({record.node for record in records} & population) / len(population)
                for records in deliveries.values()
            ],
        )
        for phase, row in zip(phases, rows):
            latencies = []
            row["wrong"] = 0
            for message_id, (plan_time, wall, envelope) in sent.items():
                if phase.contains(plan_time):
                    for record in deliveries[message_id]:
                        latencies.append(record.at - wall)
                        row["wrong"] += record.payload != envelope
            row.update(latency_row(latencies))

        # --- stale-incarnation audit -----------------------------------
        # Every delivery record carries (node, incarnation); a predecessor
        # incarnation delivering *after* its successor started would be a
        # stale delivery.  With the epoch handshake this must be zero —
        # the stale frames die in the transport, visible in its counters.
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

        delivered = sum(len(records) for records in deliveries.values())
        return {
            "schema": BENCH_SCHEMA,
            "scenario": "service_live",
            "config": {
                "nodes": nodes,
                "clients": CLIENTS,
                "topics": TOPICS,
                "rate": RATE,
                "seed": seed,
                "time_scale": time_scale,
                "plan": plan.describe(),
            },
            "published": len(sent),
            "delivered": delivered,
            "received_by_clients": received,
            "throughput_msgs_per_s_per_node": (
                delivered / (phases[-1].end * time_scale) / nodes
            ),
            "phases": rows,
            # Read before detach / stop, while the facades are live.
            "protection": {"publish_errors": publish_errors, **protection_counts(service)},
            "staleness": {"stale_deliveries": stale_deliveries, **transport_counts(service)},
            "chaos_applied": [
                f"t={at:g} {description}" for at, description in controller.applied
            ],
        }
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if service is not None:
            service.detach()
        await cluster.stop()


def write_artifacts(report: dict, out_dir: pathlib.Path) -> list[pathlib.Path]:
    """Write ``BENCH_service_live.json``; returns the written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_path = out_dir / "BENCH_service_live.json"
    bench_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return [bench_path]


#: The phase table's columns, each a key of a phase row.
_COLUMNS = ("phase", "messages", "average", "min", "atomic", "wrong", "p50_ms", "p99_ms")


def format_report(report: dict) -> str:
    """Human-readable summary of one run: the phase table, then one line
    per section."""
    config = report["config"]
    protection = report["protection"]
    staleness = report["staleness"]
    table = [
        ["-" if row[key] is None else row[key] for key in _COLUMNS] for row in report["phases"]
    ]
    lines = [
        format_table(
            _COLUMNS,
            table,
            title=(
                f"repro chaos — {config['nodes']} loopback-TCP nodes, "
                f"{config['clients']} clients on {config['topics']} topics at "
                f"{config['rate']:g} msg/s, plan: {'; '.join(config['plan']) or 'empty'}"
            ),
        ),
        f"  published {report['published']}  delivered {report['delivered']}  "
        f"to clients {report['received_by_clients']}  "
        f"throughput {report['throughput_msgs_per_s_per_node']:.1f} msg/s/node",
        f"  breaker trips={protection['breaker_trips']} "
        f"open={protection['breakers_open']} "
        f"rate-limited={protection['rate_limited']} "
        f"sheds={protection['subscriber_sheds']}",
        f"  stale deliveries={staleness['stale_deliveries']} "
        f"stale handshakes={staleness['stale_handshakes']} "
        f"stale frames={staleness['frames_stale']}",
    ]
    lines += [f"  {applied}" for applied in report["chaos_applied"]]
    return "\n".join(lines)


__all__ = [
    "BENCH_CONFIG",
    "BENCH_SCHEMA",
    "BUILTIN_PLAN",
    "TAIL",
    "TRANSPORT_COUNTERS",
    "format_report",
    "latency_row",
    "protection_counts",
    "run_live_plan",
    "transport_counts",
    "write_artifacts",
]
