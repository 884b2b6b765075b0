"""Bind the live service's stat sources to a :class:`MetricsRegistry`.

:func:`bind_pubsub_cluster` registers a collect-on-demand callback that
mirrors plain-int counters into typed instruments at scrape time.  The
sources keep their hot-path representation untouched — the registry
costs nothing until someone asks for a snapshot.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry

_TRANSPORT_COUNTERS = (
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


def bind_pubsub_cluster(registry: MetricsRegistry, service: Any) -> None:
    """Mirror every facade of a ``PubSubCluster``: service counters,
    breaker state, token-bucket denials and transport epoch/staleness.

    The facade list is read at collect time, so facades swapped in by a
    node restart are picked up without re-binding.
    """
    published = registry.counter("repro_service_published_total", "Messages published")
    delivered = registry.counter("repro_service_delivered_total", "Messages delivered to subscribers")
    dropped = registry.counter("repro_service_dropped_total", "Subscriber-queue overflow sheds")
    ignored = registry.counter("repro_service_ignored_total", "Deliveries without a topic envelope")
    client_limited = registry.counter(
        "repro_service_client_rate_limited_total", "Publishes refused by per-client buckets"
    )
    trips = registry.counter("repro_breaker_trips_total", "Circuit-breaker trips")
    rejected = registry.counter("repro_breaker_rejected_total", "Sends rejected by open breakers")
    open_breakers = registry.gauge("repro_breaker_open", "Peers currently behind an open breaker")
    frames = registry.counter(
        "repro_transport_frames_total", "Transport frames by outcome (staleness included)"
    )
    epoch = registry.gauge("repro_transport_epoch", "Current transport incarnation epoch")

    def collect() -> None:
        for facade in service.facades:
            node = str(facade.node.node_id)
            published.set_total(facade.messages_published, node=node)
            delivered.set_total(facade.messages_delivered, node=node)
            dropped.set_total(facade.messages_dropped, node=node)
            ignored.set_total(facade.messages_ignored, node=node)
            client_limited.set_total(
                sum(client.rate_limited for client in facade.clients.values()), node=node
            )
            trips.set_total(facade.guard.trips(), node=node)
            rejected.set_total(facade.guard.rejected, node=node)
            open_breakers.set(len(facade.guard.open_peers()), node=node)
            transport = facade.node.transport
            for counter_name in _TRANSPORT_COUNTERS:
                frames.set_total(
                    getattr(transport, counter_name), outcome=counter_name, node=node
                )
            epoch.set(transport.epoch, node=node)

    registry.register_collector(collect)
