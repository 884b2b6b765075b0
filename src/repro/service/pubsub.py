"""Topic-based pub/sub facade over the live overlay.

The overlay gives us a broadcast primitive (every message reaches every
node); topics and clients are *multiplexed on top* of it.  One
:class:`PubSubNode` per overlay process serves many lightweight
:class:`PubSubClient` handles — this is how the reproduction serves "many
users" without a socket per user: a client is a name, a token bucket and a
set of subscriptions, each a bounded buffer and one reader, nothing more.

The wire envelope is ``{"@topic": t, "@data": payload}`` carried as an
ordinary broadcast payload, so every protocol stack the registry can build
(flood, plumtree, reliable gossip) transports topics unchanged.

Protection, per the bulkhead/limits playbook:

* publishes spend a per-client :class:`~repro.service.limits.TokenBucket`
  token (over budget → :class:`~repro.common.errors.RateLimitedError`);
* every subscription buffer is bounded and sheds its *oldest* entry on
  overflow (a slow reader lags, it does not grow the process);
* a :class:`~repro.service.limits.PeerGuard` is installed on the node's
  transport, so sends to repeatedly-failing peers trip a circuit breaker
  and fail fast until half-open probes see the peer healthy again.

Deliveries reach the facade through the node's delivery callback; the
records themselves land in the shared
:class:`~repro.runtime.delivery.DeliveryLog` as for any broadcast, which is
what a live run's phase rows (:mod:`repro.service.bench`) read.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Optional

from ..common.errors import ConfigurationError, RateLimitedError, ServiceError
from ..common.ids import MessageId
from ..runtime.cluster import LocalCluster
from ..runtime.node import RuntimeNode
from .limits import BreakerConfig, PeerGuard, TokenBucket

_TOPIC_KEY = "@topic"
_DATA_KEY = "@data"


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Tuning for one :class:`PubSubNode`."""

    #: Per-client publish budget: sustained rate (tokens/second) ...
    publish_rate: float = 200.0
    #: ... and burst capacity.
    publish_burst: float = 50.0
    #: Bound of each subscription's delivery buffer (oldest shed first).
    subscriber_queue: int = 128
    #: Per-peer circuit-breaker tuning (see :class:`BreakerConfig`).
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.subscriber_queue < 1:
            raise ConfigurationError(
                f"subscriber queue must hold >= 1 message: {self.subscriber_queue}"
            )


@dataclass(frozen=True, slots=True)
class TopicMessage:
    """What a subscriber receives: the topic, the payload, provenance."""

    topic: str
    payload: Any
    message_id: MessageId


class Subscription:
    """One client's bounded buffer on one topic (full, it sheds its oldest
    entry), read by one task; ``_waiter`` exists only while that task waits."""

    __slots__ = ("topic", "client", "_node", "_buffer", "_waiter", "_closed", "dropped")

    def __init__(self, node: "PubSubNode", topic: str, client: str, maxsize: int) -> None:
        self.topic = topic
        self.client = client
        self._node = node
        self._buffer: deque = deque(maxlen=maxsize)
        self._waiter: Optional[asyncio.Future] = None
        self._closed = False
        #: Messages shed because this subscriber was too slow to drain.
        self.dropped = 0

    def qsize(self) -> int:
        return len(self._buffer)

    async def get(self, timeout: Optional[float] = None) -> Optional[TopicMessage]:
        """Next message; ``None`` on close or timeout.  One reader at a
        time: a second concurrent call raises :class:`ServiceError`."""
        if self._waiter is not None:
            raise ServiceError(f"subscription to {self.topic!r} already has a reader")
        buffer = self._buffer
        if not buffer and not self._closed:
            waiter = self._waiter = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(waiter, timeout)
            except asyncio.TimeoutError:
                pass
            finally:
                self._waiter = None
        return buffer.popleft() if buffer else None

    def close(self) -> None:
        """Stop deliveries; the reader gets what is buffered, then ``None``."""
        if self._closed:
            return
        self._closed = True
        self._node._drop_subscription(self)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def __aiter__(self) -> AsyncIterator[TopicMessage]:
        return self

    async def __anext__(self) -> TopicMessage:
        message = await self.get()
        if message is None:
            raise StopAsyncIteration
        return message


class PubSubClient:
    """A lightweight client handle: a name plus a publish budget.

    Hundreds of these multiplex over one :class:`PubSubNode`; creating one
    costs a dict entry and a token bucket.
    """

    __slots__ = ("name", "_node", "_bucket", "published", "rate_limited")

    def __init__(self, node: "PubSubNode", name: str, bucket: TokenBucket) -> None:
        self.name = name
        self._node = node
        self._bucket = bucket
        self.published = 0
        self.rate_limited = 0

    def publish(self, topic: str, payload: Any = None) -> MessageId:
        """Broadcast ``payload`` on ``topic``; raises
        :class:`RateLimitedError` when this client is over budget."""
        if not self._bucket.allow(self._node._now()):
            self.rate_limited += 1
            raise RateLimitedError(
                f"client {self.name!r} exceeded its publish rate "
                f"({self._bucket.rate}/s, burst {self._bucket.burst})"
            )
        message_id = self._node._publish(topic, payload)
        self.published += 1
        return message_id

    def subscribe(self, topic: str) -> Subscription:
        return self._node.subscribe(topic, client=self.name)


class PubSubNode:
    """The service facade over one started :class:`RuntimeNode`."""

    def __init__(
        self,
        node: RuntimeNode,
        *,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if not node.started:
            raise ConfigurationError("PubSubNode needs a started RuntimeNode")
        self.node = node
        self.config = config if config is not None else ServiceConfig()
        self.guard = PeerGuard(node.transport, config=self.config.breaker)
        self._subscriptions: dict[str, list[Subscription]] = {}
        self.clients: dict[str, PubSubClient] = {}
        self._attached = True
        self.messages_delivered = 0
        #: Subscriber-buffer overflow sheds across all subscriptions.
        self.messages_dropped = 0
        #: Deliveries that carried no topic envelope (plain broadcasts).
        self.messages_ignored = 0
        node.set_deliver_callback(self._on_deliver)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def client(self, name: str) -> PubSubClient:
        """Get or create the client handle named ``name``."""
        existing = self.clients.get(name)
        if existing is not None:
            return existing
        client = PubSubClient(
            self,
            name,
            TokenBucket(self.config.publish_rate, self.config.publish_burst),
        )
        self.clients[name] = client
        return client

    def subscribe(self, topic: str, *, client: str = "") -> Subscription:
        """A new bounded subscription to ``topic``."""
        self._require_attached()
        subscription = Subscription(self, topic, client, self.config.subscriber_queue)
        self._subscriptions.setdefault(topic, []).append(subscription)
        return subscription

    def publish(self, topic: str, payload: Any = None) -> MessageId:
        """Publish without a client budget (operator/bench traffic)."""
        self._require_attached()
        return self._publish(topic, payload)

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        if topic is not None:
            return len(self._subscriptions.get(topic, ()))
        return sum(len(subs) for subs in self._subscriptions.values())

    def detach(self) -> None:
        """Close every subscription and release the node's hooks."""
        if not self._attached:
            return
        self._attached = False
        for subscriptions in list(self._subscriptions.values()):
            for subscription in list(subscriptions):
                subscription.close()
        self._subscriptions.clear()
        self.guard.detach()
        self.node.set_deliver_callback(None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _publish(self, topic: str, payload: Any) -> MessageId:
        if not isinstance(topic, str) or not topic:
            raise ServiceError(f"topic must be a non-empty string: {topic!r}")
        if not self.node.started:
            raise ServiceError(f"overlay node {self.node.node_id} is not running")
        return self.node.broadcast({_TOPIC_KEY: topic, _DATA_KEY: payload})

    def _on_deliver(self, message_id: MessageId, payload: Any) -> None:
        if not isinstance(payload, dict) or _TOPIC_KEY not in payload:
            self.messages_ignored += 1
            return
        topic = payload[_TOPIC_KEY]
        subscriptions = self._subscriptions.get(topic)
        if not subscriptions:
            return
        message = TopicMessage(topic, payload.get(_DATA_KEY), message_id)
        # Waking a reader only schedules it: the list cannot change mid-loop.
        capacity = self.config.subscriber_queue
        shed = 0
        for subscription in subscriptions:
            buffer = subscription._buffer
            if len(buffer) == capacity:
                subscription.dropped += 1  # the append drops the oldest
                shed += 1
            buffer.append(message)
            waiter = subscription._waiter
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        self.messages_delivered += len(subscriptions)
        self.messages_dropped += shed

    def _drop_subscription(self, subscription: Subscription) -> None:
        subscriptions = self._subscriptions.get(subscription.topic)
        if subscriptions and subscription in subscriptions:
            subscriptions.remove(subscription)
            if not subscriptions:
                del self._subscriptions[subscription.topic]

    def _now(self) -> float:
        return self.node.transport._loop.time()

    def _require_attached(self) -> None:
        if not self._attached:
            raise ServiceError("facade is detached from its node")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<PubSubNode {self.node.node_id} clients={len(self.clients)} "
            f"subs={self.subscriber_count()}>"
        )


class PubSubCluster:
    """Per-node facades over a :class:`LocalCluster`, restart-aware.

    When the cluster restarts a node (chaos, operator action), the old
    facade's subscriptions die with the old process; a fresh facade is
    attached to the replacement automatically and shows up at the same
    index.  ``reattached`` counts these swaps.
    """

    def __init__(
        self,
        cluster: LocalCluster,
        *,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else ServiceConfig()
        self.facades = [PubSubNode(node, config=self.config) for node in cluster.nodes]
        self.reattached = 0
        cluster.restart_listeners.append(self._on_restart)

    def facade(self, index: int) -> PubSubNode:
        return self.facades[index]

    def subscribe(self, index: int, topic: str, *, client: str = "") -> Subscription:
        return self.facades[index].subscribe(topic, client=client)

    def publish(self, index: int, topic: str, payload: Any = None) -> MessageId:
        return self.facades[index].publish(topic, payload)

    def detach(self) -> None:
        if self._on_restart in self.cluster.restart_listeners:
            self.cluster.restart_listeners.remove(self._on_restart)
        for facade in self.facades:
            facade.detach()

    def _on_restart(self, index: int, node: RuntimeNode) -> None:
        self.facades[index].detach()
        self.facades[index] = PubSubNode(node, config=self.config)
        self.reattached += 1


__all__ = [
    "PubSubClient",
    "PubSubCluster",
    "PubSubNode",
    "ServiceConfig",
    "Subscription",
    "TopicMessage",
]
