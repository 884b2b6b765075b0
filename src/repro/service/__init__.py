"""Client-facing service layer: topic pub/sub over the live overlay.

See :mod:`repro.service.pubsub` for the facade and
:mod:`repro.service.limits` for the protection primitives (token buckets,
circuit breakers, the per-peer guard).
"""

from .limits import BreakerConfig, CircuitBreaker, PeerGuard, TokenBucket
from .pubsub import (
    PubSubClient,
    PubSubCluster,
    PubSubNode,
    ServiceConfig,
    Subscription,
    TopicMessage,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "PeerGuard",
    "PubSubClient",
    "PubSubCluster",
    "PubSubNode",
    "ServiceConfig",
    "Subscription",
    "TopicMessage",
    "TokenBucket",
]
