"""Asyncio TCP runtime: the same protocol code over real sockets."""

from .clock import AsyncioClock, AsyncioTimerHandle
from .cluster import LocalCluster
from .delivery import DeliveryLog, DeliveryRecord
from .node import RUNTIME_CONFIG, RuntimeNode
from .transport import AsyncioTransport

__all__ = [
    "AsyncioClock",
    "AsyncioTimerHandle",
    "AsyncioTransport",
    "DeliveryLog",
    "DeliveryRecord",
    "LocalCluster",
    "RUNTIME_CONFIG",
    "RuntimeNode",
]
