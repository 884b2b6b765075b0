"""Discrete-event simulation substrate (the PeerSim equivalent)."""

from .clock import SimClock
from .engine import Engine, EventHandle
from .latency import (
    ConstantLatency,
    CoordinateLatency,
    LatencyModel,
    UniformLatency,
    ZonedLatency,
    build_latency_model,
)
from .network import ByzantineBehavior, Network, NetworkStats
from .node import SimNode
from .transport import SimTransport

__all__ = [
    "ByzantineBehavior",
    "ConstantLatency",
    "CoordinateLatency",
    "Engine",
    "EventHandle",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "SimClock",
    "SimNode",
    "SimTransport",
    "UniformLatency",
    "ZonedLatency",
    "build_latency_model",
]
