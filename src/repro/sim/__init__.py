"""Discrete-event simulation substrate (the PeerSim equivalent)."""

from .clock import SimClock
from .engine import Engine, EventHandle
from .latency import ConstantLatency, LatencyModel, ZonedLatency, build_latency_model
from .network import ByzantineBehavior, Network, NetworkStats
from .node import SimNode
from .transport import SimTransport

__all__ = [
    "ByzantineBehavior",
    "ConstantLatency",
    "Engine",
    "EventHandle",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "SimClock",
    "SimNode",
    "SimTransport",
    "ZonedLatency",
    "build_latency_model",
]
