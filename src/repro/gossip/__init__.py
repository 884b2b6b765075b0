"""Broadcast layers: eager gossip, HyParView flood, ack+retransmit
reliable gossip, Plumtree, tracking."""

from .base import BroadcastLayer
from .eager import EagerGossip
from .flood import FloodBroadcast
from .messages import (
    GossipAck,
    GossipData,
    PlumtreeGossip,
    PlumtreeGraft,
    PlumtreeIHave,
    PlumtreePrune,
)
from .plumtree import Plumtree
from .reliable import ReliableGossip
from .tracker import BroadcastSummary, BroadcastTracker, DeliveryRecord

__all__ = [
    "BroadcastLayer",
    "BroadcastSummary",
    "BroadcastTracker",
    "DeliveryRecord",
    "EagerGossip",
    "FloodBroadcast",
    "GossipAck",
    "GossipData",
    "Plumtree",
    "PlumtreeGossip",
    "PlumtreeGraft",
    "PlumtreeIHave",
    "PlumtreePrune",
    "ReliableGossip",
]
