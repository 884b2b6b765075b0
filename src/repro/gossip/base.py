"""Shared machinery of the broadcast layers.

A broadcast layer sits on top of a peer-sampling service and implements the
gossip rule of the paper's evaluation: *deliver on first reception, then
forward* (there is no a-priori bound on gossip rounds — Section 5).  The
subclasses differ only in target selection and transport discipline:

* :class:`~repro.gossip.eager.EagerGossip` — ``fanout`` random view members,
  unreliable transport (plain Cyclon/Scamp style), optionally acknowledged
  (CyclonAcked);
* :class:`~repro.gossip.flood.FloodBroadcast` — the whole HyParView active
  view, reliable transport doubling as the failure detector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

from ..common.ids import MessageId, NodeId, SequenceGenerator
from ..common.interfaces import Host
from ..common.messages import Message
from ..protocols.base import PeerSamplingService
from .messages import GossipData
from .tracker import BroadcastTracker

#: Application callback for delivered broadcasts.
DeliverCallback = Callable[[MessageId, Any], None]


class BroadcastLayer(ABC):
    """Deliver-once-then-forward gossip base class."""

    name = "broadcast"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        self._host = host
        #: This node's identity — read on every reception, so held directly.
        self.address: NodeId = host.address
        self._membership = membership
        self._tracker = tracker
        self._on_deliver = on_deliver
        # Sequence ranges are incarnation-scoped: a restarted process
        # must never collide with ids its predecessor minted.
        self._sequence = SequenceGenerator(host.address, start=host.incarnation << 32)
        self._seen: set[MessageId] = set()
        self.delivered_count = 0
        self.duplicate_count = 0

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def membership(self) -> PeerSamplingService:
        return self._membership

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        return {GossipData: self.handle_gossip}

    def broadcast(self, payload: Any = None) -> MessageId:
        """Broadcast ``payload``; returns the minted message id."""
        message_id = self._sequence.next_id()
        if self._tracker is not None:
            self._tracker.on_broadcast(message_id, self.address, self._host.now())
        self._seen.add(message_id)
        self._deliver(message_id, payload, hops=0)
        self._forward(message_id, payload, hops=1, exclude=())
        return message_id

    def handle_gossip(self, message: GossipData) -> None:
        message_id = message.message_id
        if message_id in self._seen:
            self.duplicate_count += 1
            if self._tracker is not None:
                self._tracker.on_redundant(message_id, self.address)
            return
        self._seen.add(message_id)
        self._deliver(message_id, message.payload, message.hops)
        self._forward(message_id, message.payload, message.hops + 1, exclude=(message.sender,))

    def has_delivered(self, message_id: MessageId) -> bool:
        return message_id in self._seen

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _forward(
        self,
        message_id: MessageId,
        payload: Any,
        hops: int,
        exclude: tuple[NodeId, ...],
    ) -> None:
        """Send the payload onwards according to the layer's discipline."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(self, message_id: MessageId, payload: Any, hops: int) -> None:
        self.delivered_count += 1
        if self._tracker is not None:
            self._tracker.on_deliver(message_id, self.address, self._host.now(), hops)
        if self._on_deliver is not None:
            self._on_deliver(message_id, payload)

    def _record_transmissions(self, message_id: MessageId, copies: int) -> None:
        if self._tracker is not None and copies:
            self._tracker.on_transmit(message_id, copies)
