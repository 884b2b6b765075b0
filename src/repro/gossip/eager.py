"""Probabilistic eager gossip (the paper's broadcast layer for baselines).

On first reception a node forwards the payload to ``fanout`` peers drawn
uniformly from its membership view (Section 1).  Two transport disciplines
are supported:

* ``acked=False`` — plain gossip over unreliable transport: messages to
  crashed peers vanish silently.  This is how the paper runs Cyclon and
  Scamp.
* ``acked=True`` — every copy is acknowledged; a missing acknowledgment is
  reported to the membership protocol via
  :meth:`~repro.protocols.base.PeerSamplingService.report_failure`.  This
  is the CyclonAcked configuration.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.errors import ConfigurationError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host
from ..common.messages import Message
from ..protocols.base import PeerSamplingService
from .base import BroadcastLayer, DeliverCallback
from .messages import GossipData
from .tracker import BroadcastTracker


class EagerGossip(BroadcastLayer):
    """Fanout-based gossip over a peer-sampling service."""

    name = "eager-gossip"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        fanout: int = 4,
        acked: bool = False,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1: {fanout}")
        super().__init__(host, membership, tracker, on_deliver=on_deliver)
        self.fanout = fanout
        self.acked = acked

    def _forward(
        self,
        message_id: MessageId,
        payload: Any,
        hops: int,
        exclude: tuple[NodeId, ...],
    ) -> None:
        targets = self._membership.gossip_targets(self.fanout, exclude)
        if not targets:
            return
        message = GossipData(message_id, payload, hops, self.address)
        on_failure = self._on_send_failure if self.acked else None
        for target in targets:
            self._host.send(target, message, on_failure=on_failure)
        self._record_transmissions(message_id, len(targets))

    def _on_send_failure(self, peer: NodeId, _message: Message) -> None:
        """Acknowledgment timed out: let the membership layer expunge the
        peer.  The copy itself is *not* retransmitted — CyclonAcked only
        cleans views; redundancy is gossip's own repair mechanism."""
        self._membership.report_failure(peer)
