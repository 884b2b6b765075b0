"""Deterministic flood over the HyParView active view (Section 4.1).

"When a node receives a message for the first time, it broadcasts the
message to all nodes of its active view (except, obviously, to the node
that has sent the message)."  Every copy travels over the reliable
transport, so each broadcast implicitly tests every overlay link — the
fast-failure-detection property the paper's recovery results rest on.

The optional ``resend_on_repair`` flag is an *extension* (off by default,
matching the paper): when a copy fails, the flood retries towards the
repaired active view after the membership layer has had a moment to promote
a replacement, trading extra traffic for reliability during the repair
window.  The ablation benchmark quantifies the trade.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host
from ..common.messages import Message
from ..protocols.base import PeerSamplingService
from .base import BroadcastLayer, DeliverCallback
from .messages import GossipData
from .tracker import BroadcastTracker

#: Seconds a failed copy waits before the resend extension retries towards
#: the repaired view: long enough for the membership layer to promote a
#: replacement.
RESEND_DELAY = 0.1
#: Recent messages whose payload the resend extension keeps for retries.
RESEND_MEMORY = 128


class FloodBroadcast(BroadcastLayer):
    """Flooding broadcast for symmetric-active-view membership."""

    name = "flood"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        on_deliver: Optional[DeliverCallback] = None,
        resend_on_repair: bool = False,
    ) -> None:
        super().__init__(host, membership, tracker, on_deliver=on_deliver)
        self.resend_on_repair = resend_on_repair
        # message id -> (payload, hops, peers already sent to); only
        # maintained when the resend extension is enabled.
        self._sent: OrderedDict[MessageId, tuple[Any, int, set[NodeId]]] = OrderedDict()

    def _forward(
        self,
        message_id: MessageId,
        payload: Any,
        hops: int,
        exclude: tuple[NodeId, ...],
    ) -> None:
        # fanout is irrelevant: HyParView returns its whole active view.
        targets = self._membership.gossip_targets(0, exclude)
        if self.resend_on_repair:
            self._remember_sent(message_id, payload, hops, targets)
        if not targets:
            return
        message = GossipData(message_id, payload, hops, self.address)
        # Bound once per fan-out rather than looked up through Host per copy.
        send = self._host.transport.send
        on_failure = self._on_send_failure
        for target in targets:
            send(target, message, on_failure)
        self._record_transmissions(message_id, len(targets))

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_send_failure(self, peer: NodeId, message: Message) -> None:
        """A flood copy hit a dead peer: this *is* the failure detector."""
        self._membership.report_failure(peer)
        if self.resend_on_repair and isinstance(message, GossipData):
            self._host.schedule(RESEND_DELAY, lambda: self._resend(message.message_id))

    def _remember_sent(
        self, message_id: MessageId, payload: Any, hops: int, targets: list[NodeId]
    ) -> None:
        entry = self._sent.get(message_id)
        if entry is None:
            self._sent[message_id] = (payload, hops, set(targets))
            if len(self._sent) > RESEND_MEMORY:
                self._sent.popitem(last=False)
        else:
            entry[2].update(targets)

    def _resend(self, message_id: MessageId) -> None:
        """Push the payload towards newly promoted neighbours (extension)."""
        entry = self._sent.get(message_id)
        if entry is None:
            return
        payload, hops, already = entry
        fresh = [peer for peer in self._membership.gossip_targets(0) if peer not in already]
        if not fresh:
            return
        already.update(fresh)
        message = GossipData(message_id, payload, hops, self.address)
        for target in fresh:
            self._host.send(target, message, on_failure=self._on_send_failure)
        self._record_transmissions(message_id, len(fresh))
