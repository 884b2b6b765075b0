"""Ack + retransmit gossip: reliability built *above* the transport.

The paper's broadcast layers either trust TCP (HyParView's flood) or
accept loss (plain Cyclon/Scamp gossip).  Reliability layers built on
peer-sampling overlays — the echo/ready phases of Scalable Byzantine
Reliable Broadcast, Snow's self-organising cloud broadcast — take a third
road: every copy travels as a datagram, the receiver acknowledges it, and
the sender keeps a **cancellable retransmit timer per (message, peer)**
with exponential backoff until the ack lands or the retry budget runs
out.  That discipline makes timers outnumber messages.

Mechanics:

* :meth:`ReliableGossip._forward` sends each copy as a datagram and arms
  a retransmit timer (``ack_timeout``, doubling per attempt by
  ``backoff``);
* every received copy — duplicates included — is acknowledged with
  :class:`~repro.gossip.messages.GossipAck`, because the copy may be a
  retransmission whose earlier ack was lost;
* an ack cancels the pending timer (the overwhelmingly common case: the
  engine reclaims the cancelled handle lazily);
* an expired timer resends the copy and re-arms with doubled delay; after
  ``max_retries`` resends the peer is reported to the membership layer as
  failed (ack silence is this layer's failure detector, the way TCP
  resets are the flood's).

``fanout=0`` forwards to the membership layer's whole view (HyParView's
flood discipline over unreliable transport); a positive fanout samples
peers the eager-gossip way (Cyclon-style).

The send / retransmit / ack-cancel machinery is one **acked channel**
keyed by an opaque tuple ending in the destination peer: ``(message id,
peer)`` here, ``(message id, phase, peer)`` for the BRB phases of
:mod:`repro.gossip.byzantine`, which stand on the same three methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..common.errors import ConfigurationError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host, TimerHandle
from ..protocols.base import PeerSamplingService
from .base import BroadcastLayer, DeliverCallback
from .messages import GossipAck, GossipData
from .tracker import BroadcastTracker


@dataclass(frozen=True, slots=True)
class ReliableConfig:
    """Tuning of the ack/retransmit discipline.

    The default timeout exceeds one round trip of the *constant* latency
    model (2 x 0.01 s), where a clean network retransmits nothing, but is
    **shorter** than a cross-zone round trip of the zoned model (0.08-0.25
    s): there most copies are re-sent before their ack can arrive (ROADMAP
    item 2 has the count).  With loss the doubling backoff gives up after
    ``ack_timeout * (2^(r+1) - 1)`` seconds (~0.75 s at the defaults).

    This is the one place the three knobs are validated:
    :class:`ReliableGossip` and :class:`~repro.gossip.byzantine.BRBConfig`
    check theirs by constructing one.
    """

    ack_timeout: float = 0.05
    backoff: float = 2.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ConfigurationError(f"ack timeout must be positive: {self.ack_timeout}")
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff factor must be >= 1: {self.backoff}")
        if self.max_retries < 0:
            raise ConfigurationError(f"max retries must be >= 0: {self.max_retries}")


class ReliableGossip(BroadcastLayer):
    """Gossip over datagrams with per-copy acks and retransmit timers."""

    name = "reliable-gossip"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        fanout: int = 0,
        ack_timeout: float = 0.05,
        backoff: float = 2.0,
        max_retries: int = 3,
        on_deliver: Optional[DeliverCallback] = None,
        seen_capacity: Optional[int] = None,
    ) -> None:
        if fanout < 0:
            raise ConfigurationError(f"fanout must be >= 0: {fanout}")
        ReliableConfig(ack_timeout, backoff, max_retries)  # validates the knobs
        super().__init__(
            host, membership, tracker, on_deliver=on_deliver, seen_capacity=seen_capacity
        )
        self.fanout = fanout
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_retries = max_retries
        #: channel key ``(message id, ..., peer)`` -> armed retransmit
        #: timer.  Entries leave on ack (cancel), expiry (resend or
        #: give-up), so a quiesced network leaves the map empty and
        #: scenarios freeze cleanly.
        self._pending: dict[tuple, TimerHandle] = {}
        self.acks_received = 0
        self.retransmissions = 0
        self.give_ups = 0

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def handlers(self) -> dict:
        return {GossipData: self.handle_gossip, GossipAck: self.handle_ack}

    def handle_gossip(self, message: GossipData) -> None:
        # Ack before processing, duplicates included: this copy may be a
        # retransmission whose previous ack was lost in the network.
        self._host.send(message.sender, GossipAck(message.message_id, self.address))
        super().handle_gossip(message)

    def handle_ack(self, ack: GossipAck) -> None:
        self._acked((ack.message_id, ack.sender))

    # ------------------------------------------------------------------
    # Forwarding and retransmission
    # ------------------------------------------------------------------
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
        for target in targets:
            self._send_copy((message_id, target), message)
        self._record_transmissions(message_id, len(targets))

    # ------------------------------------------------------------------
    # The acked channel (shared with the BRB phases)
    # ------------------------------------------------------------------
    def _send_copy(self, key: tuple, message: Any, attempt: int = 0) -> None:
        """Send ``message`` to ``key[-1]`` and arm its retransmit timer."""
        previous = self._pending.pop(key, None)
        if previous is not None:
            # Re-forwarding a message whose timer is still armed (e.g. a
            # duplicate arrival widened the target set): keep one timer.
            previous.cancel()
        self._host.send(key[-1], message)
        delay = self.ack_timeout * (self.backoff**attempt)
        self._pending[key] = self._host.schedule(
            delay, _Retransmit(self, key, message, attempt + 1)
        )

    def _acked(self, key: tuple) -> None:
        handle = self._pending.pop(key, None)
        if handle is not None:
            handle.cancel()
            self.acks_received += 1

    def _retransmit(self, key: tuple, message: Any, attempt: int) -> None:
        if self._pending.pop(key, None) is None:
            return  # acked in the same instant the timer fired
        if attempt > self.max_retries:
            self.give_ups += 1
            # Ack silence is this layer's failure detector: hand the peer
            # to the membership layer, like CyclonAcked's send failures.
            self._membership.report_failure(key[-1])
            return
        self.retransmissions += 1
        self._record_transmissions(message.message_id, 1)
        self._send_copy(key, message, attempt)

    @property
    def pending_retransmits(self) -> int:
        """Armed retransmit timers right now."""
        return len(self._pending)

    def reliability_stats(self) -> dict[str, int]:
        """The layer's ack/retransmit counters (JSON-safe)."""
        return {
            "acks_received": self.acks_received,
            "retransmissions": self.retransmissions,
            "give_ups": self.give_ups,
        }


class _Retransmit:
    """Picklable retransmit-timer callback (bound lambdas are not)."""

    __slots__ = ("layer", "key", "message", "attempt")

    def __init__(self, layer: ReliableGossip, key: tuple, message: Any, attempt: int) -> None:
        self.layer = layer
        self.key = key
        self.message = message
        self.attempt = attempt

    def __call__(self) -> None:
        self.layer._retransmit(self.key, self.message, self.attempt)
