"""Ack + retransmit gossip: reliability built *above* the transport.

The paper's broadcast layers either trust TCP (HyParView's flood) or
accept loss (plain Cyclon/Scamp gossip).  Reliability layers built on
peer-sampling overlays — the echo/ready phases of Scalable Byzantine
Reliable Broadcast, Snow's self-organising cloud broadcast — take a third
road: every copy travels as a datagram, the receiver acknowledges it, and
the sender keeps a **cancellable retransmit timer per (message, peer)**
until the ack lands or the retry budget runs out.  That discipline makes
timers outnumber messages.

Mechanics:

* :meth:`ReliableGossip._forward` sends each copy as a datagram and arms
  a retransmit timer with the peer's current **retransmit timeout**;
* every received copy — duplicates included — is acknowledged with
  :class:`~repro.gossip.messages.GossipAck`, because the copy may be a
  retransmission whose earlier ack was lost;
* an ack cancels the pending timer (the overwhelmingly common case: the
  engine reclaims the cancelled handle lazily) and, if the copy was never
  re-sent, is a round-trip sample for that peer;
* an expired timer resends the copy and re-arms with its delay multiplied
  by ``BACKOFF``; after ``MAX_RETRIES`` resends the peer is reported to the
  membership layer as failed (ack silence is this layer's failure
  detector, the way TCP resets are the flood's) and forgotten.

The retransmit timeout is per peer and learned from the acks themselves,
RFC 6298 style: ``RTO = max(ACK_TIMEOUT, SRTT + 4 * RTTVAR)`` with gains
1/8 and 1/4, on ``Host.now()`` — so one code path is right under any
simulated latency model and on the live runtime, with no oracle.  Two
rules keep it honest.  *Karn's rule*: an ack for a copy that was re-sent
is ambiguous and yields no sample.  *Retained backoff*: with the initial
timeout below the real round trip every first copy is re-sent and strict
Karn would never sample, so the delay a re-sent copy backed off to stays
the peer's timeout for later messages until a clean sample replaces it
(RFC 6298 5.5-5.7).  Copies in flight to one peer at once (BRB's three
phases) each back off on their own; the peer inherits the longest single
delay, never a product over copies.

``fanout=0`` forwards to the membership layer's whole view (HyParView's
flood discipline over unreliable transport); a positive fanout samples
peers the eager-gossip way (Cyclon-style).

The send / retransmit / ack-cancel machinery is one **acked channel**
keyed by an opaque tuple ending in the destination peer: ``(message id,
peer)`` here, ``(message id, phase, peer)`` for the BRB phases of
:mod:`repro.gossip.byzantine`, which stand on the same three methods.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.errors import ConfigurationError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host, TimerHandle
from ..protocols.base import PeerSamplingService
from .base import BroadcastLayer, DeliverCallback
from .messages import GossipAck, GossipData
from .tracker import BroadcastTracker

#: What a first copy waits for its ack before anything is known about the
#: peer, and the **floor** the learned per-peer timeout (see the module
#: docstring) never drops below.  It exceeds one round trip of the
#: *constant* latency model (2 x 0.01 s), where a clean network retransmits
#: nothing; a cross-zone round trip of the zoned model (0.08-0.31 s) is
#: longer, so the first copies over such a link are re-sent — each one
#: multiplying the wait by ``BACKOFF``, which the peer then keeps — until
#: one is acked clean, a handful of messages per link.
ACK_TIMEOUT = 0.05
#: ``BACKOFF`` and ``MAX_RETRIES`` apply per copy: a silent peer is given up
#: on ``timeout * (BACKOFF^(r+1) - 1) / (BACKOFF - 1)`` seconds after the
#: first copy (0.75 s from a fresh peer; longer in proportion once the
#: peer's timeout has grown).
BACKOFF = 2.0
MAX_RETRIES = 3


class ReliableGossip(BroadcastLayer):
    """Gossip over datagrams with per-copy acks and RTT-aware retransmit timers."""

    name = "reliable-gossip"

    def __init__(
        self,
        host: Host,
        membership: PeerSamplingService,
        tracker: Optional[BroadcastTracker] = None,
        *,
        fanout: int = 0,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        if fanout < 0:
            raise ConfigurationError(f"fanout must be >= 0: {fanout}")
        super().__init__(host, membership, tracker, on_deliver=on_deliver)
        self.fanout = fanout
        #: channel key ``(message id, ..., peer)`` -> the copy in flight
        #: (its armed timer, send time, attempt and current delay).
        #: Entries leave on ack (cancel) or expiry (resend or give-up), so
        #: a quiesced network leaves the map empty and scenarios freeze
        #: cleanly.
        self._pending: dict[tuple, _Copy] = {}
        #: peer -> ``(SRTT, RTTVAR)`` once a clean sample arrived.
        self._rtt: dict[NodeId, tuple[float, float]] = {}
        #: peer -> retransmit timeout of the *next* first copy: the
        #: estimate, or the backed-off delay a retransmission left behind
        #: until a clean sample replaces it.  Absent means ``ACK_TIMEOUT``.
        self._rto: dict[NodeId, float] = {}
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
    def _send_copy(self, key: tuple, message: Any) -> None:
        """Send ``message`` to ``key[-1]`` and arm its retransmit timer."""
        previous = self._pending.pop(key, None)
        if previous is not None:
            # Re-forwarding a message whose timer is still armed (e.g. a
            # duplicate arrival widened the target set): keep one timer.
            previous.handle.cancel()
        peer = key[-1]
        self._arm(_Copy(self, key, message, self._rto.get(peer, ACK_TIMEOUT)))

    def _arm(self, copy: _Copy) -> None:
        host = self._host
        host.send(copy.key[-1], copy.message)
        copy.sent_at = host.now()
        copy.handle = host.schedule(copy.delay, copy)
        self._pending[copy.key] = copy

    def _acked(self, key: tuple) -> None:
        copy = self._pending.pop(key, None)
        if copy is None:
            return
        copy.handle.cancel()
        self.acks_received += 1
        if copy.attempt:
            return  # Karn: which transmission this ack answers is unknowable
        peer = key[-1]
        sample = self._host.now() - copy.sent_at
        estimate = self._rtt.get(peer)
        if estimate is None:
            srtt, rttvar = sample, sample / 2
        else:
            srtt, rttvar = estimate
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
            srtt = 0.875 * srtt + 0.125 * sample
        self._rtt[peer] = (srtt, rttvar)
        # A clean sample also ends any backoff retained from earlier copies.
        self._rto[peer] = max(ACK_TIMEOUT, srtt + 4 * rttvar)

    def _retransmit(self, copy: _Copy) -> None:
        key = copy.key
        if self._pending.get(key) is not copy:
            return  # acked in the same instant the timer fired
        peer = key[-1]
        if copy.attempt >= MAX_RETRIES:
            del self._pending[key]
            self.give_ups += 1
            self._rtt.pop(peer, None)
            self._rto.pop(peer, None)
            # Ack silence is this layer's failure detector: hand the peer
            # to the membership layer, like CyclonAcked's send failures.
            self._membership.report_failure(peer)
            return
        copy.attempt += 1
        copy.delay *= BACKOFF
        # Later messages to this peer wait as long as this copy now does
        # (never a product over concurrent copies) until a clean sample.
        if copy.delay > self.retransmit_timeout(peer):
            self._rto[peer] = copy.delay
        self.retransmissions += 1
        self._record_transmissions(copy.message.message_id, 1)
        self._arm(copy)

    @property
    def pending_retransmits(self) -> int:
        """Armed retransmit timers right now."""
        return len(self._pending)

    def smoothed_rtt(self, peer: NodeId) -> Optional[float]:
        """SRTT to ``peer`` in seconds; ``None`` before the first clean ack."""
        estimate = self._rtt.get(peer)
        return estimate[0] if estimate is not None else None

    def retransmit_timeout(self, peer: NodeId) -> float:
        """How long the next first copy to ``peer`` waits for its ack."""
        return self._rto.get(peer, ACK_TIMEOUT)

    def reliability_stats(self) -> dict[str, int]:
        """The layer's ack/retransmit counters (JSON-safe)."""
        return {
            "acks_received": self.acks_received,
            "retransmissions": self.retransmissions,
            "give_ups": self.give_ups,
        }


class _Copy:
    """One copy in flight; also its picklable timer callback (bound
    lambdas are not)."""

    __slots__ = ("layer", "key", "message", "delay", "attempt", "sent_at", "handle")

    def __init__(self, layer: ReliableGossip, key: tuple, message: Any, delay: float) -> None:
        self.layer = layer
        self.key = key
        self.message = message
        #: current retransmit timeout of this copy (backs off per attempt).
        self.delay = delay
        #: retransmissions so far; only attempt 0 yields an RTT sample.
        self.attempt = 0
        self.sent_at = 0.0
        self.handle: Optional[TimerHandle] = None

    def __call__(self) -> None:
        self.layer._retransmit(self)
