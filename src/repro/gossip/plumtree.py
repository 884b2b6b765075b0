"""Plumtree — epidemic broadcast trees over HyParView (extension).

Plumtree (Leitão, Pereira & Rodrigues, SRDS 2007) is the dissemination
protocol the HyParView membership layer was designed to carry, and the
natural follow-on to this paper: it keeps the flood's reliability while
sending each payload along a spanning *tree* embedded in the active view,
advertising only message ids (IHAVE) on the remaining links.

* **eager push** — payloads travel tree edges;
* **lazy push** — ids travel non-tree edges;
* a duplicate payload PRUNEs the edge it arrived on;
* a missing payload (id seen, payload absent after a timeout) GRAFTs the
  edge it was advertised on, repairing the tree around failures.

The layer consumes HyParView's neighbour up/down events, which is exactly
the API surface the paper's Section 4.5 view-manipulation primitives feed.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..common.ids import MessageId, NodeId, SequenceGenerator
from ..common.interfaces import Host, TimerHandle
from ..common.messages import Message
from ..core.protocol import HyParView
from .messages import PlumtreeGossip, PlumtreeGraft, PlumtreeIHave, PlumtreePrune
from .tracker import BroadcastTracker

DeliverCallback = Callable[[MessageId, Any], None]

#: Wait after the first IHAVE for the eager copy before grafting (should
#: exceed one network round trip).
MISSING_TIMEOUT = 0.1
#: Wait after sending a GRAFT before trying the next announcer.
GRAFT_TIMEOUT = 0.05


class Plumtree:
    """One node's Plumtree instance, bound to a HyParView membership."""

    name = "plumtree"

    def __init__(
        self,
        host: Host,
        membership: HyParView,
        tracker: Optional[BroadcastTracker] = None,
        *,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        self._host = host
        self._membership = membership
        self._tracker = tracker
        self._on_deliver = on_deliver
        # Sequence ranges are incarnation-scoped: a restarted process
        # must never collide with ids its predecessor minted.
        self._sequence = SequenceGenerator(host.address, start=host.incarnation << 32)
        # Insertion-ordered sets (dicts with ``None`` values): a push walks
        # its peers in the order they became tree or lazy edges, never in
        # string-hash order, so a run does not depend on PYTHONHASHSEED.
        self.eager_peers: dict[NodeId, None] = dict.fromkeys(membership.out_neighbors())
        self.lazy_peers: dict[NodeId, None] = {}
        #: ids of every message ever received (deduplication; ids are tiny)
        self._seen: set[MessageId] = set()
        #: message id -> payload for answering GRAFTs (kept for the run)
        self._received: dict[MessageId, Any] = {}
        #: message id -> announcers (peer, round) for missing messages
        self._announcements: dict[MessageId, list[tuple[NodeId, int]]] = {}
        self._timers: dict[MessageId, TimerHandle] = {}
        self.delivered_count = 0
        self.duplicate_count = 0
        self.grafts_sent = 0
        self.prunes_sent = 0
        membership.add_listener(self)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def address(self) -> NodeId:
        return self._host.address

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        return {
            PlumtreeGossip: self.handle_gossip,
            PlumtreeIHave: self.handle_ihave,
            PlumtreeGraft: self.handle_graft,
            PlumtreePrune: self.handle_prune,
        }

    def broadcast(self, payload: Any = None) -> MessageId:
        message_id = self._sequence.next_id()
        if self._tracker is not None:
            self._tracker.on_broadcast(message_id, self.address, self._host.now())
        self._store(message_id, payload)
        self._deliver(message_id, payload, hops=0)
        self._eager_push(message_id, payload, round_=1, exclude=None)
        self._lazy_push(message_id, round_=1, exclude=None)
        return message_id

    def has_delivered(self, message_id: MessageId) -> bool:
        return message_id in self._seen

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def handle_gossip(self, message: PlumtreeGossip) -> None:
        sender = message.sender
        if message.message_id in self._seen:
            # Duplicate payload: this edge is redundant — prune it.
            self.duplicate_count += 1
            if self._tracker is not None:
                self._tracker.on_redundant(message.message_id, self.address)
            self._demote_to_lazy(sender)
            self.prunes_sent += 1
            self._host.send(sender, PlumtreePrune(self.address))
            return
        self._store(message.message_id, message.payload)
        self._cancel_missing_timer(message.message_id)
        self._announcements.pop(message.message_id, None)
        self._promote_to_eager(sender)
        self._deliver(message.message_id, message.payload, hops=message.round)
        next_round = message.round + 1
        self._eager_push(message.message_id, message.payload, next_round, exclude=sender)
        self._lazy_push(message.message_id, next_round, exclude=sender)

    def handle_ihave(self, message: PlumtreeIHave) -> None:
        if message.message_id in self._seen:
            return
        self._announcements.setdefault(message.message_id, []).append(
            (message.sender, message.round)
        )
        if message.message_id not in self._timers:
            self._start_missing_timer(message.message_id, MISSING_TIMEOUT)

    def handle_graft(self, message: PlumtreeGraft) -> None:
        self._promote_to_eager(message.sender)
        if message.message_id in self._received:
            payload = self._received[message.message_id]
            self._host.send(
                message.sender,
                PlumtreeGossip(message.message_id, payload, message.round, self.address),
                on_failure=self._on_peer_failure,
            )

    def handle_prune(self, message: PlumtreePrune) -> None:
        self._demote_to_lazy(message.sender)

    # ------------------------------------------------------------------
    # Membership listener (HyParView neighbour events)
    # ------------------------------------------------------------------
    def on_neighbor_up(self, peer: NodeId) -> None:
        """New active-view links start as tree edges (paper's rule)."""
        self.lazy_peers.pop(peer, None)
        self.eager_peers[peer] = None

    def on_neighbor_down(self, peer: NodeId) -> None:
        self.eager_peers.pop(peer, None)
        self.lazy_peers.pop(peer, None)
        # Forget its announcements; pending grafts fall through to the next
        # announcer when their timer fires.
        for announcers in self._announcements.values():
            announcers[:] = [(node, round_) for node, round_ in announcers if node != peer]

    # ------------------------------------------------------------------
    # Pushing
    # ------------------------------------------------------------------
    def _eager_push(
        self, message_id: MessageId, payload: Any, round_: int, exclude: Optional[NodeId]
    ) -> None:
        targets = [peer for peer in self.eager_peers if peer != exclude]
        if not targets:
            return
        message = PlumtreeGossip(message_id, payload, round_, self.address)
        for peer in targets:
            self._host.send(peer, message, on_failure=self._on_peer_failure)
        if self._tracker is not None:
            self._tracker.on_transmit(message_id, len(targets))

    def _lazy_push(self, message_id: MessageId, round_: int, exclude: Optional[NodeId]) -> None:
        message = PlumtreeIHave(message_id, round_, self.address)
        for peer in self.lazy_peers:
            if peer != exclude:
                self._host.send(peer, message, on_failure=self._on_peer_failure)

    # ------------------------------------------------------------------
    # Tree repair
    # ------------------------------------------------------------------
    def _start_missing_timer(self, message_id: MessageId, delay: float) -> None:
        self._timers[message_id] = self._host.schedule(
            delay, lambda: self._on_missing_timeout(message_id)
        )

    def _cancel_missing_timer(self, message_id: MessageId) -> None:
        timer = self._timers.pop(message_id, None)
        if timer is not None:
            timer.cancel()

    def _on_missing_timeout(self, message_id: MessageId) -> None:
        self._timers.pop(message_id, None)
        if message_id in self._seen:
            return
        announcers = self._announcements.get(message_id)
        if not announcers:
            return  # no candidates; a future IHAVE restarts the repair
        peer, round_ = announcers.pop(0)
        self._promote_to_eager(peer)
        self.grafts_sent += 1
        self._host.send(
            peer, PlumtreeGraft(message_id, round_, self.address), on_failure=self._on_peer_failure
        )
        self._start_missing_timer(message_id, GRAFT_TIMEOUT)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _promote_to_eager(self, peer: NodeId) -> None:
        self.lazy_peers.pop(peer, None)
        if peer in self._membership.active:
            self.eager_peers[peer] = None

    def _demote_to_lazy(self, peer: NodeId) -> None:
        self.eager_peers.pop(peer, None)
        if peer in self._membership.active:
            self.lazy_peers[peer] = None

    def _store(self, message_id: MessageId, payload: Any) -> None:
        self._seen.add(message_id)
        self._received[message_id] = payload

    def _deliver(self, message_id: MessageId, payload: Any, hops: int) -> None:
        self.delivered_count += 1
        if self._tracker is not None:
            self._tracker.on_deliver(message_id, self.address, self._host.now(), hops)
        if self._on_deliver is not None:
            self._on_deliver(message_id, payload)

    def _on_peer_failure(self, peer: NodeId, _message: Message) -> None:
        self._membership.report_failure(peer)
