"""The HyParView membership protocol (Section 4 of the paper).

The protocol maintains two views with different strategies:

* a small **symmetric active view** (capacity ``fanout + 1``) managed
  *reactively*: joins add members, failures and disconnects remove them,
  and removals trigger promotion of passive-view candidates via NEIGHBOR
  requests with a priority bit;
* a larger **passive view** managed *cyclically* by a shuffle random walk
  that mixes the node's own identifier, active-view samples and
  passive-view samples (Section 4.4).

Failure detection is the transport's job ("TCP as a failure detector"):
every reliable send to an active-view member carries a failure callback
wired to :meth:`HyParView.report_failure`, so the entire broadcast overlay
is implicitly tested at every broadcast — the property the paper credits
for HyParView's fast recovery.

The implementation is sans-io: it only touches the abstract
:class:`~repro.common.interfaces.Host`, so the identical class runs inside
the discrete-event simulator and on real TCP sockets (:mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional

from ..common.errors import ProtocolError
from ..common.ids import NodeId
from ..common.interfaces import Host, TimerHandle
from ..common.messages import Message
from ..protocols.base import PeerSamplingService
from .config import HyParViewConfig
from .events import ListenerSet, MembershipListener
from .exchange import Exchange
from .messages import (
    Disconnect,
    ForwardJoin,
    ForwardJoinReply,
    Join,
    Neighbor,
    NeighborReply,
    Shuffle,
    ShuffleReply,
)
from .views import BoundedView


@dataclass(slots=True)
class HyParViewStats:
    """Operational counters, exposed for tests and experiment reports."""

    joins_received: int = 0
    forward_joins_received: int = 0
    forward_joins_accepted: int = 0
    neighbor_requests_received: int = 0
    neighbor_accepts: int = 0
    neighbor_rejects: int = 0
    promotions_completed: int = 0
    failures_detected: int = 0
    disconnects_received: int = 0
    shuffles_initiated: int = 0
    shuffles_forwarded: int = 0
    shuffles_accepted: int = 0
    shuffle_replies_received: int = 0


class HyParView(PeerSamplingService):
    """One node's HyParView instance.

    Wire it to an environment by registering :meth:`handlers` with the
    node's dispatcher, then call :meth:`join` with a contact node.  Drive
    membership rounds either manually (:meth:`cycle`) or by calling
    :meth:`start` for self-scheduled shuffles.
    """

    name = "hyparview"

    def __init__(self, host: Host, config: Optional[HyParViewConfig] = None) -> None:
        self._host = host
        self._address = host.address
        self._config = config if config is not None else HyParViewConfig()
        self._rng = host.rng
        self.active = BoundedView(self._config.active_view_capacity)
        self.passive = BoundedView(self._config.passive_view_capacity)
        self.stats = HyParViewStats()
        self._listeners = ListenerSet()
        self._exchanges: list[Exchange] = []
        # Promotion state: at most one outstanding NEIGHBOR request.
        self._neighbor = self._exchange("neighbor", self._on_neighbor_timeout)
        self._fill_excluded: set[NodeId] = set()
        self._fill_passes_remaining = 0
        self._fill_retry_timer: Optional[TimerHandle] = None
        self._last_reactive_fill: Optional[float] = None
        self._reactive_fill_streak = 0
        # Identifiers included in our last shuffle, for the eviction
        # priority rule of Section 4.4.
        self._last_shuffle_exchange: tuple[NodeId, ...] = ()
        self._shuffle_timer: Optional[TimerHandle] = None
        self._running = False
        self._left = False

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def address(self) -> NodeId:
        return self._address

    @property
    def config(self) -> HyParViewConfig:
        return self._config

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        """Message-type to handler mapping for dispatcher wiring."""
        return {
            Join: self.handle_join,
            ForwardJoin: self.handle_forward_join,
            ForwardJoinReply: self.handle_forward_join_reply,
            Neighbor: self.handle_neighbor,
            NeighborReply: self.handle_neighbor_reply,
            Disconnect: self.handle_disconnect,
            Shuffle: self.handle_shuffle,
            ShuffleReply: self.handle_shuffle_reply,
        }

    def add_listener(self, listener: MembershipListener) -> None:
        self._listeners.add(listener)

    def active_members(self) -> tuple[NodeId, ...]:
        return self.active.members()

    def passive_members(self) -> tuple[NodeId, ...]:
        return self.passive.members()

    def join(self, contact: NodeId) -> None:
        """Enter the overlay through ``contact`` (Section 4.2).

        The joiner optimistically installs the contact as an active
        neighbour — the TCP connection it opens to send JOIN *is* the
        symmetric link; a send failure tears it down again.
        """
        if contact == self._address:
            raise ProtocolError("a node cannot join through itself")
        self._left = False
        self._add_to_active(contact)
        self._host.send(contact, Join(self._address), on_failure=self._on_active_send_failure)

    def leave(self) -> None:
        """Graceful exit: notify every active neighbour and clear state.

        A left node refuses new links until it joins again — otherwise its
        former neighbours, which keep it as a passive-view candidate, would
        promote it straight back into the overlay.
        """
        self._left = True
        for peer in self.active.members():
            self._host.send(peer, Disconnect(self._address))
            self.active.remove(peer)
            self._host.unwatch(peer)
            self._listeners.notify_down(peer)
        for exchange in self._exchanges:
            exchange.close()
        self._end_fill_episode()
        self.stop()

    def open_exchanges(self) -> tuple[tuple[str, object], ...]:
        """``(name, key)`` of every open exchange; ``()`` at quiescence."""
        return tuple((x.name, x.key) for x in self._exchanges if x.key is not None)

    def gossip_targets(self, fanout: int, exclude: Collection[NodeId] = ()) -> list[NodeId]:
        """The whole active view minus ``exclude``.

        HyParView floods deterministically (Section 4.1); the ``fanout``
        argument is part of the generic interface and intentionally ignored
        — the effective fanout is the active view size.
        """
        return [peer for peer in self.active if peer not in exclude]

    def report_failure(self, peer: NodeId) -> None:
        """React to a detected failure (TCP reset / send failure / link
        loss).

        Removes the peer and starts promoting a passive-view replacement
        (Section 4.3).  Dead peers are *not* recycled into the passive view.
        """
        if self.active.discard(peer):
            self._host.unwatch(peer)
            self.stats.failures_detected += 1
            self._listeners.notify_down(peer)
            self._start_fill_episode()
        else:
            # A stale passive entry (e.g. the gossip layer probing an old
            # candidate) — expunge it so it is not promoted later.
            self.passive.discard(peer)

    def cycle(self) -> None:
        """One membership round: a shuffle, plus one promotion pass over
        the passive view if the active view is under-full.

        The pass arms no retry timer: the next cycle is the retry.  A
        failure or disconnect episode already running keeps its paced
        budget (see :meth:`_start_fill_pass`)."""
        if not self.active.is_full:
            self._start_fill_pass()
        self.shuffle_once()

    def out_neighbors(self) -> tuple[NodeId, ...]:
        return self.active.members()

    def start(self) -> None:
        """Self-schedule periodic shuffles (live mode).  The first shuffle
        fires after a random fraction of the period to desynchronise
        nodes."""
        if self._running:
            return
        self._running = True
        delay = self._rng.uniform(0, self._config.shuffle_period)
        self._shuffle_timer = self._host.schedule(delay, self._periodic_shuffle)

    def stop(self) -> None:
        self._running = False
        if self._shuffle_timer is not None:
            self._shuffle_timer.cancel()
            self._shuffle_timer = None

    # ------------------------------------------------------------------
    # Join protocol (Section 4.2, Algorithm 1)
    # ------------------------------------------------------------------
    def handle_join(self, message: Join) -> None:
        new_node = message.new_node
        self.stats.joins_received += 1
        if new_node == self._address or self._left:
            return
        self._add_to_active(new_node)
        forward = ForwardJoin(new_node, self._config.arwl, self._address)
        for peer in self.active.members():
            if peer != new_node:
                self._host.send(peer, forward, on_failure=self._on_active_send_failure)

    def handle_forward_join(self, message: ForwardJoin) -> None:
        new_node, ttl, sender = message.new_node, message.ttl, message.sender
        self.stats.forward_joins_received += 1
        if new_node == self._address or self._left:
            return  # the walk reached the joiner itself
        if ttl == 0 or len(self.active) == 1:
            self._accept_forward_join(new_node)
            return
        if ttl == self._config.prwl:
            self._add_to_passive(new_node)
        next_hop = self.active.random_member(self._rng, exclude=(sender, new_node))
        if next_hop is None:
            # Nowhere to continue the walk: absorb the join here.
            self._accept_forward_join(new_node)
            return
        self._host.send(
            next_hop,
            ForwardJoin(new_node, ttl - 1, self._address),
            on_failure=self._on_active_send_failure,
        )

    def _accept_forward_join(self, new_node: NodeId) -> None:
        if self._add_to_active(new_node):
            self.stats.forward_joins_accepted += 1
            # Active views are symmetric: tell the joiner to add the
            # reverse edge (implicit in the paper's TCP connection setup).
            self._host.send(
                new_node, ForwardJoinReply(self._address), on_failure=self._on_active_send_failure
            )

    def handle_forward_join_reply(self, message: ForwardJoinReply) -> None:
        self._add_to_active(message.sender)

    # ------------------------------------------------------------------
    # Active view management (Section 4.3)
    # ------------------------------------------------------------------
    def handle_neighbor(self, message: Neighbor) -> None:
        sender = message.sender
        self.stats.neighbor_requests_received += 1
        if sender == self._address:
            return
        if self._left:
            self._send_neighbor_reply(sender, accepted=False)
            return
        if sender in self.active:
            # Already symmetric neighbours; re-acknowledge idempotently.
            self._send_neighbor_reply(sender, accepted=True)
            return
        if message.high_priority:
            # A starving node (empty active view) is always admitted, even
            # at the cost of evicting a random member.
            self._add_to_active(sender)
            self.stats.neighbor_accepts += 1
            self._send_neighbor_reply(sender, accepted=True)
            return
        if self.active.is_full:
            self.stats.neighbor_rejects += 1
            self._send_neighbor_reply(sender, accepted=False)
            return
        self._add_to_active(sender)
        self.stats.neighbor_accepts += 1
        self._send_neighbor_reply(sender, accepted=True)

    def _send_neighbor_reply(self, peer: NodeId, accepted: bool) -> None:
        # Both answers ride the requester's connection (Section 4.3): a lost
        # reply would leave its single promotion slot open forever.  Failure
        # means the requester died and must be cleaned up.
        self._host.send(
            peer, NeighborReply(self._address, accepted), on_failure=self._on_active_send_failure
        )

    def handle_neighbor_reply(self, message: NeighborReply) -> None:
        sender = message.sender
        if sender != self._neighbor.key:
            return  # stale reply from a timed-out or superseded request
        self._neighbor.close()
        if message.accepted:
            self.passive.discard(sender)
            self._add_to_active(sender)
            self.stats.promotions_completed += 1
            self._fill_excluded.discard(sender)
        else:
            # Rejected candidates stay in the passive view (Section 4.3)
            # but are not retried within the same pass.
            self._fill_excluded.add(sender)
        self._fill_active_view()

    def handle_disconnect(self, message: Disconnect) -> None:
        peer = message.sender
        self.stats.disconnects_received += 1
        if peer not in self.active:
            return
        self.active.remove(peer)
        self._host.unwatch(peer)
        self._listeners.notify_down(peer)
        # A disconnected peer is alive — it makes a good future candidate
        # (Section 4.5 explains this keeps refill probability high).
        self._add_to_passive(peer)
        # Disconnects arriving in rapid succession are eviction contention:
        # more starving nodes than free slots, each admission evicting the
        # previous winner.  Granting every eviction a fresh promotion
        # budget livelocks that loop (admit -> evict -> re-promote, with no
        # timer in the cycle), so rapid-fire disconnects spend down the
        # current episode's budget instead; the node backs off until the
        # next cycle-driven repair once it is exhausted.
        now = self._host.now()
        rapid = (
            self._last_reactive_fill is not None
            and now - self._last_reactive_fill < self._config.promotion_retry_delay
        )
        self._last_reactive_fill = now
        self._reactive_fill_streak = self._reactive_fill_streak + 1 if rapid else 0
        if self._reactive_fill_streak >= 3:
            self._fill_passes_remaining -= 1
            if self._fill_passes_remaining >= 0:
                self._fill_active_view()
        else:
            self._start_fill_episode()

    # ------------------------------------------------------------------
    # Passive view management (Section 4.4)
    # ------------------------------------------------------------------
    def shuffle_once(self) -> None:
        """Initiate one shuffle walk (the cyclic half of the protocol)."""
        target = self.active.random_member(self._rng)
        if target is None:
            return
        exchange = (
            (self._address,)
            + tuple(self.active.sample(self._rng, self._config.shuffle_ka))
            + tuple(self.passive.sample(self._rng, self._config.shuffle_kp))
        )
        self._last_shuffle_exchange = exchange
        self.stats.shuffles_initiated += 1
        self._host.send(
            target,
            Shuffle(self._address, self._address, self._config.effective_shuffle_ttl, exchange),
            on_failure=self._on_active_send_failure,
        )

    def handle_shuffle(self, message: Shuffle) -> None:
        if message.origin == self._address:
            return  # the walk looped back to its initiator; drop it
        ttl = message.ttl - 1
        if ttl > 0 and len(self.active) > 1:
            next_hop = self.active.random_member(
                self._rng, exclude=(message.sender, message.origin)
            )
            if next_hop is not None:
                self.stats.shuffles_forwarded += 1
                self._host.send(
                    next_hop,
                    Shuffle(message.origin, self._address, ttl, message.exchange),
                    on_failure=self._on_active_send_failure,
                )
                return
        # Accept: answer with an equally sized passive-view sample over a
        # temporary connection straight back to the origin.
        self.stats.shuffles_accepted += 1
        reply_sample = self.passive.sample(self._rng, len(message.exchange))
        self._host.send(
            message.origin,
            ShuffleReply(self._address, tuple(reply_sample)),
            on_failure=self._on_shuffle_reply_failure,
        )
        self._integrate_exchange(message.exchange, sent=tuple(reply_sample))

    def handle_shuffle_reply(self, message: ShuffleReply) -> None:
        self.stats.shuffle_replies_received += 1
        self._integrate_exchange(message.exchange, sent=self._last_shuffle_exchange)
        if not self.active.is_full:
            # Fresh candidates may unblock a stalled repair: one pass over
            # them, like a cycle's, with no retry timer of its own.
            self._start_fill_pass()

    def _integrate_exchange(self, received: tuple[NodeId, ...], sent: tuple[NodeId, ...]) -> None:
        """Merge shuffle identifiers into the passive view (Section 4.4).

        Skips our own identifier and already-known nodes; when the view is
        full, evicts identifiers that were sent to the peer first, then
        random ones.
        """
        passive, me = self.passive, self._address
        # The views' index dicts, directly: a dozen tests per shuffled identifier.
        in_active, in_passive = self.active._index, passive._index
        eviction_candidates = [node for node in sent if node in in_passive]
        for node in received:
            if node == me or node in in_active or node in in_passive:
                continue
            if len(in_passive) >= passive.capacity:
                victim = None
                while eviction_candidates:
                    candidate = eviction_candidates.pop()
                    if candidate in in_passive:
                        victim = candidate
                        break
                if victim is None:
                    victim = passive.random_member(self._rng)
                passive.remove(victim)
            passive.add(node)

    # ------------------------------------------------------------------
    # View manipulation primitives (Algorithm 1, Section 4.5)
    # ------------------------------------------------------------------
    def _add_to_active(self, node: NodeId) -> bool:
        """``addNodeActiveView``: returns whether the node was inserted."""
        active = self.active
        if node == self._address or node in active._index:
            return False
        if len(active._index) >= active.capacity:
            self._drop_random_from_active()
        self.passive.discard(node)
        active.add(node)
        # Hold the symmetric TCP connection: its loss is the failure
        # detector (Section 1, point iii).
        self._host.watch(node, self._on_link_down)
        self._listeners.notify_up(node)
        return True

    def _drop_random_from_active(self) -> None:
        """``dropRandomElementFromActiveView``: evict, notify, demote."""
        victim = self.active.random_member(self._rng)
        if victim is None:
            return
        if victim == self._neighbor.key:
            # Our own NEIGHBOR request to the victim is still open (both
            # sides asked at once, and we admitted its request): its late
            # accepting reply must not re-add the link we just dropped.
            self._neighbor.close()
        self._host.send(victim, Disconnect(self._address))
        self.active.remove(victim)
        self._host.unwatch(victim)
        self._listeners.notify_down(victim)
        self._add_to_passive(victim)

    def _add_to_passive(self, node: NodeId) -> bool:
        """``addNodePassiveView``: random eviction when full."""
        passive = self.passive
        if node == self._address or node in self.active._index or node in passive._index:
            return False
        if len(passive._index) >= passive.capacity:
            victim = passive.random_member(self._rng)
            if victim is not None:
                passive.remove(victim)
        passive.add(node)
        return True

    # ------------------------------------------------------------------
    # Passive -> active promotion (Section 4.3)
    # ------------------------------------------------------------------
    def _start_fill_episode(self) -> None:
        """A failure or disconnect: promote with a full budget of
        ``promotion_max_passes`` retry passes, paced by
        ``promotion_retry_delay``."""
        self._fill_passes_remaining = self._config.promotion_max_passes
        self._fill_active_view()

    def _start_fill_pass(self) -> None:
        """A periodic trigger (cycle, shuffle reply): one pass over the
        passive view, with no retry budget and so no retry timer.

        An episode already running (an open NEIGHBOR exchange or an armed
        retry timer) is left alone, budget and all: the periodic trigger
        neither renews nor spends it.
        """
        if self._neighbor.key is not None or self._fill_retry_timer is not None:
            return
        self._fill_passes_remaining = 0
        self._fill_active_view()

    def _fill_active_view(self) -> None:
        """Promote passive candidates until the active view is full.

        One NEIGHBOR request is outstanding at a time; each candidate is
        first probed (the paper's "attempt to establish a TCP connection"),
        unreachable candidates are expunged from the passive view, and
        rejections move on to the next candidate.

        Section 4.3's loop never gives up after a rejection ("the initiator
        will select another node ... and repeat the whole procedure"):
        after a full pass of rejections the pass restarts after
        ``promotion_retry_delay`` while the episode's budget lasts.  A
        failure or disconnect starts an episode with
        ``promotion_max_passes`` retries (:meth:`_start_fill_episode`); a
        cycle or a shuffle reply starts one pass with none
        (:meth:`_start_fill_pass`), so its retry is the next cycle.
        """
        if self._neighbor.key is not None:
            return
        if self.active.is_full:
            self._end_fill_episode()
            return
        candidate = self.passive.random_member(self._rng, exclude=self._fill_excluded)
        if candidate is None:
            # Every candidate was tried this pass; the rejections were about
            # *momentarily* full views on the other side, so start over
            # after a pacing delay while budget remains.
            self._fill_excluded.clear()
            if self.passive.is_empty or self._fill_passes_remaining <= 0:
                self._end_fill_episode()
                return
            self._fill_passes_remaining -= 1
            if self._fill_retry_timer is None:
                self._fill_retry_timer = self._host.schedule(
                    self._config.promotion_retry_delay, self._retry_fill_pass
                )
            return
        self._neighbor.open(candidate)
        self._host.probe(candidate, self._on_probe_result)

    def _retry_fill_pass(self) -> None:
        self._fill_retry_timer = None
        self._fill_active_view()

    def _end_fill_episode(self) -> None:
        self._fill_excluded.clear()
        self._fill_passes_remaining = 0
        if self._fill_retry_timer is not None:
            self._fill_retry_timer.cancel()
            self._fill_retry_timer = None

    def _on_probe_result(self, peer: NodeId, ok: bool) -> None:
        if peer != self._neighbor.key:
            return
        if not ok:
            self.passive.discard(peer)
            self._neighbor.close()
            self._fill_active_view()
            return
        if self.active.is_full:
            # Filled by incoming requests while we were probing.
            self._neighbor.close()
            self._end_fill_episode()
            return
        high_priority = self.active.is_empty
        self._host.send(
            peer,
            Neighbor(self._address, high_priority),
            on_failure=self._on_neighbor_request_failure,
        )
        self._neighbor.arm(self._config.neighbor_request_timeout)

    def _on_neighbor_request_failure(self, peer: NodeId, _message: Message) -> None:
        if peer != self._neighbor.key:
            return
        self._neighbor.close()
        self.passive.discard(peer)
        self._fill_active_view()

    def _on_neighbor_timeout(self, peer: NodeId) -> None:
        self._fill_excluded.add(peer)
        self._fill_active_view()

    def _exchange(self, name: str, on_expire: Callable[..., None]) -> Exchange:
        """A guarded exchange slot that :meth:`leave` closes and
        :meth:`open_exchanges` reports."""
        exchange = Exchange(name, self._host, on_expire)
        self._exchanges.append(exchange)
        return exchange

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _on_active_send_failure(self, peer: NodeId, _message: Message) -> None:
        self.report_failure(peer)

    def _on_link_down(self, peer: NodeId) -> None:
        """The held TCP connection to an active-view member reset."""
        self.report_failure(peer)

    def _on_shuffle_reply_failure(self, peer: NodeId, _message: Message) -> None:
        # The shuffle origin died before our temporary connection went
        # through; make sure it is not kept as a candidate.
        self.passive.discard(peer)

    def _periodic_shuffle(self) -> None:
        if not self._running:
            return
        self.cycle()
        self._shuffle_timer = self._host.schedule(
            self._config.shuffle_period, self._periodic_shuffle
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<HyParView {self._address} active={len(self.active)}/{self.active.capacity} "
            f"passive={len(self.passive)}/{self.passive.capacity}>"
        )
