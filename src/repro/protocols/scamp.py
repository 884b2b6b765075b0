"""SCAMP — Scalable Membership Protocol (Ganesh, Kermarrec & Massoulié).

The paper's reactive baseline (Sections 2.2/2.4).  Nodes keep two views:

* **PartialView** — gossip targets; *unbounded*, its size self-organises
  around ``(c + 1) * log(n)`` without any node knowing ``n``;
* **InView** — nodes that gossip to us (i.e. nodes whose PartialView
  contains us).

Joining is a *subscription*: the contact forwards the subscriber's id to
every PartialView member plus ``c`` extra copies; each recipient keeps the
subscription with probability ``1 / (1 + |PartialView|)`` and otherwise
forwards it to a random neighbour.  SCAMP has two periodic repair
mechanisms — a *lease* after which a node re-subscribes, and *heartbeats*
that let an isolated node (empty InView) detect it has been forgotten and
rejoin.  The HyParView paper configures the lease long enough that it never
fires during its failure experiments, which is part of why Scamp heals so
slowly there; this implementation therefore keeps only the heartbeats.

Parameters follow Section 5.1: ``c = 4``, which yields PartialViews
distributed around ~34 entries at n = 10 000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional

from ..common.errors import ConfigurationError
from ..common.ids import NodeId
from ..common.interfaces import Host
from ..common.messages import Message, register_message
from ..common.rng import choice_or_none, sample_up_to
from ..core.views import excluding
from .base import PeerSamplingService

#: Fault-tolerance/indirection parameter — extra subscription copies the
#: contact creates (Section 5.1: 4).
C = 4
#: Safety cap on probabilistic subscription forwarding.  The random
#: forwarding terminates with probability one; the cap bounds the tail.
#: On exhaustion the current node integrates the subscription instead of
#: dropping it.
MAX_FORWARD_HOPS = 64
#: Cycles without receiving any heartbeat after which a node assumes
#: isolation and re-subscribes.  Heartbeats are sent once per
#: :meth:`Scamp.cycle`, matching the paper's cycle-driven runs.
ISOLATION_CYCLES = 10


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@register_message("scamp.subscribe")
@dataclass(frozen=True, slots=True)
class ScampSubscribe(Message):
    """Subscription request sent to a contact node."""

    subscriber: NodeId


@register_message("scamp.forwarded_subscription")
@dataclass(frozen=True, slots=True)
class ScampForwardedSubscription(Message):
    """A subscription copy travelling through the overlay."""

    subscriber: NodeId
    hops: int


@register_message("scamp.subscription_kept")
@dataclass(frozen=True, slots=True)
class ScampSubscriptionKept(Message):
    """Tells the subscriber that ``keeper`` added it to its PartialView,
    so the subscriber can record the keeper in its InView."""

    keeper: NodeId


@register_message("scamp.heartbeat")
@dataclass(frozen=True, slots=True)
class ScampHeartbeat(Message):
    """Periodic liveness signal sent to PartialView members."""

    sender: NodeId


@register_message("scamp.unsubscribe")
@dataclass(frozen=True, slots=True)
class ScampUnsubscribe(Message):
    """Graceful leave: asks an InView member to replace the leaver's entry
    with ``replacement`` (or just drop it when ``replacement`` is None)."""

    leaver: NodeId
    replacement: Optional[NodeId]


class Scamp(PeerSamplingService):
    """One node's SCAMP instance."""

    name = "scamp"

    def __init__(self, host: Host) -> None:
        self._host = host
        self._rng = host.rng
        self.partial_view: list[NodeId] = []
        self._partial_set: set[NodeId] = set()
        self.in_view: set[NodeId] = set()
        self._cycles_since_heartbeat = 0
        self._joined = False
        self.subscriptions_kept = 0
        self.resubscriptions = 0

    # ------------------------------------------------------------------
    # PeerSamplingService surface
    # ------------------------------------------------------------------
    @property
    def address(self) -> NodeId:
        return self._host.address

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        return {
            ScampSubscribe: self.handle_subscribe,
            ScampForwardedSubscription: self.handle_forwarded_subscription,
            ScampSubscriptionKept: self.handle_subscription_kept,
            ScampHeartbeat: self.handle_heartbeat,
            ScampUnsubscribe: self.handle_unsubscribe,
        }

    def join(self, contact: NodeId) -> None:
        """Subscribe through ``contact``; the new node's PartialView starts
        as just the contact (per the SCAMP paper)."""
        if contact == self.address:
            raise ConfigurationError("a node cannot join through itself")
        self._joined = True
        self._cycles_since_heartbeat = 0
        self._add_partial(contact)
        self._host.send(contact, ScampSubscribe(self.address))

    def leave(self) -> None:
        """Graceful unsubscription (SCAMP Section 3.2-style).

        InView members are told to replace our entry with members of our
        PartialView, round-robin; ``c + 1`` of them simply drop the entry,
        which keeps view sizes tracking the shrinking system.
        """
        in_members = sorted(self.in_view)
        replacements = list(self.partial_view)
        keep_unreplaced = min(C + 1, len(in_members))
        for index, member in enumerate(in_members):
            if index < keep_unreplaced or not replacements:
                replacement = None
            else:
                replacement = replacements[(index - keep_unreplaced) % len(replacements)]
            self._host.send(member, ScampUnsubscribe(self.address, replacement))
        self.partial_view.clear()
        self._partial_set.clear()
        self.in_view.clear()
        self._joined = False

    def gossip_targets(self, fanout: int, exclude: Collection[NodeId] = ()) -> list[NodeId]:
        candidates = excluding(self.partial_view, self._partial_set, exclude)
        return sample_up_to(self._rng, candidates, fanout)

    def report_failure(self, peer: NodeId) -> None:
        """Expunge a peer detected as failed (only exercised when Scamp is
        paired with an acknowledged gossip layer; the paper's baseline is
        not, so plain runs never call this)."""
        self._remove_partial(peer)
        self.in_view.discard(peer)

    def cycle(self) -> None:
        """Heartbeats and isolation detection."""
        for member in self.partial_view:
            self._host.send(member, ScampHeartbeat(self.address))
        self._cycles_since_heartbeat += 1
        if self._joined and self._cycles_since_heartbeat > ISOLATION_CYCLES:
            # Nobody gossips to us any more: we were forgotten.  Rejoin.
            self._resubscribe()

    def out_neighbors(self) -> tuple[NodeId, ...]:
        return tuple(self.partial_view)

    # ------------------------------------------------------------------
    # Subscription machinery
    # ------------------------------------------------------------------
    def handle_subscribe(self, message: ScampSubscribe) -> None:
        subscriber = message.subscriber
        if subscriber == self.address:
            return
        if not self.partial_view:
            # Bootstrap: the very first subscription lands on a node with
            # an empty PartialView; keep it directly.
            self._keep_subscription(subscriber)
            return
        forwarded = ScampForwardedSubscription(subscriber, 0)
        for member in list(self.partial_view):
            self._host.send(member, forwarded)
        for _ in range(C):
            target = self._random_partial()
            if target is not None:
                self._host.send(target, forwarded)

    def handle_forwarded_subscription(self, message: ScampForwardedSubscription) -> None:
        subscriber = message.subscriber
        keepable = subscriber != self.address and subscriber not in self._partial_set
        if keepable:
            probability = 1.0 / (1.0 + len(self.partial_view))
            if self._rng.random() < probability:
                self._keep_subscription(subscriber)
                return
        if message.hops + 1 >= MAX_FORWARD_HOPS:
            # Forwarding cap reached: integrate rather than lose the
            # subscription (keeps the overlay connected).
            if keepable:
                self._keep_subscription(subscriber)
            return
        target = self._random_partial(exclude=(subscriber,))
        if target is None:
            if keepable:
                self._keep_subscription(subscriber)
            return
        self._host.send(target, ScampForwardedSubscription(subscriber, message.hops + 1))

    def handle_subscription_kept(self, message: ScampSubscriptionKept) -> None:
        if message.keeper != self.address:
            self.in_view.add(message.keeper)

    def handle_heartbeat(self, message: ScampHeartbeat) -> None:
        self._cycles_since_heartbeat = 0
        self.in_view.add(message.sender)

    def handle_unsubscribe(self, message: ScampUnsubscribe) -> None:
        self._remove_partial(message.leaver)
        self.in_view.discard(message.leaver)
        replacement = message.replacement
        if replacement is not None and replacement != self.address:
            self._add_partial(replacement)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _keep_subscription(self, subscriber: NodeId) -> None:
        self._add_partial(subscriber)
        self.subscriptions_kept += 1
        self._host.send(subscriber, ScampSubscriptionKept(self.address))

    def _resubscribe(self) -> None:
        contact = self._random_partial()
        self._cycles_since_heartbeat = 0
        if contact is None:
            return  # fully isolated with an empty view: nothing we can do
        self.resubscriptions += 1
        self._host.send(contact, ScampSubscribe(self.address))

    def _add_partial(self, node: NodeId) -> bool:
        if node == self.address or node in self._partial_set:
            return False
        self._partial_set.add(node)
        self.partial_view.append(node)
        return True

    def _remove_partial(self, node: NodeId) -> bool:
        if node not in self._partial_set:
            return False
        self._partial_set.remove(node)
        self.partial_view.remove(node)
        return True

    def _random_partial(self, exclude: Collection[NodeId] = ()) -> Optional[NodeId]:
        candidates = excluding(self.partial_view, self._partial_set, exclude)
        return choice_or_none(self._rng, candidates)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Scamp {self.address} partial={len(self.partial_view)} in={len(self.in_view)}>"
        )
