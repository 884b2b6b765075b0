"""Cyclon membership protocol (Voulgaris, Gavidia & van Steen, 2005).

The paper's primary cyclic baseline (Section 2.2/2.4): each node keeps a
fixed-length partial view of *aged* entries and periodically performs an
enhanced shuffle with the **oldest** peer in its view.  Joins are fixed
length random walks that preserve every node's in-degree.

Parameters follow Section 5.1 of the HyParView paper: view length 35
(= HyParView's active + passive sizes), shuffle length 14, random-walk
time-to-live 5.

Plain Cyclon performs no failure detection during dissemination — its only
self-healing is that a peer that is shuffled *to* and never answers has
already been removed from the initiator's view.  That is exactly the
behaviour the HyParView paper exploits in its failure experiments;
:class:`~repro.protocols.cyclon_acked.CyclonAcked` adds the
acknowledgment-based detection the authors built for comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Collection, Optional

from ..common.errors import ConfigurationError, ProtocolError
from ..common.ids import NodeId
from ..common.interfaces import Host
from ..common.messages import Message, register_message
from ..common.rng import choice_or_none, sample_up_to
from ..core.views import excluding
from .base import PeerSamplingService

#: Wire representation of a view entry: ``(node, age)``.
WireEntry = tuple[NodeId, int]
#: Hop count of join random walks (Section 5.1: 5).
WALK_TTL = 5


@dataclass(frozen=True, slots=True)
class CyclonConfig:
    """Cyclon tuning knobs (defaults: Section 5.1 of the HyParView paper).

    Attributes:
        view_size: Fixed partial-view length (35).
        shuffle_length: Entries exchanged per shuffle (14), including the
            initiator's own fresh entry.
    """

    view_size: int = 35
    shuffle_length: int = 14

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ConfigurationError(f"view size must be >= 1: {self.view_size}")
        if not 1 <= self.shuffle_length <= self.view_size:
            raise ConfigurationError(
                f"shuffle length must be in [1, view size]: {self.shuffle_length}"
            )


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@register_message("cyclon.join")
@dataclass(frozen=True, slots=True)
class CyclonJoin(Message):
    """New node announces itself to an introducer."""

    joiner: NodeId


@register_message("cyclon.join_walk")
@dataclass(frozen=True, slots=True)
class CyclonJoinWalk(Message):
    """Random walk carrying a join; ends by swapping the joiner into the
    endpoint's view and handing the displaced entry to the joiner."""

    joiner: NodeId
    ttl: int
    sender: NodeId


@register_message("cyclon.join_grant")
@dataclass(frozen=True, slots=True)
class CyclonJoinGrant(Message):
    """Walk endpoint gives the joiner an entry for its fresh view.

    ``granted`` is the displaced entry (or the endpoint itself during
    bootstrap when it had no entry to displace)."""

    sender: NodeId
    granted: NodeId
    age: int


@register_message("cyclon.shuffle_request")
@dataclass(frozen=True, slots=True)
class CyclonShuffleRequest(Message):
    """Initiator's half of the enhanced shuffle."""

    sender: NodeId
    entries: tuple[WireEntry, ...]


@register_message("cyclon.shuffle_reply")
@dataclass(frozen=True, slots=True)
class CyclonShuffleReply(Message):
    """Receiver's half of the enhanced shuffle."""

    sender: NodeId
    entries: tuple[WireEntry, ...]


# ----------------------------------------------------------------------
# Aged view container
# ----------------------------------------------------------------------
class AgedView:
    """Fixed-capacity view of ``(node, age)`` entries with O(1) sampling."""

    __slots__ = ("capacity", "_nodes", "_ages")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError(f"view capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._nodes: list[NodeId] = []
        self._ages: dict[NodeId, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._ages

    def __iter__(self):
        return iter(self._nodes)

    @property
    def is_full(self) -> bool:
        return len(self._nodes) >= self.capacity

    def members(self) -> tuple[NodeId, ...]:
        return tuple(self._nodes)

    def entries(self) -> tuple[WireEntry, ...]:
        return tuple((node, self._ages[node]) for node in self._nodes)

    def age_of(self, node: NodeId) -> int:
        try:
            return self._ages[node]
        except KeyError:
            raise ProtocolError(f"node not in view: {node}") from None

    def add(self, node: NodeId, age: int = 0) -> None:
        if node in self._ages:
            raise ProtocolError(f"node already in view: {node}")
        if self.is_full:
            raise ProtocolError(f"view full ({self.capacity}); evict before adding {node}")
        self._ages[node] = age
        self._nodes.append(node)

    def remove(self, node: NodeId) -> int:
        """Remove ``node``; returns the age it had."""
        age = self._ages.pop(node, None)
        if age is None:
            raise ProtocolError(f"node not in view: {node}")
        self._nodes.remove(node)
        return age

    def discard(self, node: NodeId) -> bool:
        if node not in self._ages:
            return False
        self.remove(node)
        return True

    def increment_ages(self) -> None:
        for node in self._nodes:
            self._ages[node] += 1

    def oldest(self) -> Optional[NodeId]:
        if not self._nodes:
            return None
        return max(self._nodes, key=lambda node: (self._ages[node], node))

    def random_member(
        self, rng: random.Random, exclude: Collection[NodeId] = ()
    ) -> Optional[NodeId]:
        return choice_or_none(rng, excluding(self._nodes, self._ages.keys(), exclude))

    def sample_members(
        self, rng: random.Random, k: int, exclude: Collection[NodeId] = ()
    ) -> list[NodeId]:
        return sample_up_to(rng, excluding(self._nodes, self._ages.keys(), exclude), k)

    def sample_entries(
        self, rng: random.Random, k: int, exclude: Collection[NodeId] = ()
    ) -> list[WireEntry]:
        return [(node, self._ages[node]) for node in self.sample_members(rng, k, exclude)]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class Cyclon(PeerSamplingService):
    """One node's Cyclon instance."""

    name = "cyclon"

    def __init__(self, host: Host, config: Optional[CyclonConfig] = None) -> None:
        self._host = host
        self._config = config if config is not None else CyclonConfig()
        self._rng = host.rng
        self.view = AgedView(self._config.view_size)
        # Entries sent in the last shuffle request, for the replacement rule.
        self._last_sent: tuple[WireEntry, ...] = ()
        self.shuffles_initiated = 0
        self.shuffles_answered = 0

    # ------------------------------------------------------------------
    # PeerSamplingService surface
    # ------------------------------------------------------------------
    @property
    def address(self) -> NodeId:
        return self._host.address

    @property
    def config(self) -> CyclonConfig:
        return self._config

    def handlers(self) -> dict[type, Callable[[Message], None]]:
        return {
            CyclonJoin: self.handle_join,
            CyclonJoinWalk: self.handle_join_walk,
            CyclonJoinGrant: self.handle_join_grant,
            CyclonShuffleRequest: self.handle_shuffle_request,
            CyclonShuffleReply: self.handle_shuffle_reply,
        }

    def join(self, contact: NodeId) -> None:
        if contact == self.address:
            raise ProtocolError("a node cannot join through itself")
        self._host.send(contact, CyclonJoin(self.address))

    def gossip_targets(self, fanout: int, exclude: Collection[NodeId] = ()) -> list[NodeId]:
        """``fanout`` members chosen uniformly from the partial view."""
        return self.view.sample_members(self._rng, fanout, exclude)

    def report_failure(self, peer: NodeId) -> None:
        """Plain Cyclon has no dissemination-time failure detection — the
        signal is deliberately ignored (see the module docstring)."""

    def cycle(self) -> None:
        """One shuffle round: age entries, swap with the oldest peer."""
        self.shuffle_once()

    def out_neighbors(self) -> tuple[NodeId, ...]:
        return self.view.members()

    # ------------------------------------------------------------------
    # Join: in-degree-preserving random walks
    # ------------------------------------------------------------------
    def handle_join(self, message: CyclonJoin) -> None:
        joiner = message.joiner
        if joiner == self.address:
            return
        if len(self.view) == 0:
            # Bootstrap: the introducer is the only node the joiner can
            # link to.  Add it directly and grant ourselves back.
            if not self.view.is_full and joiner not in self.view:
                self.view.add(joiner, 0)
            self._host.send(joiner, CyclonJoinGrant(self.address, self.address, 0))
            return
        # One walk per view slot, so the joiner's view fills to its size;
        # first hops are drawn with replacement so a sparsely connected
        # introducer still launches a full set.
        walk = CyclonJoinWalk(joiner, WALK_TTL, self.address)
        for _ in range(self._config.view_size):
            target = self.view.random_member(self._rng, exclude=(joiner,))
            if target is None:
                break
            self._host.send(target, walk)

    def handle_join_walk(self, message: CyclonJoinWalk) -> None:
        joiner = message.joiner
        if joiner == self.address:
            return
        if message.ttl > 0:
            target = self.view.random_member(self._rng, exclude=(joiner, message.sender))
            if target is not None:
                self._host.send(target, CyclonJoinWalk(joiner, message.ttl - 1, self.address))
                return
        # Walk ends here.  Steady state (full view): swap the joiner in and
        # hand the displaced entry to the joiner — the in-degree-preserving
        # rule of the Cyclon paper.  While this node's view still has free
        # slots (bootstrap), add the joiner without displacing and grant a
        # *copy* instead, so the young overlay gains edges rather than
        # endlessly redistributing the few it has.
        if joiner in self.view:
            granted = self.view.random_member(self._rng, exclude=(joiner,))
            if granted is not None:
                self._host.send(
                    joiner, CyclonJoinGrant(self.address, granted, self.view.age_of(granted))
                )
            return
        if not self.view.is_full:
            self.view.add(joiner, 0)
            granted = self.view.random_member(self._rng, exclude=(joiner,))
            if granted is None:
                granted = self.address
                age = 0
            else:
                age = self.view.age_of(granted)
            self._host.send(joiner, CyclonJoinGrant(self.address, granted, age))
            return
        displaced = self.view.random_member(self._rng)
        age = self.view.remove(displaced)
        self.view.add(joiner, 0)
        self._host.send(joiner, CyclonJoinGrant(self.address, displaced, age))

    def handle_join_grant(self, message: CyclonJoinGrant) -> None:
        granted = message.granted
        if granted == self.address or granted in self.view:
            return
        if self.view.is_full:
            return  # view already filled by earlier grants
        self.view.add(granted, message.age)

    # ------------------------------------------------------------------
    # Enhanced shuffle
    # ------------------------------------------------------------------
    def shuffle_once(self) -> None:
        self.view.increment_ages()
        oldest = self.view.oldest()
        if oldest is None:
            return
        # Remove the target up front: if it is dead and never answers, the
        # stale entry is gone — Cyclon's only healing mechanism.
        self.view.remove(oldest)
        sample = self.view.sample_entries(self._rng, self._config.shuffle_length - 1)
        to_send = tuple([(self.address, 0)] + sample)
        self._last_sent = to_send
        self.shuffles_initiated += 1
        self._host.send(oldest, CyclonShuffleRequest(self.address, to_send))

    def handle_shuffle_request(self, message: CyclonShuffleRequest) -> None:
        self.shuffles_answered += 1
        reply_sample = tuple(self.view.sample_entries(self._rng, self._config.shuffle_length))
        self._host.send(message.sender, CyclonShuffleReply(self.address, reply_sample))
        self._integrate(message.entries, sent=reply_sample)

    def handle_shuffle_reply(self, message: CyclonShuffleReply) -> None:
        self._integrate(message.entries, sent=self._last_sent)

    def _integrate(self, received: tuple[WireEntry, ...], sent: tuple[WireEntry, ...]) -> None:
        """Cyclon's merge rule: discard self and duplicates, fill empty
        slots first, then replace entries that were sent to the peer."""
        replaceable = [node for node, _age in sent if node != self.address]
        for node, age in received:
            if node == self.address or node in self.view:
                continue
            if self.view.is_full:
                victim = None
                while replaceable:
                    candidate = replaceable.pop()
                    if candidate in self.view:
                        victim = candidate
                        break
                if victim is None:
                    victim = self.view.random_member(self._rng)
                    if victim is None:  # pragma: no cover - full implies non-empty
                        return
                self.view.remove(victim)
            self.view.add(node, age)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Cyclon {self.address} view={len(self.view)}/{self.view.capacity}>"
