"""Bounded partial-view containers.

Both HyParView views are sets of node identifiers with a fixed capacity
(Section 4.1).  :class:`BoundedView` provides O(1) membership tests together
with O(1) uniform random sampling, which the protocol performs on every
gossip step, shuffle and promotion.

The container enforces the *local* invariants (no duplicates, no overflow);
the protocol layer owns the *cross-view* invariants (never contains the node
itself, active ∩ passive = ∅) because maintaining them requires sending
messages (DISCONNECT notifications, etc.).
"""

from __future__ import annotations

import random
from typing import AbstractSet, Collection, Iterable, Iterator, Optional

from ..common.errors import ProtocolError
from ..common.ids import NodeId
from ..common.rng import sample_up_to


def excluding(
    members: list[NodeId], known: AbstractSet[NodeId], exclude: Collection[NodeId]
) -> list[NodeId]:
    """``members`` without those in ``exclude``, order kept; ``known`` is
    ``members`` as a set or key view.  Exclusions are tiny (a walk's sender
    and origin, the joiner) and often name nobody present: then ``members``
    itself comes back, unallocated, to be read and not reordered."""
    if exclude and not known.isdisjoint(exclude):
        return [node for node in members if node not in exclude]
    return members


class BoundedView:
    """A fixed-capacity set of node identifiers with random sampling.

    Implementation: a list for O(1) random indexing plus a dict mapping
    identifier to its list position for O(1) membership and removal
    (swap-with-last deletion).
    """

    __slots__ = ("capacity", "_items", "_index")

    def __init__(self, capacity: int, members: Iterable[NodeId] = ()) -> None:
        if capacity < 1:
            raise ProtocolError(f"view capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._items: list[NodeId] = []
        self._index: dict[NodeId, int] = {}
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<BoundedView {len(self)}/{self.capacity} {sorted(str(n) for n in self._items)}>"

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    def members(self) -> tuple[NodeId, ...]:
        """Immutable snapshot of the current membership."""
        return tuple(self._items)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, node: NodeId) -> None:
        """Insert ``node``.

        Raises :class:`ProtocolError` on duplicates or overflow — the
        protocol must make room first (that is where eviction notifications
        are generated), so silent eviction here would hide bugs.
        """
        index, items = self._index, self._items
        if node in index:
            raise ProtocolError(f"node already in view: {node}")
        if len(items) >= self.capacity:
            raise ProtocolError(f"view full ({self.capacity}); evict before adding {node}")
        index[node] = len(items)
        items.append(node)

    def remove(self, node: NodeId) -> None:
        """Remove ``node``; raises :class:`ProtocolError` if absent."""
        position = self._index.pop(node, None)
        if position is None:
            raise ProtocolError(f"node not in view: {node}")
        last = self._items.pop()
        if last != node:
            self._items[position] = last
            self._index[last] = position

    def discard(self, node: NodeId) -> bool:
        """Remove ``node`` if present; returns whether it was present."""
        if node not in self._index:
            return False
        self.remove(node)
        return True

    # ------------------------------------------------------------------
    # Random selection
    # ------------------------------------------------------------------
    def random_member(
        self,
        rng: random.Random,
        exclude: Collection[NodeId] = (),
    ) -> Optional[NodeId]:
        """Uniform random member not in ``exclude``; ``None`` (and no draw)
        if none exists.

        O(1) unless an excluded identifier is actually a member: only then
        is a candidate list built, over a view that is small.
        """
        items = self._items
        if exclude:
            items = excluding(items, self._index.keys(), exclude)
        if not items:
            return None
        return rng.choice(items)

    def sample(
        self, rng: random.Random, k: int, exclude: Collection[NodeId] = ()
    ) -> list[NodeId]:
        """Up to ``k`` distinct random members not in ``exclude``."""
        return sample_up_to(rng, excluding(self._items, self._index.keys(), exclude), k)
