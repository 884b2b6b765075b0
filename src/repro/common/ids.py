"""Node and message identifiers shared by every protocol in the library.

The paper (Section 2.1) models a node identifier as a ``(ip, port)`` tuple
that allows the node to be reached.  :class:`NodeId` follows that model
exactly; it is hashable, ordered and cheap to copy, so it can be stored in
views, sets and priority queues without ceremony.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, NamedTuple


class NodeId(NamedTuple):
    """A reachable node identity: ``(host, port)``.

    In simulations the host is synthetic (``"node-17"``); in the asyncio
    runtime it is a real address (``"127.0.0.1"``).  Equality and hashing
    are structural, so the same identity built twice compares equal.

    Every layer keys dicts and sets on identifiers (ten lookups per
    simulated message, a dozen per shuffled entry), so the identifier *is*
    a tuple: hashing, equality, ordering and pickling run in C, and nothing
    process-specific (string hashes differ per process) is ever stored.
    The price is that an identifier is also a sequence — code that walks
    arbitrary values must test for identifiers before tuples.
    """

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.host}:{self.port}"

    def to_wire(self) -> list:
        """Serialise to a JSON-compatible list (used by the runtime codec)."""
        return [self.host, self.port]

    @classmethod
    def from_wire(cls, payload: list) -> "NodeId":
        """Inverse of :meth:`to_wire`."""
        host, port = payload
        return cls(str(host), int(port))


class MessageId(NamedTuple):
    """Globally unique broadcast identifier: origin plus per-origin sequence.

    Gossip deduplication (Section 2.5 of the paper: a node forwards a message
    only the first time it receives it) keys on this identifier; like
    :class:`NodeId` it is a tuple, hashed and compared in C.
    """

    origin: NodeId
    sequence: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.origin}#{self.sequence}"

    def to_wire(self) -> list:
        return [self.origin.to_wire(), self.sequence]

    @classmethod
    def from_wire(cls, payload: list) -> "MessageId":
        origin, sequence = payload
        return cls(NodeId.from_wire(origin), int(sequence))


def simulated_node_ids(n: int, base_port: int = 10000) -> list[NodeId]:
    """Build ``n`` distinct synthetic identities for a simulated network."""
    if n < 0:
        raise ValueError(f"cannot create a negative number of node ids: {n}")
    return [NodeId(f"node-{i}", base_port + i) for i in range(n)]


class SequenceGenerator:
    """Per-origin monotonically increasing sequence numbers.

    Each broadcaster owns one generator so that :class:`MessageId` values it
    mints never collide, even across simulation restarts with the same seed.
    """

    def __init__(self, origin: NodeId, start: int = 0) -> None:
        self._origin = origin
        self._counter: Iterator[int] = count(start)

    @property
    def origin(self) -> NodeId:
        return self._origin

    def next_id(self) -> MessageId:
        """Mint the next unique :class:`MessageId` for this origin."""
        return MessageId(self._origin, next(self._counter))
