"""Simulated node: protocol container and message dispatcher.

A :class:`SimNode` is the equivalent of a PeerSim node with protocol slots.
Protocol instances register handlers for the message types they own; the
network delivers each incoming message to exactly one handler, dispatched by
message class.

Randomness: the node's own stream and every per-protocol stream handed out
by :meth:`SimNode.host` are :class:`~repro.common.rng.StreamRandom`
instances, so a frozen scenario stores each node's randomness as a
``(seed, words_consumed)`` pair (~60 bytes) instead of the full ~2.5 KB
Mersenne-Twister state — the dominant term of snapshot blobs at paper
scale before the compact encoding.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Type

from ..common.errors import SimulationError
from ..common.ids import NodeId
from ..common.interfaces import Host
from ..common.messages import Message
from .clock import SimClock
from .network import Network
from .transport import SimTransport

MessageHandler = Callable[[Message], None]


class SimNode:
    """One simulated process: identity, clock, transport, protocol stack."""

    __slots__ = ("node_id", "network", "clock", "transport", "rng", "_handlers", "_protocols", "unhandled", "generation")

    def __init__(self, node_id: NodeId, network: Network, *, rng: Optional[random.Random] = None) -> None:
        self.node_id = node_id
        self.network = network
        self.clock = SimClock(network, node_id)
        self.transport = SimTransport(network, node_id)
        self.rng = rng if rng is not None else network.seeds.node_stream(node_id)
        self._handlers: dict[Type[Message], MessageHandler] = {}
        self._protocols: dict[str, Any] = {}
        self.unhandled = 0
        self.generation = 0
        network.register(self)

    @property
    def alive(self) -> bool:
        return self.network.is_alive(self.node_id)

    def host(self, purpose: str = "protocol") -> Host:
        """Build the sans-io environment bundle for a protocol instance.

        Each protocol gets its own named RNG stream so adding a protocol to
        the stack never perturbs the random choices of the others; the
        stream label includes the node's incarnation (:attr:`generation`)
        so a revived process does not replay its predecessor's randomness.
        """
        label = purpose if self.generation == 0 else f"{purpose}@{self.generation}"
        return Host(
            address=self.node_id,
            clock=self.clock,
            transport=self.transport,
            rng=self.network.seeds.node_stream(self.node_id, label),
            incarnation=self.generation,
        )

    def reset(self) -> None:
        """Discard the protocol stack (a crashed process restarting fresh).

        Handlers and protocol slots are cleared, the send entry points are
        rebound (a Byzantine predecessor's corruption dies with it) and the
        incarnation counter advances; the caller wires a new stack and
        re-joins the overlay.
        """
        self._handlers.clear()
        self._protocols.clear()
        self.transport.bind_honest_sends()
        self.generation += 1

    # ------------------------------------------------------------------
    # Protocol stack
    # ------------------------------------------------------------------
    def attach(self, name: str, protocol: Any) -> Any:
        """Store a protocol instance under a stack-slot name (e.g.
        ``"membership"``, ``"gossip"``) for later retrieval."""
        if name in self._protocols:
            raise SimulationError(f"protocol slot already in use on {self.node_id}: {name!r}")
        self._protocols[name] = protocol
        return protocol

    def wire(self, name: str, protocol: Any) -> Any:
        """Attach a protocol and register all its message handlers.

        The protocol must expose ``handlers() -> dict[type, handler]``,
        which every protocol in this library does.
        """
        self.attach(name, protocol)
        for message_type, handler in protocol.handlers().items():
            self.register_handler(message_type, handler)
        return protocol

    def protocol(self, name: str) -> Any:
        try:
            return self._protocols[name]
        except KeyError:
            raise SimulationError(f"no protocol {name!r} on node {self.node_id}") from None

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def register_handler(self, message_type: Type[Message], handler: MessageHandler) -> None:
        """Route messages of exactly ``message_type`` to ``handler``."""
        if message_type in self._handlers:
            raise SimulationError(
                f"handler already registered for {message_type.__name__} on {self.node_id}"
            )
        self._handlers[message_type] = handler

    def deliver(self, message: Message) -> None:
        """Dispatch one incoming message to its handler (node is alive).

        The network's own deliveries go through the handler table directly
        (it shares ``_handlers``) and land here only for an unhandled type.
        """
        handler = self._handlers.get(type(message))
        if handler is None:
            # A message for a protocol this node does not run (e.g. late
            # traffic after reconfiguration).  Counted, not fatal.
            self.unhandled += 1
            return
        handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "up" if self.alive else "down"
        return f"<SimNode {self.node_id} {status} protocols={sorted(self._protocols)}>"
