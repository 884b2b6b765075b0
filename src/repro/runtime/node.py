"""A runtime node: the simulator's protocol stack over real TCP sockets.

This is the paper's future-work deliverable (Section 6: "an implementation
of HyParView will be tested in the PlanetLab platform") realised with the
*same* protocol classes the simulator runs — only the :class:`Transport`
and :class:`Clock` differ.  Stacks are built through the declarative
registry (:mod:`repro.protocols.registry`), the same construction path the
simulator's ``Scenario`` uses, so sim and live can never drift.

A node carries an **incarnation** number (its restart count).  It feeds
two places: the transport's wire-handshake epoch, so peers can tell a
restarted process from its predecessor when the address is reused, and
``Host.incarnation``, so the broadcast layer's message-id sequence range
never collides with the predecessor's.  Deliveries land in a
:class:`~repro.runtime.delivery.DeliveryLog` (shared across a cluster)
tagged with the node's identity and incarnation.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..common.errors import ConfigurationError
from ..common.ids import MessageId, NodeId
from ..common.interfaces import Host
from ..common.messages import Message
from ..core.config import HyParViewConfig
from ..protocols.registry import get_stack, runtime_stack_names
from .clock import AsyncioClock
from .delivery import DeliveryLog, DeliveryRecord
from .transport import AsyncioTransport

#: Application delivery callback: (message id, payload).
DeliverCallback = Callable[[MessageId, Any], None]

#: Default HyParView tuning for real networks: unlike the simulator's
#: reliable transport, a real peer can accept a connection and then never
#: answer, so NEIGHBOR requests need a timeout.
RUNTIME_CONFIG = HyParViewConfig(neighbor_request_timeout=2.0, shuffle_period=5.0)

@dataclass(frozen=True, slots=True)
class _RuntimeParams:
    """The parameter surface registry factories read, for live stacks.

    Duck-typed against ``ExperimentParams`` — only the field the
    runtime-capable stacks consume.
    """

    hyparview: HyParViewConfig


class RuntimeNode:
    """One overlay process listening on a TCP address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[HyParViewConfig] = None,
        protocol: str = "hyparview",
        seed: Optional[int] = None,
        incarnation: int = 0,
        delivery_log: Optional[DeliveryLog] = None,
    ) -> None:
        if protocol not in runtime_stack_names():
            raise ConfigurationError(
                f"protocol {protocol!r} is not runtime-capable; "
                f"expected one of {runtime_stack_names()}"
            )
        if incarnation < 0:
            raise ConfigurationError(f"incarnation must be >= 0: {incarnation}")
        self._requested_host = host
        self._requested_port = port
        self._config = config if config is not None else RUNTIME_CONFIG
        self.protocol = protocol
        self._params = _RuntimeParams(hyparview=self._config)
        self._external_deliver: Optional[DeliverCallback] = None
        self._seed = seed
        self.incarnation = incarnation
        self.delivery_log = delivery_log if delivery_log is not None else DeliveryLog()
        self.unhandled = 0
        self._handlers: dict[type, Callable[[Message], None]] = {}
        self._started = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Set in start():
        self.started_at: Optional[float] = None
        self.node_id: Optional[NodeId] = None
        self.transport: Optional[AsyncioTransport] = None
        self.membership = None
        self.broadcast_layer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> NodeId:
        """Bind the listening socket and wire the protocol stack.

        Returns the node's identity (with the real port when 0 was asked).
        """
        if self._started:
            raise ConfigurationError("node already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.started_at = loop.time()
        # Bind first so the advertised identity carries the real port.
        bootstrap = NodeId(self._requested_host, self._requested_port)
        self.transport = AsyncioTransport(
            bootstrap, self._dispatch, loop=loop, epoch=self.incarnation
        )
        await self.transport.start_server()
        sockname = self.transport._server.sockets[0].getsockname()
        self.node_id = NodeId(self._requested_host, sockname[1])
        self.transport._local = self.node_id
        clock = AsyncioClock(loop)
        rng = random.Random(self._seed if self._seed is not None else hash(self.node_id))
        host = Host(
            address=self.node_id,
            clock=clock,
            transport=self.transport,
            rng=rng,
            incarnation=self.incarnation,
        )
        gossip_host = Host(
            address=self.node_id,
            clock=clock,
            transport=self.transport,
            rng=random.Random((self._seed or 0) + 1),
            incarnation=self.incarnation,
        )
        spec = get_stack(self.protocol)
        self.membership, self.broadcast_layer = spec.build(
            host, gossip_host, self._params, on_deliver=self._on_deliver
        )
        for message_type, handler in self.membership.handlers().items():
            self._handlers[message_type] = handler
        for message_type, handler in self.broadcast_layer.handlers().items():
            self._handlers[message_type] = handler
        # A gossip copy of an id already delivered is dispatched unread.
        self.transport.delivered = self.broadcast_layer.has_delivered
        self._started = True
        return self.node_id

    async def stop(self) -> None:
        """Leave the overlay gracefully and close all sockets."""
        if not self._started:
            return
        self._started = False
        self.membership.stop()
        leave = getattr(self.membership, "leave", None)
        if callable(leave):
            leave()
        await asyncio.sleep(0)  # let DISCONNECT frames get queued
        await self.transport.close()

    async def crash(self) -> None:
        """Close sockets abruptly *without* notifying anyone — peers must
        find out through connection resets (the failure-detection path)."""
        if not self._started:
            return
        self._started = False
        self.membership.stop()
        await self.transport.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def delivered(self) -> list[tuple[MessageId, Any]]:
        """This incarnation's deliveries as ``(message_id, payload)`` pairs.

        A view over the shared :attr:`delivery_log`, scoped to this node's
        identity *and* incarnation — a reborn process starts with an empty
        history even when it reuses its predecessor's address.
        """
        if self.node_id is None:
            return []
        return [
            (record.message_id, record.payload)
            for record in self.delivery_log.records_for(
                self.node_id, incarnation=self.incarnation
            )
        ]

    def join(self, contact: NodeId) -> None:
        self._require_started()
        self.membership.join(contact)

    def start_cycles(self) -> None:
        """Begin self-scheduled periodic shuffles."""
        self._require_started()
        self.membership.start()

    def broadcast(self, payload: Any = None) -> MessageId:
        self._require_started()
        return self.broadcast_layer.broadcast(payload)

    def active_view(self) -> tuple[NodeId, ...]:
        self._require_started()
        return self.membership.active_members()

    def passive_view(self) -> tuple[NodeId, ...]:
        self._require_started()
        return self.membership.passive_members()

    def set_deliver_callback(self, callback: Optional[DeliverCallback]) -> None:
        """Install (or clear) the application delivery callback.

        The service layer attaches its fan-out here; deliveries continue to
        land in :attr:`delivery_log` regardless.
        """
        self._external_deliver = callback

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self, peer: NodeId, message: Message) -> None:
        handler = self._handlers.get(type(message))
        if handler is None:
            self.unhandled += 1
            return
        handler(message)

    def _on_deliver(self, message_id: MessageId, payload: Any) -> None:
        self.delivery_log.append(
            DeliveryRecord(
                node=self.node_id,
                incarnation=self.incarnation,
                message_id=message_id,
                payload=payload,
                at=self._loop.time(),
            )
        )
        if self._external_deliver is not None:
            self._external_deliver(message_id, payload)

    def _require_started(self) -> None:
        if not self._started:
            raise ConfigurationError("node not started; call await node.start() first")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "started" if self._started else "stopped"
        return f"<RuntimeNode {self.node_id} inc={self.incarnation} {state}>"
