"""Local cluster helper: spin up several runtime nodes on loopback TCP.

Used by the integration tests, the service layer and the ``live_network``
example to stand up a real (multi-socket, single-process) overlay
deployment in a few lines.  All nodes share one
:class:`~repro.runtime.delivery.DeliveryLog`, which is the cluster's single
delivery surface: counters and event-driven waits both come from it.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from ..common.errors import ConfigurationError
from ..common.ids import MessageId
from ..core.config import HyParViewConfig
from .delivery import DeliveryLog
from .node import RuntimeNode

#: Longest wait for the wire to go quiet after a join (seconds).
QUIET_TIMEOUT = 1.0


class LocalCluster:
    """Nodes joined into one overlay; :meth:`start` returns once every join's traffic landed."""

    def __init__(
        self,
        size: int,
        *,
        config: Optional[HyParViewConfig] = None,
        protocol: str = "hyparview",
        base_seed: int = 1,
    ) -> None:
        if size < 2:
            raise ConfigurationError(f"cluster needs at least 2 nodes: {size}")
        self._config = config
        self._protocol = protocol
        self._base_seed = base_seed
        self._spawned = size
        self.delivery_log = DeliveryLog()
        #: Observers called with the replacement node after every restart
        #: (the service layer re-attaches its per-node facade here).
        self.restart_listeners: list[Callable[[int, RuntimeNode], None]] = []
        self.nodes = [
            RuntimeNode(
                config=config,
                protocol=protocol,
                seed=base_seed + index,
                delivery_log=self.delivery_log,
            )
            for index in range(size)
        ]

    async def start(self) -> None:
        """Start every node and join them through the first (the paper's
        single-contact procedure), one at a time: each join's traffic lands
        before the next join, and the last one's before this returns."""
        for node in self.nodes:
            await node.start()
        contact = self.nodes[0].node_id
        for node in self.nodes[1:]:
            node.join(contact)
            await self._wait_quiet()

    async def _wait_quiet(self) -> None:
        """Poll until, on two looks in a row, every running transport is idle
        and every frame written was read, or :data:`QUIET_TIMEOUT` passes."""
        loop = asyncio.get_running_loop()
        deadline, quiet = loop.time() + QUIET_TIMEOUT, 0
        while quiet < 2 and loop.time() < deadline:
            await asyncio.sleep(0.001)
            transports = [node.transport for node in self.alive_nodes()]
            balance = sum(t.frames_sent - t.frames_received for t in transports)
            quiet = quiet + 1 if balance == 0 and all(t.idle for t in transports) else 0

    async def stop(self) -> None:
        for node in self.nodes:
            await node.stop()

    # ------------------------------------------------------------------
    # Chaos operations (ChaosController drives these)
    # ------------------------------------------------------------------
    def alive_nodes(self) -> list[RuntimeNode]:
        return [node for node in self.nodes if node.started]

    async def restart_node(
        self, index: int, contact=None, *, reuse_port: bool = False
    ) -> RuntimeNode:
        """Replace a crashed node with a fresh process that re-joins.

        By default the replacement binds a fresh port and gets a fresh
        seed: a restarted process shares nothing with its predecessor but
        the slot in ``self.nodes``.  With ``reuse_port=True`` the new
        incarnation binds the *same* address the crashed process held —
        the stale-identity case, where peers still carrying the old
        NodeId in their views dial a process that has none of the old
        protocol state.  The replacement's incarnation is its
        predecessor's plus one, so the epoch handshake lets those peers
        tell the two processes apart and reject the predecessor's
        leftovers.  (The simulator models this via ``SimNode.reset``;
        this is the live-runtime equivalent.)
        """
        old = self.nodes[index]
        if old.started:
            raise ConfigurationError(f"node {index} is still running")
        if reuse_port and old.node_id is None:
            raise ConfigurationError(f"node {index} never bound a port to reuse")
        self._spawned += 1
        node = RuntimeNode(
            port=old.node_id.port if reuse_port else 0,
            config=self._config,
            protocol=self._protocol,
            seed=self._base_seed + self._spawned,
            incarnation=old.incarnation + 1,
            delivery_log=self.delivery_log,
        )
        await node.start()
        self.nodes[index] = node
        if contact is None:
            alive = [peer for peer in self.alive_nodes() if peer is not node]
            contact = alive[0].node_id if alive else None
        if contact is not None:
            node.join(contact)
        for listener in list(self.restart_listeners):
            listener(index, node)
        return node

    async def wait_for_delivery(
        self, message_id: MessageId, expected: int, *, timeout: float = 5.0
    ) -> int:
        """Resolve once ``expected`` nodes delivered (or timeout); returns
        the final count.  Event-driven via the shared delivery log."""
        return await self.delivery_log.wait_count(message_id, expected, timeout=timeout)

    async def wait_for_views(self, minimum: int = 1, *, timeout: float = 5.0) -> bool:
        """Poll until every node has at least ``minimum`` active peers."""
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            if all(len(node.active_view()) >= minimum for node in self.nodes):
                return True
            await asyncio.sleep(0.05)
        return False
