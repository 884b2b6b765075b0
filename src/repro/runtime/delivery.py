"""The unified delivery surface of the asyncio runtime.

Before this module every consumer of "which node delivered what, when"
rolled its own: :class:`RuntimeNode` kept a ``delivered`` list,
``LocalCluster.wait_for_delivery`` polled those lists on a 50 ms timer, and
each integration test wrote its own deadline loop.  A :class:`DeliveryLog`
replaces all of that with one append-only record list that offers two
read surfaces:

* **counters** — :meth:`count` (distinct nodes that delivered a message)
  and :meth:`records_for`, whose timestamps live latency measurement reads;
* **event-driven waits** — :meth:`wait_count` resolves the moment the
  expected delivery count is reached, no polling.

Appends are synchronous (delivery callbacks run inside the event loop);
waiters are woken by completing their futures.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Optional

from ..common.ids import MessageId, NodeId


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One delivery: a node (at an incarnation) delivered a payload."""

    node: NodeId
    #: Restart count of the delivering process — distinguishes a reborn
    #: node's deliveries from its predecessor's when the address is reused.
    incarnation: int
    message_id: MessageId
    payload: Any
    #: Event-loop time (``loop.time()``) at delivery.
    at: float


class _CountWaiter:
    __slots__ = ("message_id", "expected", "future")

    def __init__(self, message_id: MessageId, expected: int, future: asyncio.Future) -> None:
        self.message_id = message_id
        self.expected = expected
        self.future = future


class DeliveryLog:
    """Append-only log of every delivery across a set of runtime nodes."""

    def __init__(self) -> None:
        self.records: list[DeliveryRecord] = []
        #: message id -> the distinct node identities that delivered it.
        self._nodes_by_message: dict[MessageId, set[NodeId]] = {}
        self._waiters: list[_CountWaiter] = []

    # ------------------------------------------------------------------
    # Write surface (delivery callbacks, inside the event loop)
    # ------------------------------------------------------------------
    def append(self, record: DeliveryRecord) -> None:
        self.records.append(record)
        nodes = self._nodes_by_message.setdefault(record.message_id, set())
        nodes.add(record.node)
        if self._waiters:
            count = len(nodes)
            still_waiting = []
            for waiter in self._waiters:
                if (
                    waiter.message_id == record.message_id
                    and count >= waiter.expected
                    and not waiter.future.done()
                ):
                    waiter.future.set_result(count)
                elif not waiter.future.done():
                    still_waiting.append(waiter)
            self._waiters = still_waiting

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def count(self, message_id: MessageId) -> int:
        """How many distinct nodes delivered ``message_id``."""
        return len(self._nodes_by_message.get(message_id, ()))

    def total(self) -> int:
        """Total deliveries recorded (all nodes, all messages)."""
        return len(self.records)

    def records_for(
        self, node: Optional[NodeId] = None, *, incarnation: Optional[int] = None
    ) -> list[DeliveryRecord]:
        """Records filtered by delivering node and/or incarnation."""
        return [
            record
            for record in self.records
            if (node is None or record.node == node)
            and (incarnation is None or record.incarnation == incarnation)
        ]

    async def wait_count(
        self, message_id: MessageId, expected: int, *, timeout: float = 5.0
    ) -> int:
        """Resolve when ``expected`` distinct nodes delivered ``message_id``.

        Event-driven (no polling): the append path completes the wait the
        moment the threshold is crossed.  On timeout the *current* count is
        returned rather than raising, matching the old polling helper so
        tests can assert on the final number either way.
        """
        count = self.count(message_id)
        if count >= expected:
            return count
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        waiter = _CountWaiter(message_id, expected, future)
        self._waiters.append(waiter)
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            return self.count(message_id)
        finally:
            if waiter in self._waiters:
                self._waiters.remove(waiter)


__all__ = ["DeliveryLog", "DeliveryRecord"]
