"""Broadcast delivery tracking.

Every gossip layer reports broadcasts, deliveries, duplicates and
transmissions to a shared :class:`BroadcastTracker`.  The tracker is the
measurement substrate for the paper's evaluation:

* **reliability** (Section 2.5) — "the percentage of active nodes that
  deliver a gossip broadcast";
* **hops to delivery** (Table 1) — the per-message maximum hop count;
* **redundancy** (Section 3.1) — duplicate receptions.

Records are heavyweight while live (a dict of every delivery); experiments
call :meth:`BroadcastTracker.finalize` after measuring each message to
collapse the record into a compact :class:`BroadcastSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from ..common.errors import ProtocolError
from ..common.ids import MessageId, NodeId


@dataclass(slots=True)
class DeliveryRecord:
    """Live bookkeeping for one broadcast."""

    message_id: MessageId
    origin: NodeId
    sent_at: float
    #: node -> (delivery time, hop count)
    deliveries: dict[NodeId, tuple[float, int]]
    redundant: int = 0
    transmissions: int = 0

    @property
    def max_hops(self) -> int:
        if not self.deliveries:
            return 0
        return max(hops for _time, hops in self.deliveries.values())

    def reliability(self, population: AbstractSet[NodeId]) -> float:
        """Fraction of ``population`` (the correct nodes) that delivered."""
        if not population:
            return 0.0
        delivered = sum(1 for node in self.deliveries if node in population)
        return delivered / len(population)


@dataclass(frozen=True, slots=True)
class BroadcastSummary:
    """Compact per-broadcast result kept after finalisation."""

    message_id: MessageId
    origin: NodeId
    sent_at: float
    population_size: int
    delivered: int
    reliability: float
    max_hops: int
    last_delivery_at: float
    redundant: int
    transmissions: int


class BroadcastTracker:
    """Shared sink for gossip-layer measurement events."""

    def __init__(self) -> None:
        self._records: dict[MessageId, DeliveryRecord] = {}
        self._summaries: dict[MessageId, BroadcastSummary] = {}

    # ------------------------------------------------------------------
    # Event sinks (called by gossip layers)
    # ------------------------------------------------------------------
    def on_broadcast(self, message_id: MessageId, origin: NodeId, now: float) -> None:
        if message_id in self._records or message_id in self._summaries:
            raise ProtocolError(f"duplicate broadcast id: {message_id}")
        self._records[message_id] = DeliveryRecord(message_id, origin, now, {})

    def on_deliver(self, message_id: MessageId, node: NodeId, now: float, hops: int) -> None:
        record = self._records.get(message_id)
        if record is None:
            return  # late delivery of an already finalised message
        if node in record.deliveries:
            record.redundant += 1
            return
        record.deliveries[node] = (now, hops)

    def on_redundant(self, message_id: MessageId, node: NodeId) -> None:
        record = self._records.get(message_id)
        if record is not None:
            record.redundant += 1

    def on_transmit(self, message_id: MessageId, copies: int = 1) -> None:
        record = self._records.get(message_id)
        if record is not None:
            record.transmissions += copies

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record(self, message_id: MessageId) -> DeliveryRecord:
        try:
            return self._records[message_id]
        except KeyError:
            raise ProtocolError(f"unknown or finalised message: {message_id}") from None

    def summary(self, message_id: MessageId) -> BroadcastSummary:
        try:
            return self._summaries[message_id]
        except KeyError:
            raise ProtocolError(f"message not finalised: {message_id}") from None

    def summaries(self) -> tuple[BroadcastSummary, ...]:
        return tuple(self._summaries.values())

    def finalize(
        self,
        message_id: MessageId,
        population: AbstractSet[NodeId],
    ) -> BroadcastSummary:
        """Collapse the live record into a :class:`BroadcastSummary`.

        ``population`` is the set of correct nodes at send time; reliability
        is measured against it (Section 2.5).
        """
        record = self._records.pop(message_id, None)
        if record is None:
            raise ProtocolError(f"unknown or already finalised message: {message_id}")
        delivered_in_population = sum(1 for node in record.deliveries if node in population)
        last_delivery = max(
            (time for time, _hops in record.deliveries.values()), default=record.sent_at
        )
        summary = BroadcastSummary(
            message_id=record.message_id,
            origin=record.origin,
            sent_at=record.sent_at,
            population_size=len(population),
            delivered=delivered_in_population,
            reliability=(delivered_in_population / len(population)) if population else 0.0,
            max_hops=record.max_hops,
            last_delivery_at=last_delivery,
            redundant=record.redundant,
            transmissions=record.transmissions,
        )
        self._summaries[message_id] = summary
        return summary

    def drop_summaries(self) -> None:
        """Forget finalised summaries (long sweeps reclaim memory)."""
        self._summaries.clear()

    def __len__(self) -> int:
        return len(self._records) + len(self._summaries)
