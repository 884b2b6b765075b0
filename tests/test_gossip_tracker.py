"""Tests for broadcast delivery tracking."""

import pytest

from repro.common.errors import ProtocolError
from repro.common.ids import MessageId, NodeId
from repro.gossip.tracker import BroadcastTracker


def nid(i):
    return NodeId(f"n{i}", 1)


def mid(i):
    return MessageId(nid(0), i)


class TestTracking:
    def test_broadcast_and_deliveries(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.on_deliver(mid(1), nid(0), now=0.0, hops=0)
        tracker.on_deliver(mid(1), nid(1), now=0.1, hops=1)
        tracker.on_deliver(mid(1), nid(2), now=0.3, hops=3)
        record = tracker.record(mid(1))
        assert len(record.deliveries) == 3
        assert record.max_hops == 3
        assert nid(1) in record.deliveries
        assert nid(9) not in record.deliveries

    def test_duplicate_delivery_counted_as_redundant(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.on_deliver(mid(1), nid(1), now=0.1, hops=1)
        tracker.on_deliver(mid(1), nid(1), now=0.2, hops=2)
        record = tracker.record(mid(1))
        assert len(record.deliveries) == 1
        assert record.redundant == 1

    def test_explicit_redundant_and_transmissions(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.on_redundant(mid(1), nid(2))
        tracker.on_transmit(mid(1), 5)
        record = tracker.record(mid(1))
        assert record.redundant == 1
        assert record.transmissions == 5

    def test_duplicate_broadcast_id_rejected(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        with pytest.raises(ProtocolError):
            tracker.on_broadcast(mid(1), nid(0), now=0.0)

    def test_events_for_unknown_message_ignored(self):
        tracker = BroadcastTracker()
        tracker.on_deliver(mid(9), nid(1), now=0.0, hops=1)  # must not raise
        tracker.on_redundant(mid(9), nid(1))
        tracker.on_transmit(mid(9))

    def test_reliability_against_population(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        for i in range(3):
            tracker.on_deliver(mid(1), nid(i), now=0.1, hops=1)
        population = frozenset(nid(i) for i in range(4))
        assert tracker.record(mid(1)).reliability(population) == 0.75

    def test_reliability_excludes_non_population_deliveries(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.on_deliver(mid(1), nid(99), now=0.1, hops=1)  # a dead node?
        population = frozenset([nid(0), nid(1)])
        assert tracker.record(mid(1)).reliability(population) == 0.0

    def test_empty_population(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        assert tracker.record(mid(1)).reliability(frozenset()) == 0.0


class TestFinalize:
    def test_finalize_produces_summary_and_frees_record(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=1.0)
        tracker.on_deliver(mid(1), nid(0), now=1.0, hops=0)
        tracker.on_deliver(mid(1), nid(1), now=1.5, hops=2)
        tracker.on_transmit(mid(1), 4)
        population = frozenset([nid(0), nid(1), nid(2), nid(3)])
        summary = tracker.finalize(mid(1), population)
        assert summary.delivered == 2
        assert summary.reliability == 0.5
        assert summary.max_hops == 2
        assert summary.last_delivery_at == 1.5
        assert summary.transmissions == 4
        assert summary.population_size == 4
        with pytest.raises(ProtocolError):
            tracker.record(mid(1))
        assert tracker.summary(mid(1)) == summary

    def test_finalize_twice_rejected(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.finalize(mid(1), frozenset([nid(0)]))
        with pytest.raises(ProtocolError):
            tracker.finalize(mid(1), frozenset([nid(0)]))

    def test_late_deliveries_after_finalize_ignored(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.finalize(mid(1), frozenset([nid(0)]))
        tracker.on_deliver(mid(1), nid(1), now=9.0, hops=1)  # no effect
        assert tracker.summary(mid(1)).delivered == 0

    def test_drop_summaries(self):
        tracker = BroadcastTracker()
        tracker.on_broadcast(mid(1), nid(0), now=0.0)
        tracker.finalize(mid(1), frozenset([nid(0)]))
        assert len(tracker) == 1
        tracker.drop_summaries()
        assert len(tracker) == 0

    def test_unknown_finalize_rejected(self):
        tracker = BroadcastTracker()
        with pytest.raises(ProtocolError):
            tracker.finalize(mid(1), frozenset())
