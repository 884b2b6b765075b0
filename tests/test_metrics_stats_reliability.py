"""Tests for statistics helpers and reliability aggregation."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import MessageId, NodeId
from repro.gossip.tracker import BroadcastSummary
from repro.metrics.reliability import (
    atomic_fraction,
    average_reliability,
    healing_cycles,
    max_hops,
    reliability_series,
)
from repro.metrics.stats import SummaryStats, mean, percentile, stddev, summarize


def summary(i, reliability, *, sent_at=None, hops=5, delivered=50, redundant=10):
    return BroadcastSummary(
        message_id=MessageId(NodeId("o", 1), i),
        origin=NodeId("o", 1),
        sent_at=float(i) if sent_at is None else sent_at,
        population_size=100,
        delivered=delivered,
        reliability=reliability,
        max_hops=hops,
        last_delivery_at=float(i),
        redundant=redundant,
        transmissions=200,
    )


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_stddev(self):
        assert stddev([2.0, 2.0, 2.0]) == 0.0
        assert stddev([1.0]) == 0.0
        assert stddev([1.0, 3.0]) == pytest.approx(1.0)

    def test_percentile(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0
        assert percentile(data, 50) == pytest.approx(2.5)
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_percentile_hits_each_sample_at_its_rank(self):
        data = [50.0, 10.0, 40.0, 20.0, 30.0]
        # Five samples: rank k of the sorted data sits at q = 25 k.
        assert [percentile(data, 25 * k) for k in range(5)] == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(data, 12.5) == pytest.approx(15.0)

    @given(
        st.lists(st.floats(-1000, 1000), min_size=1, max_size=40),
        st.floats(0, 100),
        st.floats(0, 100),
    )
    def test_percentile_is_monotone_in_q_property(self, values, q1, q2):
        low, high = sorted((q1, q2))
        ulp = 1e-9  # the blend rounds, so equal neighbours may drift by an ulp
        assert percentile(values, low) <= percentile(values, high) + ulp

    @given(st.lists(st.floats(-1000, 1000), min_size=1, max_size=40), st.floats(0, 100))
    def test_percentile_ignores_sample_order_property(self, values, q):
        assert percentile(values, q) == percentile(list(reversed(values)), q)

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)

    def test_summarize(self):
        stats = summarize([3.0, 1.0, 2.0])
        assert stats == SummaryStats(3, 2.0, stddev([3.0, 1.0, 2.0]), 1.0, 2.0, percentile([1, 2, 3], 95), 3.0)

    def test_summarize_empty(self):
        assert summarize([]).count == 0

    @given(st.lists(st.floats(-1000, 1000), min_size=1, max_size=40))
    @example([5e-324, 5e-324])  # subnormals: the blend underflows to 0.0
    def test_summary_bounds_property(self, values):
        stats = summarize(values)
        ulp = 1e-9  # float summation can drift by an ulp around the bounds
        assert stats.minimum <= stats.p50 <= stats.maximum
        assert stats.minimum - ulp <= stats.mean <= stats.maximum + ulp


class TestReliabilityAggregation:
    def test_series_ordered_by_send_time(self):
        summaries = [summary(2, 0.3), summary(0, 0.1), summary(1, 0.2)]
        assert reliability_series(summaries) == [0.1, 0.2, 0.3]

    def test_average(self):
        assert average_reliability([summary(0, 0.5), summary(1, 1.0)]) == 0.75
        assert average_reliability([]) == 0.0

    def test_atomic_fraction(self):
        assert atomic_fraction([1.0, 0.99, 1.0]) == pytest.approx(2 / 3)
        assert atomic_fraction([]) == 0.0

    def test_max_hops_mean(self):
        summaries = [summary(0, 1.0, hops=8), summary(1, 1.0, hops=12)]
        assert max_hops(summaries) == 10.0


class TestHealingCycles:
    def test_immediate_recovery(self):
        assert healing_cycles(0.99, [1.0, 1.0]) == 1

    def test_delayed_recovery(self):
        assert healing_cycles(0.9, [0.2, 0.5, 0.91]) == 3

    def test_never_recovers(self):
        assert healing_cycles(0.99, [0.5, 0.6, 0.7]) is None

    def test_tolerance(self):
        assert healing_cycles(0.99, [0.985], tolerance=0.01) == 1
        assert healing_cycles(0.99, [0.985], tolerance=0.001) is None

    def test_empty_window(self):
        assert healing_cycles(0.5, []) is None
