"""Tests for the live-runtime latency histogram (repro.metrics.latency).

The hypothesis properties pin the subtle contract around the lazy-sort
flag: querying a percentile sorts the sample buffer in place, and samples
recorded *after* that query must still yield exact nearest-rank
quantiles over all samples (the flag must be invalidated, not trusted).
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.latency import LatencyHistogram

samples = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=60
)


def nearest_rank(values, p):
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestBasics:
    def test_empty_reports_none(self):
        histogram = LatencyHistogram()
        assert histogram.p50() is None
        assert histogram.percentile(99.9) is None
        assert histogram.mean() is None
        assert histogram.max() is None

    def test_negative_samples_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-0.5)
        assert histogram.p50() == 0.0

    def test_p999_needs_a_thousand_samples_to_leave_the_max(self):
        histogram = LatencyHistogram()
        for i in range(1, 1001):
            histogram.record(i / 1000.0)
        assert histogram.percentile(99.9) == 1.0
        histogram.record(2.0)
        assert histogram.percentile(99.9) == 1.0  # rank 1001 of 1001 is ceil(999.(...))

    def test_to_dict_is_empty_without_samples(self):
        assert LatencyHistogram().to_dict() == {
            "samples": 0,
            "mean_ms": None,
            "p50_ms": None,
            "p99_ms": None,
            "max_ms": None,
        }

    def test_to_dict_reports_milliseconds(self):
        histogram = LatencyHistogram()
        for i in range(1, 101):
            histogram.record(i / 100.0)
        row = histogram.to_dict()
        assert row["samples"] == 100
        assert row["p50_ms"] == histogram.p50() * 1000.0 == 500.0
        assert row["p99_ms"] == histogram.p99() * 1000.0 == 990.0
        assert row["max_ms"] == 1000.0
        assert row["mean_ms"] == histogram.mean() * 1000.0


class TestProperties:
    @given(samples, st.floats(min_value=0.001, max_value=100.0))
    def test_percentile_is_nearest_rank(self, values, p):
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        assert histogram.percentile(p) == nearest_rank(values, p)

    @given(samples, samples, st.floats(min_value=0.001, max_value=100.0))
    def test_record_after_percentile_query(self, first, second, p):
        histogram = LatencyHistogram()
        for value in first:
            histogram.record(value)
        histogram.percentile(50.0)  # force the in-place sort before recording more
        for value in second:
            histogram.record(value)
        assert histogram.count == len(first) + len(second)
        assert histogram.percentile(p) == nearest_rank(first + second, p)

    @given(samples)
    def test_quantiles_are_ordered(self, values):
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        if values:
            assert histogram.p50() <= histogram.p99() <= histogram.percentile(99.9)
            assert histogram.percentile(99.9) <= histogram.max()
