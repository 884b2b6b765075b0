"""Tests for latency models."""

import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import NodeId
from repro.common.rng import StreamRandom
from repro.sim.latency import LATENCY_SECONDS, ConstantLatency, ZonedLatency, build_latency_model

A = NodeId("a", 1)
B = NodeId("b", 2)


class TestConstantLatency:
    def test_constant(self):
        model = ConstantLatency(0.05)
        rng = random.Random(0)
        assert model.delay(A, B, rng) == 0.05
        assert model.delay(B, A, rng) == 0.05

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)


class TestZonedLatency:
    def test_base_delay_symmetric_and_stable_across_instances(self):
        a, b = NodeId("n3", 9000), NodeId("n11", 9000)
        assert ZonedLatency().base_delay(a, b) == ZonedLatency().base_delay(b, a)

    def test_zone_assignment_is_a_pure_function_of_identity(self):
        node = NodeId("n42", 9000)
        assert ZonedLatency().zone_of(node) == ZonedLatency().zone_of(node)
        assert 0 <= ZonedLatency(zones=4).zone_of(node) < 4

    def test_intra_zone_cheaper_than_inter_zone_band(self):
        model = ZonedLatency(zones=4)
        nodes = [NodeId(f"n{i}", 9000) for i in range(64)]
        intra_high, inter_low = model.intra[1], model.inter[0]
        assert intra_high < inter_low  # the default bands must not overlap
        for a in nodes[:8]:
            for b in nodes:
                if a == b:
                    continue
                base = model.base_delay(a, b)
                if model.zone_of(a) == model.zone_of(b):
                    assert model.intra[0] <= base <= intra_high
                else:
                    assert inter_low <= base <= model.inter[1]

    def test_jitter_stays_within_fraction_and_above_the_floor(self):
        model = ZonedLatency()
        rng = random.Random(3)
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        base = model.base_delay(a, b)
        for _ in range(200):
            delay = model.delay(a, b, rng)
            assert base * (1.0 - model.jitter) <= delay <= base * (1.0 + model.jitter)
            assert delay >= model.intra[0] * (1.0 - model.jitter)

    def test_zero_jitter_reproduces_base_delay(self):
        model = ZonedLatency(jitter=0.0)
        rng = random.Random(0)
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        assert model.delay(a, b, rng) == model.base_delay(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
        zones=st.integers(1, 9),
        jitter=st.sampled_from((0.25, 0.0, 0.6)),
        seed=st.integers(0, 2**32),
    )
    def test_delay_is_what_its_five_frame_body_returned(self, pairs, zones, jitter, seed):
        """``delay`` inlines two zone-cache hits, the pair lookup and
        ``uniform``; the body it replaced is the oracle — every delay the
        same float, every stream advanced by the same words."""

        def oracle(model, src, dst, rng):
            base = model._pair_base(model.zone_of(src), model.zone_of(dst))
            if model.jitter == 0:
                return base
            return base * (1.0 + rng.uniform(-model.jitter, model.jitter))

        nodes = [NodeId(f"n{i}", 9000 + i % 3) for i in range(40)]
        model, reference = ZonedLatency(zones, jitter=jitter), ZonedLatency(zones, jitter=jitter)
        rng, reference_rng = StreamRandom(seed), StreamRandom(seed)
        for a, b in pairs:
            assert model.delay(nodes[a], nodes[b], rng) == oracle(
                reference, nodes[a], nodes[b], reference_rng
            )
        assert rng.words_consumed == reference_rng.words_consumed
        assert rng.getstate() == reference_rng.getstate()
        assert model._zone_cache == reference._zone_cache
        assert model._pair_cache == reference._pair_cache

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ZonedLatency(zones=0)
        with pytest.raises(ConfigurationError):
            ZonedLatency(intra=(0.01, 0.005))
        with pytest.raises(ConfigurationError):
            ZonedLatency(jitter=1.0)

    def test_model_pickles_with_caches(self):
        model = ZonedLatency()
        a, b = NodeId("n1", 9000), NodeId("n2", 9000)
        expected = model.base_delay(a, b)  # populate the caches first
        clone = pickle.loads(pickle.dumps(model))
        assert clone.base_delay(a, b) == expected


class TestBuildLatencyModel:
    def test_default_is_the_historical_constant_model(self):
        model = build_latency_model(SimpleNamespace())
        assert isinstance(model, ConstantLatency)
        assert model.delay(A, B, random.Random(0)) == LATENCY_SECONDS == 0.01

    def test_zoned_selector_builds_eight_zones(self):
        model = build_latency_model(SimpleNamespace(latency_model="zoned"))
        assert isinstance(model, ZonedLatency)
        assert model.zones == 8

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_latency_model(SimpleNamespace(latency_model="wormhole"))
