"""Tests for HyParView and experiment configuration validation."""

from dataclasses import fields

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.experiments.params import ExperimentParams
from repro.protocols import cyclon, scamp
from repro.protocols.cyclon import CyclonConfig


class TestHyParViewConfig:
    def test_paper_defaults(self):
        config = HyParViewConfig()
        assert config.active_view_capacity == 5
        assert config.passive_view_capacity == 30
        assert config.arwl == 6
        assert config.prwl == 3
        assert config.shuffle_ka == 3
        assert config.shuffle_kp == 4
        assert config.fanout == 4

    def test_shuffle_ttl_defaults_to_arwl(self):
        assert HyParViewConfig().effective_shuffle_ttl == 6
        assert HyParViewConfig(shuffle_ttl=2).effective_shuffle_ttl == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HyParViewConfig(active_view_capacity=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(passive_view_capacity=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(prwl=7, arwl=6)  # PRWL must be <= ARWL
        with pytest.raises(ConfigurationError):
            HyParViewConfig(arwl=-1)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_ka=-1)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_ttl=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(shuffle_period=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(neighbor_request_timeout=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(promotion_retry_delay=0)
        with pytest.raises(ConfigurationError):
            HyParViewConfig(promotion_max_passes=-1)

    def test_scaled_keeps_active_view(self):
        scaled = HyParViewConfig().scaled(500)
        assert scaled.active_view_capacity == 5
        assert scaled.passive_view_capacity < 30

    def test_scaled_at_paper_size_matches_paper(self):
        assert HyParViewConfig().scaled(10_000).passive_view_capacity == 30

    def test_scaled_respects_log_floor(self):
        import math

        for n in (50, 200, 1000, 10000):
            scaled = HyParViewConfig().scaled(n)
            assert scaled.passive_view_capacity > math.log(n)

    def test_scaled_changes_only_the_passive_view(self):
        config = HyParViewConfig(
            active_view_capacity=3, arwl=4, prwl=2, shuffle_ka=2, shuffle_kp=1,
            shuffle_ttl=2, shuffle_period=0.3, neighbor_request_timeout=1.0,
            promotion_retry_delay=0.1, promotion_max_passes=5,
        )
        scaled = config.scaled(500)
        for field in fields(HyParViewConfig):
            if field.name != "passive_view_capacity":
                assert getattr(scaled, field.name) == getattr(config, field.name), field.name

    def test_scaled_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            HyParViewConfig().scaled(1)


class TestBaselineConfigs:
    def test_cyclon_paper_values(self):
        config = CyclonConfig()
        assert config.view_size == 35
        assert config.shuffle_length == 14
        assert cyclon.WALK_TTL == 5

    def test_cyclon_validation(self):
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=0)
        with pytest.raises(ConfigurationError):
            CyclonConfig(shuffle_length=0)
        with pytest.raises(ConfigurationError):
            CyclonConfig(view_size=5, shuffle_length=6)

    def test_scamp_paper_values(self):
        assert scamp.C == 4


class TestExperimentParams:
    def test_paper_configuration(self):
        """Section 5.1's numbers, read off ``scaled`` at the paper's size."""
        params = ExperimentParams.scaled(10_000)
        hv = params.hyparview
        assert params.n == 10_000
        assert (hv.active_view_capacity, hv.passive_view_capacity) == (5, 30)
        assert (hv.arwl, hv.prwl, hv.shuffle_ka, hv.shuffle_kp) == (6, 3, 3, 4)
        assert hv.fanout == 4
        assert (params.cyclon.view_size, params.cyclon.shuffle_length) == (35, 14)
        assert params.stabilization_cycles == 50
        assert params.brb_mode == "bracha"

    def test_paper_is_the_scaled_setting_at_its_anchor_size(self):
        """At 10 000 nodes ``scaled`` changes nothing of the defaults,
        which are Section 5.1's."""
        params = ExperimentParams.scaled(10_000)
        assert params.hyparview == HyParViewConfig()
        assert params.cyclon == CyclonConfig()

    def test_scaled_preserves_relations(self):
        params = ExperimentParams.scaled(500)
        hv = params.hyparview
        assert params.cyclon.view_size == hv.active_view_capacity + hv.passive_view_capacity
        assert hv.fanout == 4

    def test_scaled_cyclon_view_bounded_by_n(self):
        params = ExperimentParams.scaled(20)
        assert params.cyclon.view_size <= 19

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentParams(n=1)
        with pytest.raises(ConfigurationError):
            ExperimentParams(stabilization_cycles=-1)
        with pytest.raises(ConfigurationError, match="latency model"):
            ExperimentParams(latency_model="wormhole")
