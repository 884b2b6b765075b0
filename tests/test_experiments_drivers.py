"""Tests for the per-figure cell measurements and reporting helpers."""

from repro.experiments import (
    ExperimentParams,
    format_series,
    format_table,
    hyparview_reference_point,
    run_graph_properties,
    sparkline,
    stabilized_scenario,
)
from repro.experiments.ablations import (
    measure_passive_size_point,
    measure_resend_point,
    measure_shuffle_ttl_point,
    passive_size_params,
    shuffle_ttl_params,
)
from repro.experiments.failures import measure_failure
from repro.experiments.fanout import measure_fanout_point
from repro.experiments.healing import measure_healing

PARAMS = ExperimentParams.scaled(80, stabilization_cycles=8)


class TestFailureDriver:
    def test_result_fields(self):
        result = measure_failure(stabilized_scenario("hyparview", PARAMS), 0.3, messages=10)
        assert result.protocol == "hyparview"
        assert result.failure_fraction == 0.3
        assert len(result.series) == 10
        assert 0.0 <= result.average <= 1.0
        assert result.correct_nodes == 56
        assert 0.0 <= result.atomic <= 1.0
        assert result.tail_average(3) == sum(result.series[-3:]) / 3

    def test_base_scenario_not_mutated(self):
        base = stabilized_scenario("hyparview", PARAMS)
        measure_failure(base.clone(), 0.5, messages=5)
        assert len(base.alive_ids()) == 80

    def test_hyparview_beats_cyclon_after_heavy_failure(self):
        hyparview = measure_failure(stabilized_scenario("hyparview", PARAMS), 0.5, messages=15)
        cyclon = measure_failure(stabilized_scenario("cyclon", PARAMS), 0.5, messages=15)
        assert hyparview.average > cyclon.average


class TestFanoutDriver:
    def test_sweep_monotone_in_fanout(self):
        base = stabilized_scenario("cyclon", PARAMS)
        low, high = (measure_fanout_point(base.clone(), f, messages=10) for f in (1, 4))
        assert low.average_reliability < high.average_reliability

    def test_reference_point_is_atomic(self):
        point = hyparview_reference_point(PARAMS, messages=5)
        assert point.average_reliability == 1.0
        assert point.atomic_fraction == 1.0


class TestHealingDriver:
    def test_hyparview_heals_quickly(self):
        result = measure_healing(
            stabilized_scenario("hyparview", PARAMS), 0.3, max_cycles=10
        )
        assert result.cycles_to_heal is not None
        assert result.cycles_to_heal <= 3
        assert result.baseline_reliability == 1.0

    def test_unhealed_run_reports_none(self):
        result = measure_healing(
            stabilized_scenario("cyclon", PARAMS), 0.6, max_cycles=1
        )
        assert result.max_cycles == 1
        # One cycle is almost never enough for Cyclon at 60% failures.
        assert result.cycles_to_heal is None or result.cycles_to_heal == 1


class TestGraphPropertiesDriver:
    def test_table1_row_fields(self):
        result = run_graph_properties("hyparview", PARAMS, messages=5, path_sample_sources=20)
        assert result.connected
        assert result.symmetry_fraction == 1.0
        assert result.average_clustering < 0.2
        assert result.path_stats.average > 1.0
        assert result.max_hops_to_delivery >= 1.0
        assert sum(result.in_degree_histogram.values()) == 80

    def test_cyclon_row_has_wider_in_degree_spread(self):
        hv = run_graph_properties("hyparview", PARAMS, messages=5, path_sample_sources=20)
        cy = run_graph_properties("cyclon", PARAMS, messages=5, path_sample_sources=20)
        assert cy.in_degree_stats.stddev > hv.in_degree_stats.stddev


class TestAblations:
    def test_passive_size_points(self):
        points = [
            measure_passive_size_point(
                stabilized_scenario("hyparview", passive_size_params(PARAMS, capacity)),
                failure_fraction=0.5, messages=8,
            )
            for capacity in (4, 16)
        ]
        assert [p.passive_capacity for p in points] == [4, 16]
        for point in points:
            assert 0.0 <= point.average_reliability <= 1.0
            assert 0.0 < point.largest_component_fraction <= 1.0

    def test_shuffle_ttl_points(self):
        points = [
            measure_shuffle_ttl_point(
                stabilized_scenario("hyparview", shuffle_ttl_params(PARAMS, ttl)),
                failure_fraction=0.4, messages=5,
            )
            for ttl in (1, 4)
        ]
        assert [p.shuffle_ttl for p in points] == [1, 4]
        for point in points:
            assert point.passive_balance >= 0.0

    def test_resend_ablation_improves_transient(self):
        base = stabilized_scenario("hyparview", PARAMS)
        baseline, resend = (
            measure_resend_point(base.clone(), arm, failure_fraction=0.5, messages=10)
            for arm in (False, True)
        )
        assert not baseline.resend_on_repair and resend.resend_on_repair
        assert resend.data_transmissions >= baseline.data_transmissions
        assert resend.first10_average >= baseline.first10_average - 0.05


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 0.25]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(line) == len(lines[2]) or True for line in lines)
        assert "1.5000" in table

    def test_format_series_wraps(self):
        text = format_series([0.5] * 45, per_line=20)
        assert len(text.splitlines()) == 3
        assert " 50.0" in text

    def test_sparkline_range(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " "
        assert line[-1] == "█"
