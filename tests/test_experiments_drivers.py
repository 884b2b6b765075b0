"""Tests for the per-figure cell measurements and reporting helpers.

Each paper cell is called through ``spec.run_cell`` at n = 80 with eight
stabilisation cycles and asserts on the row it returns.
"""

import pytest
from conftest import run_cell

from repro.common.errors import ConfigurationError
from repro.experiments import ExperimentParams, format_series, format_table, sparkline
from repro.experiments.reporting import resolve
from repro.experiments.snapshots import SnapshotCache
from repro.metrics.reliability import healing_cycles

PARAMS = ExperimentParams.scaled(80, stabilization_cycles=8)


class TestFailureCells:
    def test_result_fields(self):
        result = run_cell("fig2_reliability", ("hyparview", 0.3), messages=10)
        assert result["protocol"] == "hyparview"
        assert result["plan"] == ["crash 30%@0"]
        assert len(result["series"]) == 10
        assert 0.0 <= result["average"] <= 1.0
        assert result["final"]["alive"] == 56
        atomic = sum(1 for value in result["series"] if value >= 1.0) / 10
        assert resolve(result, "series|atomic") == atomic
        assert resolve(result, "series|tail") == sum(result["series"][-10:]) / 10
        assert resolve(result, "series|head") == sum(result["series"][:10]) / 10

    def test_base_scenario_not_mutated(self):
        cache = SnapshotCache()
        run_cell("fig2_reliability", ("hyparview", 0.5), messages=5, snapshots=cache)
        assert len(cache.checkout("hyparview", PARAMS).alive_ids()) == 80
        assert cache.stats()["hits"] == 1

    def test_failure_fraction_domain(self):
        # 0 measures the intact overlay (an empty plan); 1 is refused.
        intact = run_cell("fig2_reliability", ("hyparview", 0.0), messages=5)
        assert intact["applied"] == [] and intact["final"]["alive"] == 80
        assert intact["average"] == 1.0
        swept = run_cell("ablation_flood_resend", (False,), messages=5, failure=0.0)
        assert swept["plan"] == [] and swept["final"]["alive"] == 80
        for scenario_id, key, options in (
            ("fig2_reliability", ("hyparview", 1.0), {}),
            ("ablation_passive_size", (4,), {"failure": 1.0}),
        ):
            with pytest.raises(ConfigurationError, match=r"must be in \[0, 1\)"):
                run_cell(scenario_id, key, messages=5, **options)

    def test_hyparview_beats_cyclon_after_heavy_failure(self):
        hyparview = run_cell("fig2_reliability", ("hyparview", 0.5), messages=15)
        cyclon = run_cell("fig2_reliability", ("cyclon", 0.5), messages=15)
        assert hyparview["average"] > cyclon["average"]


class TestFanoutCells:
    def test_sweep_monotone_in_fanout(self):
        cache = SnapshotCache()
        low, high = (
            run_cell("fig1a_cyclon_fanout", (fanout,), snapshots=cache) for fanout in (1, 4)
        )
        assert (low["fanout"], high["fanout"]) == (1, 4)
        assert low["average_reliability"] < high["average_reliability"]
        assert cache.stats()["misses"] == 1  # both fanouts rewire one base

    def test_reference_point_is_atomic(self):
        point = run_cell("fig1_hyparview_reference", (), messages=5)["point"]
        assert point["fanout"] == PARAMS.hyparview.fanout
        assert point["average_reliability"] == 1.0
        assert point["atomic_fraction"] == 1.0


class TestHealingCells:
    def test_hyparview_heals_quickly(self):
        result = run_cell("fig4_healing", ("hyparview", 0.3), max_cycles=10)
        assert result["cycles_to_heal"] is not None
        assert result["cycles_to_heal"] <= 3
        assert result["baseline_reliability"] == 1.0
        # The cell stops at its laptop-scale tolerance (two stragglers);
        # HyParView must also be back within 0.001 of its baseline by then.
        baseline, per_cycle = result["baseline_reliability"], result["per_cycle"]
        strict = healing_cycles(baseline, per_cycle, tolerance=0.001)
        assert strict is not None and strict <= 3

    def test_unhealed_run_reports_none(self):
        result = run_cell("fig4_healing", ("cyclon", 0.6), max_cycles=1)
        assert result["max_cycles"] == 1
        assert len(result["per_cycle"]) == 1
        # One cycle is almost never enough for Cyclon at 60% failures.
        assert result["cycles_to_heal"] is None or result["cycles_to_heal"] == 1


class TestGraphPropertiesCells:
    def test_table1_row_fields(self):
        result = run_cell("table1_graph", ("hyparview",), messages=5, path_sample_sources=20)
        assert result["connected"]
        assert result["symmetry_fraction"] == 1.0
        assert result["average_clustering"] < 0.2
        assert result["path_stats"]["average"] > 1.0
        assert result["max_hops_to_delivery"] >= 1.0
        assert sum(result["in_degree_histogram"].values()) == 80

    def test_cyclon_row_has_wider_in_degree_spread(self):
        hv, cy = (
            run_cell("fig5_indegree", (protocol,), messages=5, path_sample_sources=20)
            for protocol in ("hyparview", "cyclon")
        )
        assert cy["in_degree_stats"]["stddev"] > hv["in_degree_stats"]["stddev"]


class TestAblations:
    def test_passive_size_points(self):
        points = [
            run_cell("ablation_passive_size", (capacity,), messages=8, failure=0.5)
            for capacity in (4, 16)
        ]
        assert [p["passive_capacity"] for p in points] == [4, 16]
        for point in points:
            assert point["plan"] == ["crash 50%@0"]
            assert 0.0 <= point["average"] <= 1.0
            assert 0.0 < point["final"]["largest_component"] <= 1.0

    def test_shuffle_ttl_points(self):
        points = [run_cell("ablation_shuffle_ttl", (ttl,), messages=5) for ttl in (1, 4)]
        assert [p["shuffle_ttl"] for p in points] == [1, 4]
        for point in points:
            assert point["passive_balance"] >= 0.0

    def test_resend_ablation_improves_transient(self):
        cache = SnapshotCache()
        baseline, resend = (
            run_cell("ablation_flood_resend", (arm,), failure=0.5, snapshots=cache)
            for arm in (False, True)
        )
        assert not baseline["resend_on_repair"] and resend["resend_on_repair"]
        assert resend["data_transmissions"] >= baseline["data_transmissions"]
        assert resolve(resend, "series|head") >= resolve(baseline, "series|head") - 0.05


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 0.25]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        # Every row after the title is padded to the rule's width.
        assert all(len(line) == len(lines[2]) for line in lines[1:])
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
