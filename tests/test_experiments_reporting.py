"""Reporting-surface tests: canonical artifact encoding, the BENCH / TRACE /
METRICS file families, the plain-text renderers, and the stderr-only
timing summary (per-scenario table and snapshot-cache line)."""

from __future__ import annotations

import json
import pathlib
from collections import namedtuple

import pytest

from repro.experiments.reporting import (
    ARTIFACT_SCHEMA,
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    artifact_filename,
    encode_artifact,
    format_histogram,
    format_phases,
    format_series,
    format_table,
    format_timings,
    json_safe,
    load_trace,
    metrics_artifact,
    metrics_filename,
    sparkline,
    trace_artifact,
    trace_filename,
    write_artifact,
    write_metrics_file,
    write_trace_file,
)
from repro.experiments.runner import SweepTimings, UnitOutcome, WorkUnit


class TestJsonSafe:
    def test_named_tuples_become_dicts(self):
        Pair = namedtuple("Pair", "host port")
        assert json_safe(Pair("a", 7)) == {"host": "a", "port": 7}

    def test_mapping_keys_become_strings(self):
        assert json_safe({3: 1, 10: 2}) == {"3": 1, "10": 2}

    def test_sets_are_sorted(self):
        assert json_safe(frozenset({3, 1, 2})) == [1, 2, 3]

    def test_infinite_floats_become_none(self):
        assert json_safe([float("inf"), float("-inf"), 0.5]) == [None, None, 0.5]

    def test_scalars_pass_through(self):
        assert json_safe([True, None, "s", 4]) == [True, None, "s", 4]

    def test_other_objects_fall_back_to_str(self):
        assert json_safe(pathlib.PurePosixPath("a/b")) == "a/b"


class TestEncodeArtifact:
    def test_canonical_layout(self):
        text = encode_artifact({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_insertion_order_does_not_matter(self):
        first = encode_artifact({"x": {"p": 1, "q": 2}, "y": 3})
        second = encode_artifact({"y": 3, "x": {"q": 2, "p": 1}})
        assert first == second

    def test_nan_encodes_as_null(self):
        text = encode_artifact({"value": float("nan")})
        assert "NaN" not in text
        assert json.loads(text) == {"value": None}


class TestArtifactFiles:
    def test_each_family_has_its_own_prefix(self):
        assert artifact_filename("churn") == "BENCH_churn.json"
        assert trace_filename("churn") == "TRACE_churn.json"
        assert metrics_filename("churn") == "METRICS_churn.json"

    def test_write_artifact_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b"
        path = write_artifact(out, {"schema": ARTIFACT_SCHEMA, "scenario": "s"})
        assert path == out / "BENCH_s.json"
        assert path.read_text() == encode_artifact(
            {"schema": ARTIFACT_SCHEMA, "scenario": "s"}
        )

    def test_trace_payload_and_round_trip(self, tmp_path):
        trace = trace_artifact(
            "s", tier="smoke", root_seed=42,
            replicates=({"replicate": 0, "segments": []},),
        )
        assert trace == {
            "schema": TRACE_SCHEMA,
            "scenario": "s",
            "tier": "smoke",
            "root_seed": 42,
            "replicates": [{"replicate": 0, "segments": []}],
        }
        path = write_trace_file(tmp_path / "traces", trace)
        assert path.name == "TRACE_s.json"
        assert load_trace(path) == trace

    def test_load_trace_rejects_other_schemas(self, tmp_path):
        path = write_artifact(tmp_path, {"schema": ARTIFACT_SCHEMA, "scenario": "s"})
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_trace(path)

    def test_metrics_file_is_canonical(self, tmp_path):
        metrics = metrics_artifact(
            "s", tier="paper", root_seed=1, replicates=[{"replicate": 0}]
        )
        assert metrics["schema"] == METRICS_SCHEMA
        path = write_metrics_file(tmp_path, metrics)
        assert path.name == "METRICS_s.json"
        assert path.read_text() == encode_artifact(metrics)


class TestFormatTable:
    def test_columns_pad_to_the_widest_cell(self):
        lines = format_table(["k", "value"], [["long-key", 1], ["x", 0.5]]).splitlines()
        assert lines == [
            "k         value ",
            "--------  ------",
            "long-key  1     ",
            "x         0.5000",
        ]

    def test_title_is_the_first_line(self):
        assert format_table(["a"], [], title="T").splitlines() == ["T", "a", "-"]


class TestFormatTimings:
    def test_empty_sweep(self):
        assert format_timings({}, {}) == "per-scenario timings: (none)"

    def test_rows_are_sorted_with_units_seconds_and_rate(self):
        text = format_timings(
            {"zeta": 1.5, "alpha": 0.25},
            {"zeta": 3, "alpha": 1},
            {"zeta": 3000, "alpha": 100},
        )
        rows = text.splitlines()[3:]
        assert [row.split() for row in rows] == [
            ["alpha", "1", "0.25s", "400"],
            ["zeta", "3", "1.50s", "2,000"],
        ]

    def test_title_says_logs_only(self):
        title = format_timings({"s": 1.0}, {"s": 1}).splitlines()[0]
        assert "never in BENCH artifacts" in title

    def test_rate_is_a_dash_without_events(self):
        row = format_timings({"s": 2.0}, {"s": 1}).splitlines()[-1]
        assert row.split() == ["s", "1", "2.00s", "-"]

    def test_rate_is_a_dash_for_zero_seconds(self):
        row = format_timings({"s": 0.0}, {"s": 1}, {"s": 50}).splitlines()[-1]
        assert row.split() == ["s", "1", "0.00s", "-"]


class TestFormatPhases:
    def test_window_and_aggregates(self):
        text = format_phases(
            [
                {
                    "phase": "faulted", "start": 2.0, "end": 4.5, "messages": 7,
                    "average": 0.91, "min": 0.5, "atomic": 0.25,
                }
            ],
            title="P",
        )
        lines = text.splitlines()
        assert lines[0] == "P"
        assert lines[-1].split() == ["faulted", "2..4.5s", "7", "0.9100", "0.5000", "0.2500"]

    def test_missing_aggregates_render_as_dashes(self):
        text = format_phases(
            [
                {
                    "phase": "quiet", "start": 0.0, "end": 1.0, "messages": 0,
                    "average": None, "min": None, "atomic": None,
                }
            ]
        )
        assert text.splitlines()[-1].split() == ["quiet", "0..1s", "0", "-", "-", "-"]


class TestTextRenderers:
    def test_series_rows_label_their_message_range(self):
        lines = format_series([1.0] * 45, per_line=20).splitlines()
        assert [line.split()[1] for line in lines] == ["0-19", "20-39", "40-44"]
        assert lines[-1].split()[2:] == ["100.0"] * 5

    def test_empty_series_renders_nothing(self):
        assert format_series([]) == ""

    def test_sparkline_clamps_to_range(self):
        assert sparkline([-3.0, 0.0, 1.0, 7.0]) == "  ██"

    def test_sparkline_with_empty_range_is_blank(self):
        assert sparkline([0.2, 0.8], low=1.0, high=1.0) == "  "

    def test_histogram_bars_scale_to_the_peak(self):
        lines = format_histogram({4: 5, 2: 10, 1: 0, 7: 1}, max_width=10).splitlines()
        assert [int(line.split()[1].rstrip(":")) for line in lines] == [1, 2, 4, 7]
        assert [line.count("#") for line in lines] == [0, 10, 5, 1]


class TestSweepTimings:
    def test_record_sums_per_scenario(self):
        timings = SweepTimings()
        for scenario_id, elapsed, events in (("a", 0.5, 10), ("b", 1.0, 0), ("a", 0.25, 5)):
            timings.record(UnitOutcome(scenario_id, 0, (), {}, elapsed, events))
        assert timings.scenario_seconds == {"a": 0.75, "b": 1.0}
        assert timings.scenario_units == {"a": 2, "b": 1}
        assert timings.scenario_events == {"a": 15, "b": 0}

    def test_cache_line_when_unused(self):
        assert SweepTimings().format_cache() == "snapshot cache: (unused)"

    def test_cache_counters_sum_and_sizes_keep_the_peak(self):
        timings = SweepTimings()
        timings.record_cache(
            {"hits": 2, "misses": 1, "evictions": 0, "entries": 1, "cached_bytes": 1234}
        )
        timings.record_cache(
            {"hits": 3, "misses": 0, "evictions": 1, "entries": 3, "cached_bytes": 1000}
        )
        assert timings.format_cache() == (
            "snapshot cache: 5 hits, 1 misses, 1 evictions; "
            "peak 3 entries / 1,234 bytes per worker"
        )


class TestWorkUnit:
    def test_describe_names_replicate_and_cell(self):
        unit = WorkUnit("fig2_reliability", "smoke", 1, 42, cell=("cyclon", 0.5))
        assert unit.describe() == "fig2_reliability replicate 1 cell cyclon/0.5"
        single = WorkUnit("fig1_hyparview_reference", "smoke", 0, 42)
        assert single.describe() == "fig1_hyparview_reference replicate 0"

    def test_size_override_leaves_paper_parameters(self):
        _, context = WorkUnit("fig2_reliability", "paper", 0, 42).resolve()
        assert context.config.paper_params
        _, context = WorkUnit(
            "fig2_reliability", "paper", 0, 42, n=64, messages=3
        ).resolve()
        assert (context.config.n, context.config.messages) == (64, 3)
        assert not context.config.paper_params
