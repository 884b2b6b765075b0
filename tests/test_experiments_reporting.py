"""Reporting-surface tests: canonical artifact encoding, the BENCH / TRACE
file families with their one writer and one loader, the plain-text
renderers, the declared columns and claims with their one report and one
check, and the stderr-only timing summary (per-scenario table and
snapshot-cache line)."""

from __future__ import annotations

import json
import pathlib
from collections import namedtuple
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.reporting import (
    ANY,
    ARTIFACT_SCHEMA,
    BENCH,
    SHAPE_CHECK_MIN_N,
    TRACE_SCHEMA,
    Claim,
    Column,
    Ref,
    Scale,
    artifact_filename,
    check_claims,
    encode_artifact,
    format_series,
    format_table,
    format_timings,
    json_safe,
    load_artifact,
    render_report,
    resolve,
    sparkline,
    write_artifact,
)
from repro.experiments.runner import (
    SweepTimings,
    UnitOutcome,
    WorkUnit,
    build_units,
    replicate_seed,
)


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
    def test_each_schema_has_its_own_prefix(self):
        assert artifact_filename("churn") == "BENCH_churn.json"
        assert artifact_filename("churn", TRACE_SCHEMA) == "TRACE_churn.json"

    def test_write_artifact_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b"
        path = write_artifact(out, {"schema": ARTIFACT_SCHEMA, "scenario": "s"})
        assert path == out / "BENCH_s.json"
        assert path.read_text() == encode_artifact(
            {"schema": ARTIFACT_SCHEMA, "scenario": "s"}
        )

    def test_trace_round_trip(self, tmp_path):
        trace = {
            "schema": TRACE_SCHEMA,
            "scenario": "s",
            "tier": "smoke",
            "root_seed": 42,
            "replicates": [{"replicate": 0, "segments": []}],
        }
        path = write_artifact(tmp_path, trace)
        assert path.name == "TRACE_s.json"
        assert load_artifact(path, TRACE_SCHEMA) == trace

    def test_loader_rejects_other_schemas(self, tmp_path):
        path = write_artifact(tmp_path, {"schema": ARTIFACT_SCHEMA, "scenario": "s"})
        with pytest.raises(ConfigurationError, match="unsupported artifact schema"):
            load_artifact(path, TRACE_SCHEMA)
        (tmp_path / "list.json").write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="unsupported artifact schema None"):
            load_artifact(tmp_path / "list.json")

    def test_loader_rejects_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_artifact(tmp_path / "missing.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_artifact(tmp_path)  # a directory
        for text in (b"{not json", b"\xff\xfe", b"[" * 100_000):
            (tmp_path / "bad.json").write_bytes(text)
            with pytest.raises(ConfigurationError, match="not valid JSON"):
                load_artifact(tmp_path / "bad.json")


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


#: Two cells of a fault-shaped result, as ``ScenarioSpec.cell_rows`` yields them.
CELL = {
    "n": 10,
    "series": [0.5, 1.0, 1.0],
    "final": {"alive": 8},
    "phases": [
        {"phase": "before", "average": 1.0},
        {"phase": "during", "average": None},
    ],
}
ROWS = [("hyparview", CELL), ("cyclon", {**CELL, "series": [0.25, 0.5, 0.75]})]


def _failures(claims, *, rows=ROWS, n=SHAPE_CHECK_MIN_N, messages=3, invariant=None):
    return [
        failure
        for _, failure in check_claims("s", claims, invariant, rows, n, messages)
        if failure is not None
    ]


class TestPaths:
    def test_keys_indexes_phase_rows_and_reducers(self):
        assert resolve(CELL, "final.alive") == 8
        assert resolve(CELL, "series.-1") == 1.0
        assert resolve(CELL, "phases.before.average") == 1.0
        assert resolve(CELL, "series|max") == 1.0
        assert resolve(CELL, "series|min") == 0.5
        assert resolve(CELL, "series|mean") == pytest.approx(2.5 / 3)
        assert resolve({"series": [0.0] * 5 + [1.0] * 10}, "series|tail") == 1.0
        assert resolve(CELL, "") is CELL

    def test_a_missing_key_or_value_is_none(self):
        assert resolve(CELL, "final.nope") is None
        assert resolve(CELL, "phases.after.average") is None
        assert resolve(CELL, "phases.during.average") is None

    def test_a_path_past_a_scalar_is_none(self):
        assert resolve({"a": 1.0}, "a.b") is None
        assert resolve({"a": "str"}, "a.b.c") is None
        assert resolve(CELL, "final.alive.count") is None
        assert resolve(CELL, "series.0.average") is None
        assert resolve(CELL, "series.before") is None

    def test_a_reducer_on_a_scalar_is_none(self):
        assert resolve({"n": 10}, "n|max") is None
        assert resolve(CELL, "final.alive|mean") is None

    def test_an_index_past_the_end_is_none(self):
        assert resolve({"series": [1.0]}, "series.5") is None
        assert resolve({"series": [1.0]}, "series.-2") is None
        assert resolve({"series": []}, "series.0") is None

    def test_columns_format_and_dash_missing_values(self):
        assert Column("a", "final.alive", "").text(CELL) == "8"
        assert Column("a", "series.0").text(CELL) == "0.5000"
        assert Column("a", "series", "spark").text(CELL) == sparkline(CELL["series"])
        assert Column("a", "phases.during.average").text(CELL) == "-"


class TestClaims:
    def test_a_failed_claim_names_its_reference_cell_and_numbers(self):
        claim = Claim("Fig. 3", "*", "series|tail", ">", 0.8)
        assert _failures([claim]) == ["check failed: s Fig. 3: cyclon series|tail = 0.5 > 0.8"]

    def test_a_cell_bound_is_spelled_out(self):
        claim = Claim("Fig. 2", "cyclon", "series.0", ">=", Ref("hyparview", "series.0", -0.2))
        assert _failures([claim]) == [
            "check failed: s Fig. 2: cyclon series.0 = 0.25 >= 0.3 (hyparview series.0 -0.2)"
        ]

    def test_own_cell_and_index_bounds(self):
        assert _failures([Claim("x", "*", "final.alive", "<", Ref(None, "n"), ANY)]) == []
        scaled = Claim("x", -1, "series.2", ">", Ref(0, "series.2", factor=0.5), ANY)
        assert _failures([scaled]) == []
        twice = Claim("x", -1, "series.2", ">", Ref(0, "series.2", factor=2.0), ANY)
        assert _failures([twice]) == [
            "check failed: s x: cyclon series.2 = 0.75 > 2 (2 * hyparview series.2)"
        ]

    def test_a_missing_value_fails_the_claim(self):
        claim = Claim("x", "hyparview", "phases.during.average", "<", 1.0, ANY)
        assert _failures([claim]) == [
            "check failed: s x: hyparview phases.during.average = None < 1"
        ]

    def test_a_path_past_a_scalar_fails_the_claim(self):
        """``final.alive`` is 8; a path that runs past it reads nothing, so
        the claim fails instead of comparing the 8."""
        claim = Claim("x", "hyparview", "final.alive.count", "<", 10, ANY)
        assert _failures([claim]) == [
            "check failed: s x: hyparview final.alive.count = None < 10"
        ]
        past_bound = Claim("x", "hyparview", "final.alive", "<", Ref(None, "n.max"), ANY)
        assert _failures([past_bound]) == [
            "check failed: s x: hyparview final.alive = 8 < None (hyparview n.max)"
        ]

    def test_claims_outside_their_scale_or_cells_are_skipped(self):
        never = "final.alive", ">", 100
        skipped = [
            Claim("x", "*", *never, BENCH),
            Claim("x", "*", *never, Scale(min_messages=4)),
            Claim("x", "*", *never, Scale(grid=("hyparview", "scamp"))),
            Claim("x", "scamp", *never, ANY),
            Claim("x", "*", "final.alive", ">", Ref("scamp", "n"), ANY),
        ]
        assert list(check_claims("s", skipped, None, ROWS, SHAPE_CHECK_MIN_N - 1, 3)) == []
        small = [Claim("x", "*", *never, Scale(max_n=SHAPE_CHECK_MIN_N - 1))]
        assert list(check_claims("s", small, None, ROWS, SHAPE_CHECK_MIN_N, 3)) == []
        assert len(_failures(small, n=SHAPE_CHECK_MIN_N - 1)) == 2

    def test_invariant_failures_name_the_cell(self):
        def invariant(cell):
            # Raised by hand: pytest rewrites the asserts of test modules.
            if cell["series"][0] < 0.3:
                raise AssertionError("first message reached a third")

        assert _failures([], invariant=invariant) == [
            "check failed: s invariant: cyclon: first message reached a third"
        ]

    def test_the_report_has_a_row_per_cell_and_scalars_in_the_title(self):
        text = render_report(
            "Title (n=10)", {"failure": 0.5, "grid": {}}, "grid", ROWS,
            [Column("alive", "final.alive", ""), Column("before", "phases.before.average")],
        )
        lines = text.splitlines()
        assert lines[0] == "Title (n=10); failure=0.5"
        assert lines[1].split() == ["cell", "alive", "before"]
        assert [line.split() for line in lines[3:]] == [
            ["hyparview", "8", "1.0000"], ["cyclon", "8", "1.0000"],
        ]


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


class TestSweepTimings:
    def test_record_sums_per_scenario(self):
        timings = SweepTimings()
        for scenario_id, elapsed, events in (("a", 0.5, 10), ("b", 1.0, 0), ("a", 0.25, 5)):
            unit = build_units(["fig1_hyparview_reference"], "smoke")[0]
            unit = replace(unit, scenario_id=scenario_id)
            timings.record(UnitOutcome(unit, {}, elapsed, events))
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
        context = build_units(["fig2_reliability"], "smoke")[0].context
        unit = WorkUnit("fig2_reliability", 1, context, cell=("cyclon", 0.5))
        assert unit.describe() == "fig2_reliability replicate 1 cell cyclon/0.5"
        single = WorkUnit("fig1_hyparview_reference", 0, context)
        assert single.describe() == "fig1_hyparview_reference replicate 0"

    def test_every_unit_carries_the_overridden_config(self):
        """``--n``, ``--messages`` and ``--replicates`` reach the context
        every cell runs with, not only the artifact's header."""
        units = build_units(["fig1c_failure50"], "paper", n=64, messages=3, replicates=3)
        assert len(units) == 3 * 2  # two baselines per replicate
        for unit in units:
            config = unit.context.config
            assert (config.n, config.messages, config.replicates) == (64, 3, 3)
            assert config.stabilization_cycles == 50
            assert unit.context.seed == replicate_seed(42, "fig1c_failure50", unit.replicate)
