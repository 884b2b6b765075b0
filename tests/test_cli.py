"""Tests for the experiments CLI (python -m repro)."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.n == 200
        assert args.seed == 42
        assert args.messages == 10


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--n", "60", "--messages", "3"]) == 0
        out = capsys.readouterr().out
        assert "avg reliability" in out
        assert "1.0000" in out

    # One figure of the paper = one registered scenario through `bench`.
    @staticmethod
    def _bench(scenario_id, *extra):
        return main(
            ["bench", "--scenario", scenario_id, "--n", "60", "--no-artifacts", *extra]
        )

    def test_figure_1a(self, capsys):
        assert self._bench("fig1a_cyclon_fanout", "--messages", "5") == 0
        out = capsys.readouterr().out
        assert "Figure 1a — Cyclon fanout sweep (n=60)" in out
        assert "atomic fraction" in out

    def test_figure_1c(self, capsys):
        assert self._bench("fig1c_failure50", "--messages", "5") == 0
        out = capsys.readouterr().out
        assert "cyclon" in out
        assert "scamp" in out

    def test_figure_table1(self, capsys):
        assert self._bench("table1_graph", "--messages", "3") == 0
        out = capsys.readouterr().out
        assert "hyparview" in out
        assert "avg clustering" in out

    def test_figure_5(self, capsys):
        assert self._bench("fig5_indegree", "--messages", "3") == 0
        out = capsys.readouterr().out
        assert "in-degree" in out

    def test_healing(self, capsys):
        assert self._bench("fig4_healing") == 0
        out = capsys.readouterr().out
        assert "cycles to heal" in out
        assert "hyparview/0.30" in out

    def test_ablation_resend(self, capsys):
        assert self._bench("ablation_flood_resend", "--messages", "3") == 0
        out = capsys.readouterr().out
        assert "resend on repair" in out
        assert "failure=0.6" in out


class TestChaosCli:
    """The live-run subcommand's argument and error surfaces.

    (The happy path of the run itself is tested beside it, in
    ``test_service_pubsub.py``; here we pin parsing, the structured exit-2
    error contract and the exit-1 staleness contract.)
    """

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.nodes == 8
        assert args.plan is None
        assert args.seed == 7
        assert args.time_scale == 1.0
        assert args.out is None

    def test_chaos_oversized_plan_is_structured_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"label": "big", "events": '
            '[{"kind": "crash", "at": 0.1, "count": 64}]}'
        )
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "64" in err and "4" in err  # needed vs. actual, for operators

    def test_chaos_duplicating_plan_is_structured_error(self, tmp_path, capsys):
        # The live transport cannot duplicate a frame: refused, not weakened.
        plan = tmp_path / "dup.json"
        plan.write_text(
            '{"label": "dup", "events": [{"kind": "degrade", "at": 0.0, '
            '"until": 1.0, "duplicate_rate": 0.2}]}'
        )
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "duplicate_rate" in err

    def test_chaos_malformed_plan_file_is_structured_error(self, tmp_path, capsys):
        plan = tmp_path / "bad.json"
        plan.write_text("{this is not json")
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_chaos_mutation_plan_reports_wrong_deliveries(self, tmp_path, capsys):
        # Every relay is corrupted from t=0.1 on, so every delivery of an
        # "after" message but the origin's own is wrong, however the
        # timing falls.
        plan = tmp_path / "byz.json"
        plan.write_text(
            '{"label": "byz", "events": '
            '[{"kind": "mutation", "at": 0.1, "fraction": 1.0}]}'
        )
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "wrong" in line).split()
        after = next(line for line in out.splitlines() if line.split()[:1] == ["after"]).split()
        assert int(after[header.index("wrong")]) > 0

    def test_chaos_unknown_event_kind_is_structured_error(self, tmp_path, capsys):
        plan = tmp_path / "unknown.json"
        plan.write_text(
            '{"label": "unknown", "events": [{"kind": "stampede", '
            '"at": 0.1, "count": 2, "drop_types": ["GossipData"]}]}'
        )
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 2
        assert "unknown kind 'stampede'" in capsys.readouterr().err

    def test_chaos_missing_plan_file_is_structured_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["chaos", "--plan", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_chaos_invalid_size_is_structured_error(self, capsys):
        assert main(["chaos", "--nodes", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_invalid_time_scale_is_structured_error(self, capsys):
        # Refused by the controller before any socket opens, not timed out.
        assert main(["chaos", "--nodes", "4", "--time-scale", "0"]) == 2
        assert "time_scale must be positive" in capsys.readouterr().err

    def test_chaos_stale_delivery_exits_1(self, monkeypatch, tmp_path, capsys):
        import repro.service.bench as bench

        async def stale_run(plan, **_options):
            return {"staleness": {"stale_deliveries": 2}}

        monkeypatch.setattr(bench, "run_live_plan", stale_run)
        monkeypatch.setattr(bench, "format_report", lambda report: "report")
        assert main(["chaos", "--out", str(tmp_path)]) == 1
        assert (tmp_path / "BENCH_service_live.json").exists()
        err = capsys.readouterr().err
        assert "error: 2 stale-incarnation deliveries reached clients" in err


#: Any JSON value, with the trace artifact's keys over-represented.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(
        st.sampled_from(["replicate", "segments", "records", "dropped", "x"]),
        children,
        max_size=4,
    ),
    max_leaves=30,
)
#: Records of the exported shape, with any float time and any depth ...
RECORD = st.tuples(
    st.floats(),
    st.sampled_from(["send", "deliver", "drop-loss"]),
    st.sampled_from(["GossipData", "GossipAck", "Join"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["a#0", "b#0"]),
    st.none() | st.integers(-1, 3),
).map(list)
#: ... and such records with one field swapped for any JSON value.
LOOSE_RECORD = st.tuples(RECORD, st.integers(0, 6), JSON).map(
    lambda t: [*t[0][: t[1]], t[2], *t[0][t[1] + 1 :]]
)
SEGMENT = st.fixed_dictionaries(
    {
        "records": st.lists(RECORD, min_size=1, max_size=6)
        | st.lists(LOOSE_RECORD, min_size=1, max_size=2)
        | st.lists(RECORD | JSON, max_size=6),
        "dropped": st.integers(0, 2) | JSON,
    }
)
REPLICATES = JSON | st.lists(
    st.fixed_dictionaries({"replicate": st.just(0), "segments": st.lists(SEGMENT, max_size=3)})
    | st.fixed_dictionaries({"replicate": JSON, "segments": JSON}),
    max_size=3,
)


def _write_trace(path, replicates):
    path.write_text(
        json.dumps(
            {
                "schema": "repro-trace/1",
                "scenario": "s",
                "tier": "smoke",
                "root_seed": 1,
                "replicates": replicates,
            }
        )
    )
    return str(path)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One traced fig2 run, written by ``bench --trace``, that every
    ``repro trace`` test reads."""
    out = tmp_path_factory.mktemp("traced")
    argv = ["bench", "--trace", "--scenario", "fig2_reliability", "--n", "40",
            "--messages", "2", "--replicates", "1", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out


@pytest.fixture(scope="module")
def trace_file(trace_dir):
    return str(trace_dir / "TRACE_fig2_reliability.json")


def _first_key(capsys, trace_file):
    assert main(["trace", trace_file]) == 0
    table = capsys.readouterr().out
    return next(line.split()[0] for line in table.splitlines() if "#" in line and "/" in line)


class TestTraceCli:
    """``bench --trace`` writes a TRACE_ file beside the BENCH_ one, and
    ``repro trace`` reads it back: summary tables, Chrome-trace dumps and
    the same structured exit-2 error contract as chaos/bench."""

    def test_defaults(self):
        args = build_parser().parse_args(["trace", "t.json"])
        assert str(args.path) == "t.json"
        assert args.replicate == 0
        assert args.message is None
        assert args.out is None

    def test_bench_writes_the_trace_beside_the_artifact(self, trace_dir):
        assert sorted(p.name for p in trace_dir.iterdir()) == [
            "BENCH_fig2_reliability.json",
            "TRACE_fig2_reliability.json",
        ]

    def test_summary_table(self, capsys, trace_file):
        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "dissemination trace: fig2_reliability tier=smoke replicate=0" in out
        assert "deliveries" in out and "t_full (s)" in out
        assert "segment(s)" in out and "dropped" in out

    def test_message_dump_is_chrome_trace_json(self, capsys, trace_file):
        key = _first_key(capsys, trace_file)
        assert main(["trace", trace_file, "--message", key]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["otherData"]["message"] == key
        assert any(event["ph"] == "X" for event in trace["traceEvents"])

    def test_message_dump_to_file(self, tmp_path, capsys, trace_file):
        out = tmp_path / "trees" / "msg.json"
        key = _first_key(capsys, trace_file)
        assert main(["trace", trace_file, "--message", key, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["otherData"]["message"] == key

    # A superscript digit passes ``str.isdigit`` but not ``int``.
    @pytest.mark.parametrize("key", ["zz:0#99", "\u00b2/zz:0#99"])
    def test_unknown_message_id_is_structured_error(self, capsys, trace_file, key):
        assert main(["trace", trace_file, "--message", key]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown message id" in err
        assert "--message" in err  # points back at the id list

    def test_unwritable_out_is_structured_error(self, tmp_path, capsys, trace_file):
        (tmp_path / "file").write_text("")
        key = _first_key(capsys, trace_file)
        out = tmp_path / "file" / "msg.json"
        assert main(["trace", trace_file, "--message", key, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_out_without_message_is_structured_error(self, tmp_path, capsys, trace_file):
        assert main(["trace", trace_file, "--out", str(tmp_path / "x.json")]) == 2
        assert "needs --message" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_bench_trace_without_artifacts_is_structured_error(self, capsys):
        argv = ["bench", "--trace", "--no-artifacts", "--scenario", "fig2_reliability"]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_structured_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "TRACE_nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_file_is_structured_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2  # a directory
        assert "cannot read" in capsys.readouterr().err

    def test_non_json_file_is_structured_error(self, tmp_path, capsys):
        path = tmp_path / "TRACE_x.json"
        path.write_text("{this is not json")
        assert main(["trace", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bench_file_is_structured_error(self, capsys, trace_dir):
        assert main(["trace", str(trace_dir / "BENCH_fig2_reliability.json")]) == 2
        assert "unsupported artifact schema 'repro-bench/1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "replicates",
        [
            "all",
            [{"replicate": 0, "segments": "none"}],
            [{"replicate": 0, "segments": [{"records": [[0.0, "send"]], "dropped": 0}]}],
        ],
        ids=["replicates", "segments", "record"],
    )
    def test_malformed_trace_is_structured_error(self, tmp_path, capsys, replicates):
        assert main(["trace", _write_trace(tmp_path / "TRACE_s.json", replicates)]) == 2
        assert "error: trace artifact" in capsys.readouterr().err

    def test_unknown_replicate_is_structured_error(self, capsys, trace_file):
        assert main(["trace", trace_file, "--replicate", "5"]) == 2
        assert "replicate 5 not in trace artifact (have [0])" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(replicates=REPLICATES)
    def test_any_replicates_value_exits_0_or_2(self, tmp_path_factory, replicates):
        path = _write_trace(tmp_path_factory.getbasetemp() / "TRACE_fuzz.json", replicates)
        argv = ["trace", path]
        while argv:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2)
            assert code == 0 or err.getvalue().startswith("error: ")
            # Dump the first message of a table too.
            rows = out.getvalue().splitlines()[3:-1] if "--message" not in argv else []
            argv = ["trace", path, "--message", rows[0].split()[0]] if rows else []

    def test_retired_flags_and_commands_exit_2(self):
        # There is one kernel and one execution model, and no flag or
        # subcommand to pick another; ``trace`` reads a file and runs
        # nothing; ``chaos`` is the one live run, its client load a
        # constant.  All are argparse's exit 2.  (Retired flags are
        # spelled in halves so a grep for them over the tree is empty.)
        for argv in (
            ["bench", "--kernel", "sharded"],
            ["bench", "--" + "cells", "off"],
            ["bench", "--trace" + "-out", "traces"],
            ["trace"],
            ["trace", "t.json", "--" + "cells", "off"],
            ["trace", "t.json", "--tier", "smoke"],
            ["trace", "t.json", "--scenario", "fig2_reliability"],
            ["figure", "2"],
            ["healing"],
            ["ablation", "resend"],
            ["compare"],
            ["service" + "-bench"],
            ["chaos", "--" + "settle", "0.5"],
            ["chaos", "--" + "clients", "100"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv

    def test_bench_trace_flag_parses(self):
        args = build_parser().parse_args(["bench", "--trace", "--scenario", "fig2_reliability"])
        assert args.trace is True
