"""Orchestrator tests: registry completeness, parallel-vs-serial
determinism of the JSON artifacts, and `repro bench` CLI handling."""

from __future__ import annotations

import copy
import io
import json
from dataclasses import replace
from fnmatch import fnmatchcase

import pytest

from repro.cli import build_parser, main
from repro.common.errors import ConfigurationError
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import (
    REGISTRY,
    TIER_SCALES,
    RunContext,
    TierConfig,
    get_scenario,
    register,
    scenario_ids,
)
from repro.experiments.reporting import (
    ANY,
    ARTIFACT_SCHEMA,
    SHAPE_CHECK_MIN_N,
    Claim,
    Ref,
    encode_artifact,
    json_safe,
    load_artifact,
    write_artifact,
)
from repro.experiments.runner import (
    build_units,
    replicate_seed,
    run_and_report,
    run_scenarios,
    write_artifacts,
)

#: Cheap but structurally different scenarios for runner-level tests.
FAST_IDS = ("fig1_hyparview_reference", "fig1c_failure50")
#: Tiny override so runner tests stay in the sub-second range per cell.
TINY = dict(n=32, messages=2)


class TestRegistry:
    def test_every_scenario_resolves_and_has_all_tiers(self):
        assert len(REGISTRY) >= 15
        for scenario_id in scenario_ids():
            spec = get_scenario(scenario_id)
            assert spec.id == scenario_id
            for tier, (n, cycles) in TIER_SCALES.items():
                config = spec.tier(tier)
                assert (config.n, config.stabilization_cycles) == (n, cycles)
                assert config.messages == spec.messages[tier]
                assert config.extra == spec.options.get(tier, {})
            assert callable(spec.run_cell)
            assert spec.columns
            # One execution model: every scenario enumerates >= 1 cell.
            units = build_units([scenario_id], "smoke", replicates=1)
            assert units and all(isinstance(unit.cell, tuple) for unit in units)

    def test_tier_ordering_smoke_is_cheapest(self):
        for scenario_id in scenario_ids():
            spec = get_scenario(scenario_id)
            assert spec.tier("smoke").n < spec.tier("paper").n

    def test_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("not_a_scenario")

    def test_unknown_tier_raises(self):
        spec = get_scenario("fig2_reliability")
        with pytest.raises(ConfigurationError, match="no 'nope' tier"):
            spec.tier("nope")

    def test_build_units_unknown_tier_names_the_available_tiers(self):
        with pytest.raises(ConfigurationError, match="no 'nope' tier") as error:
            build_units(["fig2_reliability"], "nope")
        for tier in TIER_SCALES:
            assert repr(tier) in str(error.value)

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("fig2_reliability")
        with pytest.raises(ConfigurationError, match="duplicate"):
            register(spec)

    @pytest.mark.parametrize("change", [
        {"messages": {"smoke": 6}},
        {"messages": {"smoke": 6, "paper": 50, "full": 50}},
        {"options": {"full": {"fractions": (0.5,)}}},
    ])
    def test_registration_rejects_tiers_outside_the_table(self, change):
        spec = replace(get_scenario("fig2_reliability"), id="fig2_other_tiers", **change)
        with pytest.raises(ConfigurationError, match="exactly the tiers"):
            register(spec)
        assert "fig2_other_tiers" not in REGISTRY

    def test_every_scenario_smoke_runs(self):
        """Every registry entry executes end-to-end at a tiny scale and
        produces a JSON-encodable, render-able, check-passing result whose
        cells hold every path its claims read."""
        runs = run_scenarios(scenario_ids(), "smoke", workers=1, **TINY)
        for scenario_id, run in runs.items():
            assert run.replicates, scenario_id
            text = run.render()
            assert text.strip(), scenario_id
            # Sanity claims and invariants hold at any scale.
            assert [failure for _, failure in run.check() if failure] == []
            json.loads(encode_artifact(run.artifact()))
            rows = dict(_rows(run))
            for claim in run.spec.claims:
                # Cells of one scenario share a shape: a claim on a cell the
                # thinned smoke grid lacks is read off its first cell.
                selected = [cell for _, cell in _selected(rows, claim.cells)]
                for cell in selected or list(rows.values())[:1]:
                    assert _has_path(cell, claim.metric), (scenario_id, claim)
                    ref = claim.bound
                    if isinstance(ref, Ref):
                        source = (
                            list(rows.values())[ref.cell] if isinstance(ref.cell, int)
                            else rows.get(ref.cell, cell) if ref.cell is not None else cell
                        )
                        assert _has_path(source, ref.metric), (scenario_id, claim)

    def test_every_claim_names_cells_of_the_paper_grid(self):
        """A typo in a selector would make a claim vacuous: every claim's
        cells, bound cells and required grid are cells of the paper tier."""
        for scenario_id in scenario_ids():
            spec = get_scenario(scenario_id)
            context = build_units([scenario_id], "paper")[0].context
            labels = dict(spec.cell_rows(context, _labelled_grid(spec, context)))
            for claim in spec.claims:
                assert _selected(labels, claim.cells), (scenario_id, claim)
                bound_cell = getattr(claim.bound, "cell", None)
                assert not isinstance(bound_cell, str) or bound_cell in labels, claim
                assert set(claim.scale.grid) <= labels.keys(), claim


def _rows(run, replicate: int = 0) -> list[tuple[str, dict]]:
    record = run.replicates[replicate]
    context = RunContext(run.config, record["seed"])
    return run.spec.cell_rows(context, record["result"])


def _selected(rows: dict, selector) -> list:
    if isinstance(selector, int):
        return [list(rows.items())[selector]]
    return [(label, cell) for label, cell in rows.items() if fnmatchcase(label, selector)]


def _labelled_grid(spec, context) -> dict:
    """A merged result whose every cell is its own label (nothing is run)."""
    cells = {key: {"/".join(map(str, key))} for key in spec.cells(context)}
    return spec.merge_cells(context, cells)


def _has_path(cell, path: str) -> bool:
    """Every key of ``path`` exists in ``cell`` (its value may be ``None``)."""
    value = cell
    for part in filter(None, path.partition("|")[0].split(".")):
        if isinstance(value, list):
            if part.lstrip("-").isdigit():
                if not -len(value) <= int(part) < len(value):
                    return False
                value = value[int(part)]
            else:
                value = next((row for row in value if row.get("phase") == part), None)
                if value is None:
                    return False
        elif isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return False
    return True


class TestClaimChecks:
    def test_a_result_pushed_past_one_bound_fails_exactly_that_claim(self):
        run = run_scenarios(["fig1_hyparview_reference"], "smoke", workers=1, **TINY)[
            "fig1_hyparview_reference"
        ]
        assert [failure for _, failure in run.check() if failure] == []
        record = copy.deepcopy(run.replicates[0])
        record["result"]["point"]["atomic_fraction"] = 0.5
        failures = [failure for _, failure in replace(run, replicates=(record,)).check() if failure]
        assert failures == [
            "check failed: fig1_hyparview_reference Fig. 1: - point.atomic_fraction = 0.5 == 1"
        ]

    def test_render_is_the_same_for_any_worker_count(self):
        serial = run_scenarios(["fig2_reliability"], "smoke", workers=1, **TINY)
        parallel = run_scenarios(["fig2_reliability"], "smoke", workers=2, **TINY)
        assert serial["fig2_reliability"].render() == parallel["fig2_reliability"].render()


@pytest.mark.slow
@pytest.mark.parametrize("scenario_id", ["fig4_healing", "table1_graph"])
def test_bench_scale_claims_hold_on_the_smoke_grid(scenario_id):
    """No tier-1 run reaches n = 400 otherwise: the paper's shape claims of
    Figure 4 and Table 1 are evaluated there, and all hold."""
    run = run_scenarios([scenario_id], "smoke", workers=2, n=SHAPE_CHECK_MIN_N)[scenario_id]
    outcomes = run.check()
    assert [failure for _, failure in outcomes if failure] == []
    assert any(claim is not None and claim.scale.min_n >= SHAPE_CHECK_MIN_N
               for claim, _ in outcomes)


@pytest.mark.slow
@pytest.mark.parametrize("scenario_id", scenario_ids())
def test_tier_options_are_exactly_the_keys_tiers_set(scenario_id, monkeypatch):
    """A value only an edit can change is a constant, not a tier option:
    every key a replicate reads is set by some tier of its scenario, and
    every key a tier sets is read (``option`` ignores typos silently)."""
    read: set[str] = set()
    option = RunContext.option

    def recording(ctx, key, default):
        read.add(key)
        return option(ctx, key, default)

    monkeypatch.setattr(RunContext, "option", recording)
    run_scenarios([scenario_id], "smoke", workers=1, replicates=1, **TINY)
    options = get_scenario(scenario_id).options.values()
    assert read == {key for tier_options in options for key in tier_options}


class TestRunContext:
    def test_scaled_params_from_config(self):
        context = RunContext(
            config=TierConfig(n=50, messages=5, stabilization_cycles=7), seed=123
        )
        params = context.params()
        assert params.n == 50
        assert params.seed == 123
        assert params.stabilization_cycles == 7

    @pytest.mark.parametrize("scenario_id", scenario_ids())
    def test_paper_tier_runs_the_paper_configuration(self, scenario_id):
        """Every scenario's paper tier is Section 5.1's setting, which
        ``tests/test_core_config.py`` checks number by number."""
        params = RunContext(get_scenario(scenario_id).tier("paper"), seed=9).params()
        assert params == ExperimentParams.scaled(10_000, seed=9)

    def test_extra_options_reach_the_run(self):
        config = TierConfig(n=50, messages=5, stabilization_cycles=7, extra={"fractions": (0.3,)})
        context = RunContext(config, 1)
        assert context.option("fractions", None) == (0.3,)
        assert context.option("absent", "default") == "default"


class TestSeedDerivation:
    def test_replicate_seeds_are_deterministic(self):
        a = replicate_seed(42, "fig2_reliability", 0)
        b = replicate_seed(42, "fig2_reliability", 0)
        assert a == b

    def test_replicate_seeds_are_distinct_across_cells(self):
        seeds = {
            replicate_seed(root, scenario, replicate)
            for root in (1, 2)
            for scenario in ("fig2_reliability", "table1_graph")
            for replicate in range(3)
        }
        assert len(seeds) == 12

    def test_units_carry_per_replicate_seeds(self):
        units = build_units(
            ["fig1_hyparview_reference"], "smoke", root_seed=7, replicates=3
        )
        assert [unit.replicate for unit in units] == [0, 1, 2]
        assert len({unit.context.seed for unit in units}) == 3

    def test_cell_units_share_their_replicate_seed(self):
        # fig1c_failure50 is one cell per baseline; every cell of one
        # replicate must observe the replicate's seed, whichever worker runs it.
        units = build_units(["fig1c_failure50"], "smoke", root_seed=7, replicates=2)
        assert [unit.replicate for unit in units] == [0, 0, 1, 1]
        seeds = {}
        for unit in units:
            seeds.setdefault(unit.replicate, set()).add(unit.context.seed)
        assert all(len(per_replicate) == 1 for per_replicate in seeds.values())
        assert seeds[0] != seeds[1]


class TestParallelDeterminism:
    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        serial = run_scenarios(FAST_IDS, "smoke", workers=1, replicates=2, **TINY)
        parallel = run_scenarios(FAST_IDS, "smoke", workers=2, replicates=2, **TINY)
        serial_paths = write_artifacts(serial, tmp_path / "serial")
        parallel_paths = write_artifacts(parallel, tmp_path / "parallel")
        assert [p.name for p in serial_paths] == [p.name for p in parallel_paths]
        for a, b in zip(serial_paths, parallel_paths):
            assert a.read_bytes() == b.read_bytes()

    def test_replicates_differ_but_are_reproducible(self):
        first = run_scenarios(["fig1c_failure50"], "smoke", workers=1, replicates=2, **TINY)
        again = run_scenarios(["fig1c_failure50"], "smoke", workers=1, replicates=2, **TINY)
        run = first["fig1c_failure50"]
        assert run.replicates[0]["seed"] != run.replicates[1]["seed"]
        assert encode_artifact(run.artifact()) == encode_artifact(
            again["fig1c_failure50"].artifact()
        )

    def test_root_seed_changes_results(self):
        a = run_scenarios(["fig1c_failure50"], "smoke", workers=1, root_seed=1, **TINY)
        b = run_scenarios(["fig1c_failure50"], "smoke", workers=1, root_seed=2, **TINY)
        assert (
            a["fig1c_failure50"].replicates[0]["seed"]
            != b["fig1c_failure50"].replicates[0]["seed"]
        )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_scenarios(FAST_IDS, "smoke", workers=0)


class TestArtifacts:
    def test_round_trip_and_schema_guard(self, tmp_path):
        runs = run_scenarios(["fig1_hyparview_reference"], "smoke", workers=1, **TINY)
        path = write_artifact(tmp_path, runs["fig1_hyparview_reference"].artifact())
        assert path.name == "BENCH_fig1_hyparview_reference.json"
        loaded = load_artifact(path)
        assert loaded["schema"] == ARTIFACT_SCHEMA
        assert loaded["scenario"] == "fig1_hyparview_reference"
        assert loaded["config"]["n"] == TINY["n"]

        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text('{"schema": "other/9", "scenario": "bogus"}')
        with pytest.raises(ConfigurationError, match="unsupported artifact schema"):
            load_artifact(bogus)

    def test_json_safe_conversions(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Point:
            x: int
            series: tuple

        converted = json_safe({1: Point(3, (1.0, float("nan"))), "s": {2, 1}})
        assert converted == {"1": {"x": 3, "series": [1.0, None]}, "s": [1, 2]}

    def test_artifact_contains_no_timestamps(self):
        runs = run_scenarios(["fig1_hyparview_reference"], "smoke", workers=1, **TINY)
        text = encode_artifact(runs["fig1_hyparview_reference"].artifact())
        for forbidden in ("time", "date", "duration", "elapsed", "host"):
            assert forbidden not in text.lower()

    def test_run_and_report_timings_go_to_the_stream_only(self, tmp_path):
        buf = io.StringIO()
        run_and_report(
            ["fig1_hyparview_reference"], "smoke", out_dir=tmp_path, stream=buf, **TINY
        )
        text = buf.getvalue()
        assert "per-scenario timings" in text
        assert "kernel events/s" in text
        row = next(
            line for line in text.splitlines()
            if line.startswith("fig1_hyparview_reference ")
        )
        assert row.split()[1] == "1"  # units: the one-cell grid
        assert "snapshot cache:" in text
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_fig1_hyparview_reference.json"
        ]


class TestBenchCli:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.tier == "smoke"
        assert args.workers == 1
        assert args.scenario is None
        assert args.seed == 42

    def test_tier_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--tier", "huge"])

    def test_scenario_is_repeatable(self):
        args = build_parser().parse_args(
            ["bench", "--scenario", "fig1c_failure50", "--scenario", "overhead"]
        )
        assert args.scenario == ["fig1c_failure50", "overhead"]

    def test_list_prints_catalogue(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario_id in scenario_ids():
            assert scenario_id in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["bench", "--scenario", "nope", "--no-artifacts"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "Traceback" not in err

    def test_bench_run_writes_artifacts(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "--tier", "smoke",
                "--workers", "2",
                "--scenario", "fig1_hyparview_reference",
                "--scenario", "fig1c_failure50",
                "--n", "32",
                "--messages", "2",
                "--check",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "===== fig1_hyparview_reference =====" in out
        written = sorted(p.name for p in tmp_path.iterdir())
        # Wall-clock goes to stderr only: the BENCH_* files are all there is.
        assert written == [
            "BENCH_fig1_hyparview_reference.json",
            "BENCH_fig1c_failure50.json",
        ]

    def test_failed_checks_are_all_reported_and_exit_one(self, capsys, tmp_path, monkeypatch):
        impossible = {
            "fig1_hyparview_reference": Claim("Fig. 0", "*", "point.fanout", ">", 99, ANY),
            "fig1c_failure50": Claim("Fig. 0", "*", "messages", ">", 99, ANY),
        }
        for scenario_id, claim in impossible.items():
            spec = REGISTRY[scenario_id]
            monkeypatch.setitem(
                REGISTRY, scenario_id, replace(spec, claims=spec.claims + (claim,))
            )
        args = ["bench", "--n", "32", "--messages", "2", "--check", "--out", str(tmp_path)]
        for scenario_id in FAST_IDS:
            args += ["--scenario", scenario_id]
        assert main(args) == 1
        captured = capsys.readouterr()
        failures = [line for line in captured.err.splitlines() if line.startswith("check failed:")]
        assert failures == [
            "check failed: fig1_hyparview_reference Fig. 0: - point.fanout = 4 > 99",
            "check failed: fig1c_failure50 Fig. 0: cyclon messages = 2 > 99",
            "check failed: fig1c_failure50 Fig. 0: scamp messages = 2 > 99",
        ]
        for scenario_id in FAST_IDS:
            assert f"===== {scenario_id} =====" in captured.out
            assert (tmp_path / f"BENCH_{scenario_id}.json").exists()
        assert "Traceback" not in captured.err

    def test_cell_and_cache_flags(self, capsys, tmp_path):
        """--no-snapshot-cache runs the same cells and writes byte-identical
        artifacts (the determinism contract); there is no flag that turns
        the cells themselves off."""
        base_args = [
            "bench", "--scenario", "fig2_reliability",
            "--n", "32", "--messages", "2",
        ]
        assert main(base_args + ["--out", str(tmp_path / "a")]) == 0
        assert main(base_args + ["--no-snapshot-cache", "--out", str(tmp_path / "c")]) == 0
        name = "BENCH_fig2_reliability.json"
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        assert not hasattr(build_parser().parse_args(["bench"]), "cells")

    def test_no_artifacts_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["bench", "--scenario", "fig1_hyparview_reference",
             "--n", "32", "--messages", "2", "--no-artifacts"]
        ) == 0
        assert not (tmp_path / "benchmarks").exists()
