"""Self-test of the benchmark, at toy size.  Not part of ``testpaths``; run

    PYTHONPATH=src python3 -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.workloads()
SIM = [name for name, spec in WORKLOADS.items() if not spec.live]


@pytest.fixture(scope="module")
def traced():
    """One traced toy run per workload, shared by the tests below."""
    return {name: run.execute(spec.toy(), 3, 0.3, True) for name, spec in WORKLOADS.items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, detail = run.execute(WORKLOADS[name].toy(), 3, 0.3, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["problems"] == []
    assert list(result["metrics"]) == [row[0] for row in metrics.END_TO_END]
    for metric, unit, _better, _bound in metrics.END_TO_END:
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, traced):
    result, _detail = traced[name]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [row[0] for row in metrics.PER_LAYER]
    for metric, unit, _better in metrics.PER_LAYER:
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert math.isfinite(entry["value"]) and entry["value"] >= 0, metric
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0
    spans = json.loads((harness.OUT_DIR / f"TRACE_{name}.json").read_text())["spans"]
    assert {"setup", "measure.exact"} <= {span["name"] for span in spans}
    assert all(span["end"] >= span["start"] for span in spans)


@pytest.mark.parametrize("name", SIM)
def test_sim_runs_repeat_exactly_and_depend_on_the_seed(name, traced):
    result, detail = traced[name]
    again, again_detail = run.execute(WORKLOADS[name].toy(), 3, 0.3, True)
    assert again_detail["sim_digest"] == detail["sim_digest"]
    assert again_detail["exact"] == detail["exact"]
    assert again_detail["snapshot_bytes"] == detail["snapshot_bytes"]
    # Profile call counts are the deterministic work counters: exact.
    for metric in (
        "sim.engine.events_per_op",
        "sim.network.sends_per_op",
        "sim.engine.drains_per_op",
        "sim.engine.timers_scheduled_per_op",
        "sim.engine.timers_cancelled_per_op",
        "sim.node.deliver_calls_per_op",
        "core.protocol.calls_per_op",
        "common.rng.draw_calls_per_op",
    ):
        assert again["metrics"][metric] == result["metrics"][metric], metric
    _other, other_detail = run.execute(WORKLOADS[name].toy(), 4, 0.3, False)
    assert other_detail["sim_digest"] != detail["sim_digest"]


def test_workloads_stress_different_layers(traced):
    def share(name, *parts):
        values = traced[name][0]["metrics"]
        total = values["trace.profile_us_per_op"]["value"]
        return sum(values[f"{part}.self_us_per_op"]["value"] for part in parts) / total

    membership = ("core.protocol", "core.views", "common.rng")
    assert share("sim_heal_episodes", *membership) > share("sim_flood_stable", *membership)
    assert share("sim_flood_stable", "gossip") > share("sim_heal_episodes", "gossip")
    fanout = "service.client_deliveries_per_op"
    assert (traced["live_serial_fanout"][0]["metrics"][fanout]["value"]
            > traced["live_window_bulk"][0]["metrics"][fanout]["value"])
    assert traced["sim_reliable_zoned"][0]["metrics"][
        "sim.engine.timers_cancelled_per_op"]["value"] > 0
    assert traced["sim_flood_stable"][0]["metrics"][
        "sim.engine.timers_scheduled_per_op"]["value"] == 0


def test_fold_charges_c_time_to_the_caller_and_keeps_the_total():
    engine = ("/x/src/repro/sim/engine.py", 10, "run_until_idle")
    gossip = ("/x/src/repro/gossip/flood.py", 20, "handle")
    heappush = ("/usr/lib/python3.11/heapq.py", 5, "heappush")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    root = ("~", 0, "<built-in method builtins.exec>")
    stats = {
        root: (1, 1, 0.05, 2.0, {}),
        engine: (1, 1, 0.50, 1.0, {root: (1, 1, 0.50, 1.0)}),
        gossip: (4, 4, 0.30, 0.4, {engine: (4, 4, 0.30, 0.4)}),
        # stdlib helper: transparent, split 3:1 between its callers
        heappush: (8, 8, 0.08, 0.1, {engine: (6, 6, 0.06, 0.07), gossip: (2, 2, 0.02, 0.03)}),
        # C call made by a layer and by the transparent helper
        append: (20, 20, 0.10, 0.1, {gossip: (10, 10, 0.06, 0.06), heappush: (10, 10, 0.04, 0.04)}),
    }
    folded = layers.fold(stats)
    assert folded["sim.engine"] == pytest.approx(0.50 + 0.06 + 0.04 * 0.75)
    assert folded["gossip"] == pytest.approx(0.30 + 0.02 + 0.06 + 0.04 * 0.25)
    assert folded["other"] == pytest.approx(0.05)
    assert sum(folded.values()) == pytest.approx(layers.total_self_time(stats))
    assert layers.function_calls(stats, "repro/sim/engine.py", "run_until_idle") == 1
    assert layers.module_calls(stats, "repro/gossip/flood.py") == 4


def test_fold_of_a_real_profile_sums_to_its_total():
    import cProfile

    from sim_workloads import SIM_WORKLOADS, measure, set_up

    spec = SIM_WORKLOADS[0].toy()
    tracer = harness.Tracer()
    blob, _scenario, _seconds = set_up(spec, tracer)
    profile = cProfile.Profile()
    measure(spec, blob, 5, tracer, seconds=None, profile=profile)
    stats = layers.table(profile)
    folded = layers.fold(stats)
    assert sum(folded.values()) == pytest.approx(layers.total_self_time(stats))
    assert folded["sim.network"] > 0 and folded["gossip"] > 0
    assert folded.get("other", 0.0) < 0.01 * sum(folded.values())


def test_reference_clock_scales_each_slice_by_the_host_speed_beside_it():
    calibration = harness.Calibration.__new__(harness.Calibration)
    reference = harness.SPIN_REFERENCE
    # spins at [0,1], [3,4], [8,9]: slices [1,3] at full speed, [4,8] at half
    calibration.samples = [(0.0, 1.0, reference), (3.0, 4.0, reference), (8.0, 9.0, 0.0)]
    clock = harness.ReferenceClock(calibration)
    assert clock.total() == pytest.approx(2.0 * 1.0 + 4.0 * 0.5)
    assert clock.between(1.5, 2.5) == pytest.approx(1.0)
    assert clock.between(5.0, 7.0) == pytest.approx(1.0)
    # an operation that spans a spin is not charged for the spin
    assert clock.between(2.0, 6.0) == pytest.approx(1.0 + 2.0 * 0.5)
    assert clock.between(0.0, 9.0) == pytest.approx(clock.total())


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert compare.verdict(steady, [value * 1.3 for value in steady], "higher", 0.1) == "better"
    assert compare.verdict(steady, [value * 1.3 for value in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [value * 1.05 for value in steady], "lower", 0.1) == "same"
    wide = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(wide, steady, "higher", 0.1) == "unresolved"


def test_benchmark_json_agrees_with_the_code():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(row) for row in metrics.PER_LAYER
    ]
