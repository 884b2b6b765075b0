"""Registry integration of the ``faults_*`` scenario family.

Same contract as the other grid scenarios: one cell per protocol, and
artifacts byte-identical across worker counts and snapshot-cache settings.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments.params import ExperimentParams
from repro.experiments.registry import get_scenario, scenario_ids
from repro.experiments.reporting import encode_artifact
from repro.experiments.runner import build_units, run_scenarios
from repro.experiments.scenario import Scenario
from repro.experiments.snapshots import stabilized_scenario
from repro.faults.measure import measure_fault_plan
from repro.faults.plan import CrashEvent, FaultPlan
from repro.faults.scenarios import CASCADE
from repro.testing import check_no_dead_active_peers

FAULT_IDS = tuple(s for s in scenario_ids() if s.startswith("faults_"))
TINY = dict(n=32, messages=4)


def _artifact_bytes(runs) -> dict[str, str]:
    return {
        scenario_id: encode_artifact(run.artifact())
        for scenario_id, run in runs.items()
    }


class TestFamilyShape:
    def test_at_least_four_fault_scenarios_registered(self):
        assert len(FAULT_IDS) >= 4
        expected = {
            "faults_partition_heal",
            "faults_cascade",
            "faults_wan_jitter",
            "faults_churn_trace",
            "faults_flash_crowd",
            "faults_adversary",
        }
        assert expected.issubset(set(FAULT_IDS))

    def test_every_fault_scenario_has_cells_per_protocol(self):
        for scenario_id in FAULT_IDS:
            assert get_scenario(scenario_id).group == "faults"
            units = build_units([scenario_id], "smoke", **TINY)
            assert len(units) >= 2, scenario_id  # one cell per protocol
            assert len({unit.cell for unit in units}) == len(units)


class TestFaultDeterminismMatrix:
    """workers x cache: byte-identical artifacts, like the existing
    mode-matrix tests for the figure scenarios."""

    def test_partition_and_wan_across_modes(self, assert_modes_match_reference):
        assert_modes_match_reference(
            ["faults_partition_heal", "faults_wan_jitter"], **TINY
        )

    def test_churn_and_flash_across_modes(self):
        ids = ["faults_churn_trace", "faults_flash_crowd"]
        reference = run_scenarios(ids, "smoke", workers=1, snapshot_cache=False, **TINY)
        candidate = run_scenarios(ids, "smoke", workers=2, snapshot_cache=True, **TINY)
        assert _artifact_bytes(candidate) == _artifact_bytes(reference)

    def test_replicates_reproducible_and_seed_sensitive(self):
        first = run_scenarios(["faults_cascade"], "smoke", workers=1, **TINY)
        again = run_scenarios(["faults_cascade"], "smoke", workers=1, **TINY)
        assert _artifact_bytes(first) == _artifact_bytes(again)
        other = run_scenarios(["faults_cascade"], "smoke", workers=1,
                              root_seed=7, **TINY)
        assert _artifact_bytes(other) != _artifact_bytes(first)


class TestFaultResults:
    def test_partition_heal_phases_cover_all_messages(self):
        runs = run_scenarios(["faults_partition_heal"], "smoke", workers=1, **TINY)
        result = runs["faults_partition_heal"].replicates[0]["result"]
        for cell in result.values():
            assert sum(row["messages"] for row in cell["phases"]) == cell["messages"]
            assert [row["phase"] for row in cell["phases"]] == [
                "before", "partitioned", "healed",
            ]

    def test_render_and_check_run_at_tiny_scale(self):
        runs = run_scenarios(list(FAULT_IDS), "smoke", workers=1, **TINY)
        for scenario_id, run in runs.items():
            assert run.render().strip(), scenario_id
            assert [failure for _, failure in run.check() if failure] == [], scenario_id

    def test_flash_crowd_restores_population(self):
        runs = run_scenarios(["faults_flash_crowd"], "smoke", workers=1, **TINY)
        result = runs["faults_flash_crowd"].replicates[0]["result"]
        for cell in result.values():
            assert cell["final"]["alive"] == TINY["n"]

    def test_adversary_drops_repair_traffic(self):
        runs = run_scenarios(["faults_adversary"], "smoke", workers=1,
                             n=48, messages=6)
        result = runs["faults_adversary"].replicates[0]["result"]
        assert result["hyparview"]["fault_stats"]["dropped_adversary"] > 0


class TestChurnTraceHoldsTheChurnBars:
    """HyParView rides out the churn trace at the smoke tier, where the
    scenario's own claims (bench scale, n >= 400) are skipped: it stays
    above 0.95 and connected, and keeps up with CyclonAcked, which itself
    stays above 0.7."""

    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5, 6, 42))
    def test_hyparview_rides_out_the_churn_trace(self, seed):
        runs = run_scenarios(["faults_churn_trace"], "smoke", workers=1, root_seed=seed)
        cells = runs["faults_churn_trace"].replicates[0]["result"]
        hyparview, acked = cells["hyparview"], cells["cyclon-acked"]
        assert hyparview["average"] > 0.95
        assert hyparview["final"]["largest_component"] > 0.95
        assert hyparview["average"] >= acked["average"] - 0.01
        assert acked["average"] > 0.7

@functools.lru_cache(maxsize=None)
def _hyparview_base(seed: int) -> bytes:
    """A stabilised n = 64 HyParView base at the smoke tier's settings."""
    params = ExperimentParams.scaled(64, seed=seed, stabilization_cycles=15)
    return stabilized_scenario("hyparview", params).freeze()


class TestNoDeadActivePeers:
    """A drained overlay keeps no crashed peer in an active view, after a
    cascade of crash waves and after one 70 % crash (Section 5.2)."""

    PLANS = {
        "cascade": CASCADE,
        "crash70": FaultPlan((CrashEvent(at=0.0, fraction=0.7),), label="crash"),
    }

    @pytest.mark.parametrize("seed", (1, 2, 3, 42))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_drained_plan_leaves_no_dead_active_peer(self, plan, seed):
        scenario = Scenario.thaw(_hyparview_base(seed))
        result = measure_fault_plan(scenario, self.PLANS[plan], messages=12)
        assert result["final"]["alive"] < 64  # the crashes happened
        check_no_dead_active_peers(scenario)

    def test_check_names_a_crash_not_yet_detected(self):
        scenario = Scenario.thaw(_hyparview_base(1))
        scenario.fail_nodes(scenario.node_ids[:5])
        with pytest.raises(AssertionError, match="crashed peers in the active view"):
            check_no_dead_active_peers(scenario)
        scenario.drain()
        check_no_dead_active_peers(scenario)
