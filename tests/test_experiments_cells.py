"""Cell sharding, snapshot cache and freeze/thaw determinism tests.

The orchestrator's contract: ``BENCH_*.json`` artifacts are a pure
function of ``(root_seed, scenario, tier, overrides)`` — byte-identical
across worker counts and snapshot cache on/off, and identical to the
reference run (``workers=1, snapshot_cache=False``: one process, every
cell stabilising its own base from scratch).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.common.errors import SimulationError
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import get_scenario, scenario_ids
from repro.experiments.reporting import encode_artifact
from repro.experiments.runner import (
    SweepTimings,
    build_chunks,
    build_units,
    run_scenarios,
    write_artifacts,
)
from repro.experiments.scenario import Scenario
from repro.experiments.snapshots import SnapshotCache, stabilized_scenario

#: The headline grid scenario (protocol x fraction cells) at toy scale.
GRID_ID = "fig2_reliability"
TINY = dict(n=32, messages=2)


def _artifact_bytes(runs) -> dict[str, str]:
    return {scenario_id: encode_artifact(run.artifact()) for scenario_id, run in runs.items()}


def _edges(scenario: Scenario) -> dict:
    snapshot = scenario.snapshot()
    return {node: snapshot.out_neighbors(node) for node in snapshot.nodes()}


class TestCellEnumeration:
    def test_grid_scenario_expands_to_protocol_x_fraction(self):
        spec = get_scenario(GRID_ID)
        units = build_units([GRID_ID], "smoke", **TINY)
        smoke = spec.tier("smoke")
        protocols = 4  # PAPER_PROTOCOLS
        fractions = len(smoke.extra["fractions"])
        assert len(units) == protocols * fractions
        assert len({unit.cell for unit in units}) == len(units)
        assert [unit.cell for unit in units] == list(spec.cells(units[0].context))

    def test_single_point_scenario_is_a_one_cell_grid(self):
        spec = get_scenario("fig1_hyparview_reference")
        assert spec.axes == ()
        units = build_units(["fig1_hyparview_reference"], "smoke", **TINY)
        assert [unit.cell for unit in units] == [()]
        assert len(build_chunks(units, 2)) == 1

    @pytest.mark.parametrize("scenario_id", scenario_ids())
    def test_merge_follows_declared_axes_not_arrival_order(self, scenario_id):
        """Stub cell results inserted in shuffled order merge to the same
        result, key order included (``run_scenarios`` fills the mapping in
        ``imap_unordered`` completion order)."""
        spec = get_scenario(scenario_id)
        units = build_units([scenario_id], "smoke", **TINY)
        assert units and all(isinstance(unit.cell, tuple) for unit in units)
        context = units[0].context
        keys = [unit.cell for unit in units]
        stubs = {key: {"cell": list(key)} for key in keys}
        expected = json.dumps(spec.merge_cells(context, stubs))
        for seed in range(3):
            random.Random(seed).shuffle(keys)
            arrived = {key: stubs[key] for key in keys}
            assert json.dumps(spec.merge_cells(context, arrived)) == expected


class TestAffinityChunks:
    def test_chunks_group_cells_by_protocol(self):
        units = build_units([GRID_ID], "smoke", **TINY)
        chunks = build_chunks(units, 4)
        assert len(chunks) == 4  # one per protocol
        for chunk in chunks:
            assert len({unit.cell[0] for unit in chunk}) == 1

    def test_chunks_split_when_fewer_than_workers(self):
        units = build_units([GRID_ID], "smoke", **TINY)  # 4 affinity groups
        for workers in (5, 6, 8, 16):
            chunks = build_chunks(units, workers)
            # No worker may idle while another runs a multi-cell chain.
            assert len(chunks) >= min(workers, len(units))

    def test_chunks_cover_all_units_exactly_once(self):
        units = build_units([GRID_ID, "overhead", "fig1a_cyclon_fanout"], "smoke", **TINY)
        chunks = build_chunks(units, 6)
        flattened = [unit for chunk in chunks for unit in chunk]
        assert sorted(map(repr, flattened)) == sorted(map(repr, units))

    def test_fanout_cells_form_one_affinity_group(self):
        units = build_units(["fig1a_cyclon_fanout"], "smoke", **TINY)
        assert len(build_chunks(units, 1)) == 1  # all cells share one base


class TestShardingDeterminism:
    def test_parallel_equals_serial_for_grid_scenario(self, tmp_path):
        serial = run_scenarios([GRID_ID], "smoke", workers=1, **TINY)
        parallel = run_scenarios([GRID_ID], "smoke", workers=4, **TINY)
        a = write_artifacts(serial, tmp_path / "serial")
        b = write_artifacts(parallel, tmp_path / "parallel")
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]

    def test_cached_equals_uncached(self):
        cached = run_scenarios([GRID_ID], "smoke", workers=2, snapshot_cache=True, **TINY)
        uncached = run_scenarios(
            [GRID_ID], "smoke", workers=2, snapshot_cache=False, **TINY
        )
        assert _artifact_bytes(cached) == _artifact_bytes(uncached)

    def test_all_modes_agree_for_fanout_and_healing(self, assert_modes_match_reference):
        """More shapes of grid (fanout cells, healing cells, the one-cell
        reference point, graph rows and overhead cells) across the
        full mode matrix."""
        assert_modes_match_reference(
            [
                "fig1a_cyclon_fanout",
                "fig4_healing",
                "fig1_hyparview_reference",
                "fig5_indegree",
                "table1_graph",
                "overhead",
            ],
            **TINY,
        )


class TestTimings:
    def test_timings_collected_but_artifacts_clean(self, tmp_path):
        timings = SweepTimings()
        runs = run_scenarios([GRID_ID], "smoke", workers=1, timings=timings, **TINY)
        assert timings.scenario_units[GRID_ID] == 8  # 4 protocols x 2 fractions
        assert timings.scenario_seconds[GRID_ID] > 0.0
        assert timings.wall_seconds > 0.0
        text = encode_artifact(runs[GRID_ID].artifact())
        for forbidden in ("elapsed", "seconds", "duration", "wall"):
            assert forbidden not in text.lower()


class TestSnapshotCache:
    def test_checkouts_are_private_copies(self):
        params = ExperimentParams.scaled(24, seed=5, stabilization_cycles=3)
        cache = SnapshotCache()
        first = cache.checkout("hyparview", params)
        second = cache.checkout("hyparview", params)
        assert first is not second
        first.fail_fraction(0.5)
        # Mutating one checkout must not leak into the next.
        third = cache.checkout("hyparview", params)
        assert len(third.alive_ids()) == params.n
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 2

    def test_distinct_params_are_distinct_entries(self):
        cache = SnapshotCache()
        a = ExperimentParams.scaled(24, seed=1, stabilization_cycles=3)
        b = ExperimentParams.scaled(24, seed=2, stabilization_cycles=3)
        cache.checkout("hyparview", a)
        cache.checkout("hyparview", b)
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = SnapshotCache(capacity=1)
        a = ExperimentParams.scaled(24, seed=1, stabilization_cycles=3)
        b = ExperimentParams.scaled(24, seed=2, stabilization_cycles=3)
        cache.checkout("hyparview", a)
        cache.checkout("hyparview", b)
        cache.checkout("hyparview", a)  # evicted, rebuilt
        stats = cache.stats()
        assert stats["misses"] == 3
        assert stats["evictions"] == 2
        assert len(cache) == 1

    def test_hit_and_miss_hand_out_identical_state(self):
        params = ExperimentParams.scaled(24, seed=9, stabilization_cycles=3)
        cache = SnapshotCache()
        miss = cache.checkout("cyclon", params)
        hit = cache.checkout("cyclon", params)
        assert _edges(miss) == _edges(hit)


class TestFreezeThaw:
    def test_refreeze_equals_first_freeze(self):
        params = ExperimentParams.scaled(24, seed=3, stabilization_cycles=3)
        base = stabilized_scenario("hyparview", params)
        frozen = base.freeze()
        a, b = Scenario.thaw(frozen), Scenario.thaw(base.freeze())
        assert _edges(a) == _edges(b)
        # Downstream randomness matches too: same victims, same traffic.
        assert a.fail_fraction(0.5) == b.fail_fraction(0.5)
        sa = [s.reliability for s in a.send_broadcasts(2)]
        sb = [s.reliability for s in b.send_broadcasts(2)]
        assert sa == sb

    def test_freeze_with_live_pending_events_rejected(self):
        params = ExperimentParams.scaled(16, seed=3, stabilization_cycles=2)
        scenario = stabilized_scenario("hyparview", params)
        scenario.engine.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            scenario.freeze()

    def test_cancelled_timers_do_not_block_freeze(self):
        """The live_pending fix: a heap of lazily-cancelled timers is not
        pending work and must not block cloning (it used to)."""
        params = ExperimentParams.scaled(16, seed=3, stabilization_cycles=2)
        scenario = stabilized_scenario("hyparview", params)
        handles = [scenario.engine.schedule(60.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        assert scenario.engine.pending > 0
        clone = Scenario.thaw(scenario.freeze())  # would raise before the fix
        assert clone.engine.live_pending == 0


class TestAblationCells:
    """The four ablations expose their per-point sweeps as cells."""

    ABLATIONS = {
        "ablation_passive_size": 2,   # passive_sizes (3, 8) at smoke tier
        "ablation_shuffle_ttl": 2,    # ttls (1, 6)
        "ablation_flood_resend": 2,   # resend False/True
        "ablation_plumtree": 2,       # flood vs tree layer
    }

    def test_every_ablation_point_is_a_cell(self):
        for scenario_id, expected in self.ABLATIONS.items():
            units = build_units([scenario_id], "smoke", **TINY)
            assert len(units) == expected, scenario_id
            assert len({unit.cell for unit in units}) == expected, scenario_id

    def test_resend_cells_share_one_base(self):
        units = build_units(["ablation_flood_resend"], "smoke", **TINY)
        assert len(build_chunks(units, 1)) == 1  # one affinity group

    def test_ablation_artifacts_identical_across_modes(self, assert_modes_match_reference):
        assert_modes_match_reference(
            ["ablation_passive_size", "ablation_flood_resend"], **TINY
        )

