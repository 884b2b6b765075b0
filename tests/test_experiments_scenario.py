"""Tests for the experiment scenario harness."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario


def small_params(n=60, cycles=5, seed=42):
    return ExperimentParams.scaled(n, seed=seed, stabilization_cycles=cycles)


class TestConstruction:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario("chord", small_params())

    def test_all_protocols_build(self):
        for protocol in ("hyparview", "cyclon", "cyclon-acked", "scamp", "plumtree"):
            scenario = Scenario(protocol, small_params())
            scenario.build_overlay()
            assert len(scenario.alive_ids()) == 60

    def test_double_build_rejected(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        with pytest.raises(SimulationError):
            scenario.build_overlay()

    def test_deterministic_given_seed(self):
        def fingerprint(seed):
            scenario = Scenario("hyparview", small_params(seed=seed))
            scenario.build_overlay()
            scenario.run_cycles(3)
            return tuple(
                tuple(sorted(str(p) for p in scenario.membership(n).active_members()))
                for n in scenario.node_ids
            )

        assert fingerprint(7) == fingerprint(7)
        assert fingerprint(7) != fingerprint(8)


class TestFailureInjection:
    def test_fail_fraction_counts(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        victims = scenario.fail_fraction(0.25)
        assert len(victims) == 15
        assert len(scenario.alive_ids()) == 45
        assert scenario.population == frozenset(scenario.alive_ids())

    def test_fail_fraction_validation(self):
        scenario = Scenario("hyparview", small_params())
        with pytest.raises(ConfigurationError):
            scenario.fail_fraction(1.0)
        with pytest.raises(ConfigurationError):
            scenario.fail_fraction(-0.1)

    def test_fail_fraction_of_remaining(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.fail_fraction(0.5)
        scenario.fail_fraction(0.5)
        assert len(scenario.alive_ids()) == 15


class TestMeasurement:
    def test_send_broadcast_returns_summary(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.stabilize()
        summary = scenario.send_broadcast()
        assert summary.population_size == 60
        assert summary.reliability == 1.0

    def test_paced_broadcasts_preserve_send_order(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.stabilize()
        summaries = scenario.send_paced_broadcasts(5, interval=0.05)
        sent = [s.sent_at for s in summaries]
        assert sent == sorted(sent)
        assert len({s.message_id for s in summaries}) == 5

    def test_snapshot_alive_only_filter(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.fail_fraction(0.3)
        alive_snap = scenario.snapshot(alive_only=True)
        full_snap = scenario.snapshot(alive_only=False)
        assert alive_snap.node_count == 42
        assert full_snap.node_count == 60


class TestClone:
    def test_clone_is_isolated(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.stabilize()
        clone = Scenario.thaw(scenario.freeze())
        clone.fail_fraction(0.5)
        assert len(scenario.alive_ids()) == 60
        assert len(clone.alive_ids()) == 30
        # Mutating clone protocol state leaves the original untouched.
        node = clone.node_ids[0]
        clone.membership(node).passive.discard(
            next(iter(clone.membership(node).passive), None)
        ) if len(clone.membership(node).passive) else None
        assert scenario.snapshot().edge_count > 0

    def test_clones_replay_identically(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.stabilize()
        frozen = scenario.freeze()
        first = [s.reliability for s in Scenario.thaw(frozen).send_broadcasts(3)]
        second = [s.reliability for s in Scenario.thaw(frozen).send_broadcasts(3)]
        assert first == second

    def test_clone_with_pending_events_rejected(self):
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        origin = scenario.alive_ids()[0]
        scenario.broadcast_layer(origin).broadcast(None)  # in flight
        with pytest.raises(SimulationError):
            scenario.freeze()
        scenario.drain()


class TestReviveIncarnations:
    def test_revived_origin_never_reuses_message_ids(self):
        """A restarted process must not re-mint its predecessor's broadcast
        ids (regression: churn runs crashed the tracker with "duplicate
        broadcast id" when a revived node broadcast again)."""
        scenario = Scenario("hyparview", small_params())
        scenario.build_overlay()
        scenario.stabilize()
        origin = scenario.alive_ids()[0]
        before = scenario.send_broadcast(origin)
        scenario.fail_nodes([origin])
        scenario.drain()
        scenario.revive_node(origin)
        after = scenario.send_broadcast(origin)  # raised before the fix
        assert before.message_id != after.message_id
        assert after.message_id.sequence >= 1 << 32
