"""The ack+retransmit gossip layer and its ``reliable_*`` scenarios.

Unit half: the retransmit state machine over a lossy simulated network —
arming, cancellation on ack, exponential backoff, give-up failure
reports, duplicate-ack handling.  Registry half: the ``reliable_*``
family obeys the same cells/determinism contract as every other grid
scenario (mode-matrix byte identity).
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import get_scenario, scenario_ids
from repro.experiments.runner import build_units, run_scenarios
from repro.experiments.scenario import Scenario
from repro.gossip.reliable import ReliableConfig, ReliableGossip

RELIABLE_IDS = tuple(s for s in scenario_ids() if s.startswith("reliable_"))
TINY = dict(n=32, messages=4)


def _scenario(protocol: str, n: int = 24, **reliable_kwargs) -> Scenario:
    params = ExperimentParams.scaled(n, stabilization_cycles=10)
    if reliable_kwargs:
        from dataclasses import replace

        params = replace(params, reliable=ReliableConfig(**reliable_kwargs))
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    scenario.stabilize()
    return scenario


class TestReliableLayerUnit:
    def test_validation(self):
        scenario = _scenario("hyparview-reliable", n=8)
        host_layer = scenario.broadcast_layer(scenario.node_ids[0])
        host = host_layer._host
        membership = host_layer.membership
        with pytest.raises(ConfigurationError):
            ReliableGossip(host, membership, fanout=-1)
        with pytest.raises(ConfigurationError):
            ReliableGossip(host, membership, ack_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ReliableGossip(host, membership, backoff=0.5)
        with pytest.raises(ConfigurationError):
            ReliableConfig(max_retries=-1)

    def test_clean_network_acks_everything_and_retransmits_nothing(self):
        scenario = _scenario("hyparview-reliable")
        summary = scenario.send_broadcast()
        assert summary.reliability == 1.0
        totals = {"acks_received": 0, "retransmissions": 0, "give_ups": 0}
        for node_id in scenario.node_ids:
            for key, value in scenario.broadcast_layer(node_id).reliability_stats().items():
                totals[key] += value
            assert scenario.broadcast_layer(node_id).pending_retransmits == 0
        assert totals["acks_received"] > 0
        assert totals["retransmissions"] == 0
        assert totals["give_ups"] == 0

    def test_datagram_loss_is_repaired_by_retransmission(self):
        params = ExperimentParams.scaled(24, stabilization_cycles=10)
        scenario = Scenario("hyparview-reliable", params, loss_rate=0.3)
        scenario.build_overlay()
        scenario.stabilize()
        summaries = scenario.send_broadcasts(5)
        retransmissions = sum(
            scenario.broadcast_layer(node_id).retransmissions
            for node_id in scenario.node_ids
        )
        assert retransmissions > 0
        # The stream stays near-atomic despite 30% datagram loss.
        assert sum(s.reliability for s in summaries) / len(summaries) > 0.95

    def test_give_up_reports_failure_to_membership(self):
        scenario = _scenario("hyparview-reliable", n=12, max_retries=1)
        origin = scenario.node_ids[0]
        # Crash one of the origin's neighbours without telling anyone:
        # the dead peer never acks, so the copy retries then gives up.
        victim = scenario.membership(origin).gossip_targets(0)[0]
        scenario.network.fail_many([victim])
        scenario.broadcast_layer(origin).broadcast(None)
        scenario.drain()
        layer = scenario.broadcast_layer(origin)
        assert layer.give_ups >= 1
        assert layer.pending_retransmits == 0
        # The failure report expunged the silent peer from the view.
        assert victim not in scenario.membership(origin).gossip_targets(0)

    def test_duplicate_copies_are_acked_but_delivered_once(self):
        scenario = _scenario("hyparview-reliable", n=12)
        origin = scenario.node_ids[0]
        target = scenario.membership(origin).gossip_targets(0)[0]
        layer = scenario.broadcast_layer(origin)
        message_id = layer.broadcast(None)
        scenario.drain()
        target_layer = scenario.broadcast_layer(target)
        delivered_before = target_layer.delivered_count
        duplicates_before = target_layer.duplicate_count
        # Replay the copy as a retransmission would.
        from repro.gossip.messages import GossipData

        scenario.network.send(origin, target, GossipData(message_id, None, 1, origin))
        scenario.drain()
        assert target_layer.delivered_count == delivered_before
        assert target_layer.duplicate_count == duplicates_before + 1

    def test_backoff_doubles_retransmit_delay(self):
        scenario = _scenario("hyparview-reliable", n=12, ack_timeout=0.1, backoff=2.0,
                             max_retries=2)
        origin = scenario.node_ids[0]
        victim = scenario.membership(origin).gossip_targets(0)[0]
        scenario.network.fail_many([victim])
        start = scenario.engine.now
        scenario.broadcast_layer(origin).broadcast(None)
        scenario.drain()
        # Give-up happens only after 0.1 + 0.2 + 0.4 seconds of silence.
        assert scenario.engine.now - start >= 0.1 + 0.2 + 0.4 - 1e-9


class TestReliableScenarioFamily:
    def test_family_registered_with_cells(self):
        assert set(RELIABLE_IDS) == {"reliable_loss", "reliable_churn", "reliable_stress"}
        for scenario_id in RELIABLE_IDS:
            spec = get_scenario(scenario_id)
            assert set(spec.tiers) == {"smoke", "paper", "full"}
            units = build_units([scenario_id], "smoke", **TINY)
            assert len(units) >= 2  # one cell per protocol
            assert len({unit.cell for unit in units}) == len(units)

    def test_mode_matrix_determinism(self, assert_modes_match_reference):
        assert_modes_match_reference(["reliable_loss", "reliable_churn"], **TINY)

    def test_results_carry_ack_layer_counters(self):
        runs = run_scenarios(["reliable_loss"], "smoke", workers=1, **TINY)
        result = runs["reliable_loss"].first_result()
        for cell in result.values():
            assert cell["reliable"]["acks_received"] > 0
