"""Byzantine reliable broadcast: quorum unit behaviour + ``byz_*`` family.

Unit half: Bracha threshold geometry, echo-once under an equivocating
origin, quorum delivery on a clean network, sampled-mode determinism,
and the acked phase transport.  Registry half: the ``byz_*`` scenarios
obey the cells/determinism contract, and the adversary-fraction sweep
shows the designed cliff — BRB holds validated delivery to 30% mutating
relays and stalls past ``n > 3f`` while the ack/retransmit baseline
degrades smoothly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import get_scenario, scenario_ids
from repro.experiments.runner import build_units, run_scenarios
from repro.experiments.scenario import Scenario
from repro.gossip.byzantine import BRBGossip, payload_digest
from repro.gossip.messages import BRBSend

BYZ_IDS = tuple(s for s in scenario_ids() if s.startswith("byz_"))
TINY = dict(n=32, messages=4)


def _scenario(protocol: str = "hyparview-brb", n: int = 16, mode: str = "bracha") -> Scenario:
    params = replace(ExperimentParams.scaled(n, stabilization_cycles=10), brb_mode=mode)
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    scenario.stabilize()
    return scenario


class TestBRBMode:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentParams(brb_mode="paxos")

    def test_roster_required(self):
        scenario = _scenario(n=8)
        layer = scenario.broadcast_layer(scenario.node_ids[0])
        fresh = BRBGossip(layer._host, layer._membership)
        with pytest.raises(ProtocolError, match="roster"):
            fresh.broadcast(None)
        with pytest.raises(ProtocolError, match="roster"):
            fresh.thresholds()


class TestQuorumGeometry:
    def test_bracha_thresholds(self):
        scenario = _scenario(n=16)
        layer = scenario.broadcast_layer(scenario.node_ids[0])
        # n=16, f = floor(16 * 0.25) = 4: echo ceil(21/2)=11, amplify 5,
        # deliver 9.
        assert layer.group_size() == 16
        assert layer.thresholds() == (11, 5, 9)
        # Re-rostering re-derives the geometry.
        layer.set_roster(scenario.node_ids[:10])
        assert layer.thresholds() == (7, 3, 5)  # f = 2

    def test_sampled_group_is_logarithmic(self):
        scenario = _scenario(n=64, mode="sampled")
        layer = scenario.broadcast_layer(scenario.node_ids[0])
        # ceil(3 * log2 64) = 18 << 64.
        assert layer.group_size() == 18
        assert layer.thresholds() == (12, 5, 9)  # f = floor(18 * 0.25) = 4

    def test_sampled_samples_are_static_and_deterministic(self):
        samples = []
        for _ in range(2):
            params = ExperimentParams.scaled(24, seed=11, stabilization_cycles=5)
            params = replace(params, brb_mode="sampled")
            scenario = Scenario("hyparview-brb", params)
            scenario.build_overlay()
            scenario.stabilize()
            layer = scenario.broadcast_layer(scenario.node_ids[3])
            first = layer._echo_targets()
            assert layer._echo_targets() == first  # static once drawn
            samples.append((first, layer._ready_targets()))
        assert samples[0] == samples[1]


class TestBRBDelivery:
    def test_clean_network_delivers_via_quorum_everywhere(self):
        scenario = _scenario(n=16)
        summary = scenario.send_broadcast()
        assert summary.reliability == 1.0
        totals = {"acks_received": 0, "retransmissions": 0, "give_ups": 0}
        quorum_deliveries = 0
        for node_id in scenario.node_ids:
            layer = scenario.broadcast_layer(node_id)
            for key, value in layer.reliability_stats().items():
                totals[key] += value
            quorum_deliveries += layer.brb_stats()["quorum_deliveries"]
            assert layer.pending_retransmits == 0
            # Every node echoed exactly once for the single broadcast.
            assert layer.brb_stats()["echoes_sent"] == 1
        assert quorum_deliveries == 16  # the origin included
        assert totals["acks_received"] > 0
        assert totals["retransmissions"] == 0
        assert totals["give_ups"] == 0

    def test_origin_delivers_through_quorum_not_on_send(self):
        scenario = _scenario(n=16)
        origin = scenario.node_ids[0]
        layer = scenario.broadcast_layer(origin)
        message_id = layer.broadcast(("v", 1))
        # No deliver-on-send: the origin's delivery certifies a quorum.
        assert not layer.has_delivered(message_id)
        scenario.drain()
        assert layer.has_delivered(message_id)

    def test_equivocating_origin_splits_votes_and_nothing_delivers(self):
        scenario = _scenario(n=16)
        origin = scenario.node_ids[0]
        layer = scenario.broadcast_layer(origin)
        message_id = layer._sequence.next_id()
        # The origin lies: half the roster gets value "a", half gets "b".
        # Echo quorum is 11 of 16 — an 8/8 split can never reach it.
        for index, peer in enumerate(scenario.node_ids[1:]):
            value = ("a",) if index % 2 == 0 else ("b",)
            scenario.network.send(origin, peer, BRBSend(message_id, value, origin))
        scenario.drain()
        for node_id in scenario.node_ids[1:]:
            node_layer = scenario.broadcast_layer(node_id)
            assert not node_layer.has_delivered(message_id)
            # Echo-once: the first value won, the second was ignored.
            state = node_layer._states[message_id]
            assert state.echoed in (payload_digest(("a",)), payload_digest(("b",)))

    def test_digest_is_stable_and_payload_sensitive(self):
        assert payload_digest(("m", 1)) == payload_digest(("m", 1))
        assert payload_digest(("m", 1)) != payload_digest(("m", 2))
        assert len(payload_digest(None)) == 16


class TestByzantineScenarioFamily:
    def test_family_registered_with_cells(self):
        assert set(BYZ_IDS) == {
            "byz_adversary_fraction", "byz_churn", "byz_equivocation",
        }
        for scenario_id in BYZ_IDS:
            spec = get_scenario(scenario_id)
            assert spec.group == "byzantine"
            assert set(spec.messages) == {"smoke", "paper"}
            units = build_units([scenario_id], "smoke", **TINY)
            assert len(units) >= 2
            assert len({unit.cell for unit in units}) == len(units)
        # The sweep shards into (protocol, fraction) cells.
        sweep_units = build_units(["byz_adversary_fraction"], "smoke", **TINY)
        assert len(sweep_units) == 10

    def test_mode_matrix_determinism(self, assert_modes_match_reference):
        assert_modes_match_reference(["byz_equivocation"], **TINY)

    def test_family_leaves_no_timer_behind(self, channel_and_exchanges_checked):
        """Adversaries, churn and equivocation: after every drain of every
        cell, every live layer's acked channel is empty (three phases per
        message, all acked, given up on or cancelled) and no membership
        exchange is open."""
        run_scenarios(list(BYZ_IDS), "smoke", workers=1, **TINY)
        assert len(channel_and_exchanges_checked) > 100

    def test_equivocation_separates_brb_from_baseline(self):
        runs = run_scenarios(["byz_equivocation"], "smoke", workers=1, **TINY)
        result = runs["byz_equivocation"].replicates[0]["result"]
        brb = result["hyparview-brb"]
        baseline = result["hyparview-reliable"]
        # BRB: exact agreement, no wrong value ever delivered, quorum
        # machinery visibly engaged.
        assert brb["wrong_deliveries"] == 0
        assert brb["agreement"] == 1.0
        assert brb["brb"]["quorum_deliveries"] > 0
        # Baseline: per-destination forgeries land as deliveries.
        assert baseline["wrong_deliveries"] > 0
        assert baseline["agreement"] < 1.0
        assert baseline["validated_average"] < 1.0
