"""The ack+retransmit gossip layer and its ``reliable_*`` scenarios.

Unit half: the retransmit state machine over a lossy simulated network —
arming, cancellation on ack, exponential backoff, give-up failure
reports, duplicate-ack handling.  Estimator half: the per-peer
retransmit timeout (RFC 6298 with Karn's rule) on a layer whose peers the
test plays by hand, and on whole overlays.  Registry half: the
``reliable_*`` family obeys the same cells/determinism contract as every
other grid scenario (mode-matrix byte identity).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import NodeId
from repro.experiments.params import ExperimentParams
from repro.experiments.registry import get_scenario, scenario_ids
from repro.experiments.runner import build_units, run_scenarios
from repro.experiments.scenario import Scenario
from repro.gossip.byzantine import BRBGossip, payload_digest
from repro.gossip.messages import BRBEcho, GossipAck
from repro.gossip.reliable import ACK_TIMEOUT, BACKOFF, MAX_RETRIES, ReliableGossip
from repro.testing import World, check_acked_channel_quiescent

RELIABLE_IDS = tuple(s for s in scenario_ids() if s.startswith("reliable_"))
TINY = dict(n=32, messages=4)
#: Eight floods on the 24-node constant-latency overlay of ``_scenario``,
#: measured on the parent commit (fixed 0.05 s timeout).
CLEAN_CONSTANT_RUN = {"events": 1520, "sent": 1520, "elapsed": 0.4}


def _scenario(protocol: str, n: int = 24) -> Scenario:
    params = ExperimentParams.scaled(n, stabilization_cycles=10)
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
        scenario = _scenario("hyparview-reliable", n=12)
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
        scenario = _scenario("hyparview-reliable", n=12)
        origin = scenario.node_ids[0]
        victim = scenario.membership(origin).gossip_targets(0)[0]
        scenario.network.fail_many([victim])
        start = scenario.engine.now
        scenario.broadcast_layer(origin).broadcast(None)
        scenario.drain()
        # Give-up happens only after 0.05 + 0.1 + 0.2 + 0.4 seconds of silence.
        assert (ACK_TIMEOUT, BACKOFF, MAX_RETRIES) == (0.05, 2.0, 3)
        assert scenario.engine.now - start >= 0.05 + 0.1 + 0.2 + 0.4 - 1e-9


class _Peers:
    """Membership stub: a fixed view that records who was reported failed."""

    def __init__(self, peers):
        self.peers = list(peers)
        self.reported = []

    def gossip_targets(self, fanout, exclude=()):
        return [peer for peer in self.peers if peer not in exclude]

    def report_failure(self, peer):
        self.reported.append(peer)


class _Sender:
    """One real layer on a real engine whose peers do not exist: every copy
    it sends vanishes, and the test plays the peers — it decides when (and
    whether) each ack arrives, so every round trip is exactly the number
    written in the test."""

    def __init__(self, peers=("b",), brb_mode=None):
        self.world = World()
        self.engine = self.world.engine
        node = self.world.new_node("a")
        self.peers = [NodeId(name, 9000) for name in peers]
        self.membership = _Peers(self.peers)
        if brb_mode is None:
            self.layer = ReliableGossip(node.host("gossip"), self.membership)
        else:
            self.layer = BRBGossip(node.host("gossip"), self.membership, mode=brb_mode)
            self.layer.set_roster([node.node_id, *self.peers])
        node.wire("gossip", self.layer)

    def after(self, seconds):
        """Let ``seconds`` pass (timers due in them fire)."""
        self.engine.run_until(self.engine.now + seconds)

    def exchange(self, rtt, peer=None):
        """Broadcast, and ack ``rtt`` seconds later; returns how many times
        the copy was retransmitted while the ack was on its way."""
        peer = peer if peer is not None else self.peers[0]
        before = self.layer.retransmissions
        message_id = self.layer.broadcast(None)
        self.after(rtt)
        self.layer.handle_ack(GossipAck(message_id, peer))
        assert self.layer.pending_retransmits == 0
        return self.layer.retransmissions - before

    def silence(self):
        """Broadcast and never ack: the copy backs off, then gives up."""
        self.layer.broadcast(None)
        self.world.drain()
        assert self.layer.pending_retransmits == 0


def _zoned_overlay(n=64):
    params = replace(ExperimentParams.scaled(n), latency_model="zoned")
    scenario = Scenario("hyparview-reliable", params)
    scenario.build_overlay()
    scenario.stabilize()
    return scenario


def _retransmissions(scenario):
    return sum(scenario.broadcast_layer(n).retransmissions for n in scenario.node_ids)


class TestRetransmitTimeoutEstimator:
    @pytest.mark.parametrize("jitter, spurious_share", [(0.0, 0.0), (0.25, 0.02)])
    def test_zoned_overlay_stops_retransmitting_once_it_has_seen_its_peers(
        self, jitter, spurious_share
    ):
        """No loss, cross-zone round trips of 0.08-0.31 s against a 0.05 s
        initial timeout: the first broadcasts re-send (the only way to learn
        that a link is slow), the rest do not — exactly never when a link's
        round trip is steady, and for under 2 % of copies when every frame
        is jittered by +-25 % (a tail sample after RTTVAR has decayed).  The
        fixed timeout re-sent ~360 copies per broadcast, 140 % of them."""
        scenario = _zoned_overlay()
        scenario.network.latency.jitter = jitter
        scenario.send_broadcasts(8)
        learning = _retransmissions(scenario)
        assert 0 < learning < 700  # the parent: 2 900 by now
        summaries = scenario.send_broadcasts(10)
        assert all(summary.reliability == 1.0 for summary in summaries)
        copies = sum(summary.transmissions for summary in summaries)
        assert _retransmissions(scenario) - learning <= spurious_share * copies
        for node_id in scenario.node_ids:
            layer = scenario.broadcast_layer(node_id)
            assert layer.give_ups == 0 and layer.pending_retransmits == 0

    def test_constant_latency_never_waits_less_than_ack_timeout(self):
        """A 0.02 s round trip under the 0.05 s floor: estimates settle far
        below the configured timeout and the timeout stays where it was —
        so a clean run fires, sends and ends exactly as it did when the
        timeout was a constant (numbers from the parent commit)."""
        scenario = _scenario("hyparview-reliable")
        start = scenario.engine.now
        events, sent = scenario.engine.processed, scenario.network.stats.sent
        summaries = scenario.send_broadcasts(8)
        assert all(summary.reliability == 1.0 for summary in summaries)
        assert scenario.engine.processed - events == CLEAN_CONSTANT_RUN["events"]
        assert scenario.network.stats.sent - sent == CLEAN_CONSTANT_RUN["sent"]
        assert scenario.engine.now - start == pytest.approx(CLEAN_CONSTANT_RUN["elapsed"])
        sampled = 0
        for node_id in scenario.node_ids:
            layer = scenario.broadcast_layer(node_id)
            assert layer.retransmissions == 0
            for peer in scenario.membership(node_id).gossip_targets(0):
                assert layer.retransmit_timeout(peer) >= ACK_TIMEOUT
                if layer.smoothed_rtt(peer) is not None:
                    sampled += 1
                    assert layer.smoothed_rtt(peer) == pytest.approx(0.02)
        assert sampled > 0

    def test_karn_a_retransmitted_copy_yields_no_sample_and_leaves_its_backoff(self):
        sender = _Sender()
        (peer,) = sender.peers
        layer = sender.layer
        assert layer.retransmit_timeout(peer) == 0.05
        # The copy is lost; its retransmission (at 0.05) is acked at 0.07.
        # Was that a 0.07 s or a 0.02 s round trip?  Unknowable: no sample.
        assert sender.exchange(0.07) == 1
        assert layer.smoothed_rtt(peer) is None
        # What the layer does know: 0.05 s was too short for this peer.
        assert layer.retransmit_timeout(peer) == 0.1
        message_id = layer.broadcast(None)
        sender.after(0.099)
        assert layer.retransmissions == 1  # the parent re-sent at 0.05
        sender.after(0.002)
        assert layer.retransmissions == 2
        layer.handle_ack(GossipAck(message_id, peer))
        assert layer.smoothed_rtt(peer) is None
        assert layer.retransmit_timeout(peer) == 0.2

    def test_bootstrap_backoff_is_retained_until_a_clean_sample_arrives(self):
        """The Karn trap: a 0.12 s round trip against a 0.05 s initial
        timeout re-sends every first copy, so strict Karn would never take a
        sample.  The backed-off timeout carries over from message to message
        until one copy is acked clean (RFC 6298 5.5-5.7)."""
        sender = _Sender()
        (peer,) = sender.peers
        layer = sender.layer
        assert [sender.exchange(0.12) for _ in range(5)] == [1, 1, 0, 0, 0]
        assert layer.smoothed_rtt(peer) == pytest.approx(0.12)
        assert 0.12 < layer.retransmit_timeout(peer) < 0.36
        assert layer.give_ups == 0 and sender.membership.reported == []

    def test_give_up_forgets_the_peer(self):
        sender = _Sender()
        (peer,) = sender.peers
        sender.exchange(0.03)
        assert sender.layer.smoothed_rtt(peer) == pytest.approx(0.03)
        sender.silence()
        assert sender.membership.reported == [peer]
        assert sender.layer.smoothed_rtt(peer) is None
        assert sender.layer.retransmit_timeout(peer) == 0.05
        assert sender.layer._rtt == {} and sender.layer._rto == {}

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("ack"), st.floats(0.001, 2.0)),
                st.tuples(st.just("silence"), st.just(0.0)),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_estimator_properties_over_random_round_trips(self, steps):
        """Whatever the round trips: the timeout is finite and never under
        the floor; SRTT stays between the smallest and largest *clean*
        sample; an exchange that was retransmitted moves no SRTT; a peer
        that was given up on leaves no state behind."""
        sender = _Sender()
        (peer,) = sender.peers
        layer = sender.layer
        clean: list[float] = []
        for kind, rtt in steps:
            srtt, timeout = layer.smoothed_rtt(peer), layer.retransmit_timeout(peer)
            given_up = layer.give_ups
            resent = sender.exchange(rtt) if kind == "ack" else sender.silence()
            if layer.give_ups > given_up:  # silence, or an ack later than the give-up
                clean.clear()
                assert layer._rtt == {} and layer._rto == {}
            elif resent:
                assert layer.smoothed_rtt(peer) == srtt  # Karn
                assert layer.retransmit_timeout(peer) == pytest.approx(timeout * 2.0**resent)
            else:
                clean.append(rtt)
                assert layer.retransmit_timeout(peer) >= layer.smoothed_rtt(peer)
            timeout = layer.retransmit_timeout(peer)
            assert timeout >= ACK_TIMEOUT and math.isfinite(timeout)
            if clean:
                assert min(clean) - 1e-9 <= layer.smoothed_rtt(peer) <= max(clean) + 1e-9
            else:
                assert layer.smoothed_rtt(peer) is None

    def test_brb_phases_in_flight_to_one_peer_back_off_once_per_attempt(self):
        """SEND, ECHO and READY copies to one crashed peer expire together.
        What later messages inherit is the longest single copy's delay —
        ``backoff ** attempt`` — not a factor per expiring copy."""
        sender = _Sender(peers=("b", "c", "d"), brb_mode="bracha")
        layer = sender.layer
        b, c, dead = sender.peers  # nobody acks; ``dead`` is the one watched
        message_id = layer.broadcast("x")  # SEND + own ECHO to b, c and dead
        for voter in (b, c):
            layer.handle_echo(BRBEcho(message_id, payload_digest("x"), voter))
        assert layer.readies_sent == 1  # echo quorum (3 of 4): READY to all
        assert layer.pending_retransmits == 9  # three phases to each peer
        expected = 0.05
        for waited in (0.051, 0.1, 0.2):
            sender.after(waited)
            expected *= 2.0
            assert layer.retransmit_timeout(dead) == pytest.approx(expected)
        sender.world.drain()
        assert layer.give_ups == 9 and layer.pending_retransmits == 0
        assert sorted(set(sender.membership.reported)) == sorted(sender.peers)
        assert layer._rtt == {} and layer._rto == {}


class TestReliableScenarioFamily:
    def test_family_registered_with_cells(self):
        assert set(RELIABLE_IDS) == {"reliable_loss", "reliable_churn", "reliable_stress"}
        for scenario_id in RELIABLE_IDS:
            spec = get_scenario(scenario_id)
            assert set(spec.messages) == {"smoke", "paper"}
            units = build_units([scenario_id], "smoke", **TINY)
            assert len(units) >= 2  # one cell per protocol
            assert len({unit.cell for unit in units}) == len(units)

    def test_mode_matrix_determinism(self, assert_modes_match_reference):
        assert_modes_match_reference(["reliable_loss", "reliable_churn"], **TINY)

    def test_results_carry_ack_layer_counters(self, channel_and_exchanges_checked):
        runs = run_scenarios(["reliable_loss"], "smoke", workers=1, **TINY)
        result = runs["reliable_loss"].replicates[0]["result"]
        for cell in result.values():
            assert cell["reliable"]["acks_received"] > 0
        assert channel_and_exchanges_checked

    def test_quiescence_invariant_sees_a_copy_left_in_flight(self):
        scenario = _scenario("hyparview-reliable", n=8)
        check_acked_channel_quiescent(scenario)
        scenario.broadcast_layer(scenario.node_ids[0]).broadcast(None)
        with pytest.raises(AssertionError, match="in flight"):
            check_acked_channel_quiescent(scenario)
        scenario.drain()
        check_acked_channel_quiescent(scenario)

    def test_family_leaves_no_timer_behind(self, channel_and_exchanges_checked):
        """Loss, churn and stress: after every drain of every cell, every
        live layer's channel is empty, the engine holds no live event and
        no membership exchange is open."""
        run_scenarios(list(RELIABLE_IDS), "smoke", workers=1, **TINY)
        assert len(channel_and_exchanges_checked) > 100
