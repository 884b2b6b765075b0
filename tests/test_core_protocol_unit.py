"""Unit tests for the HyParView state machine (Algorithm 1 + Sections
4.2-4.5), driven through small wired simulated networks."""

import pytest
from conftest import FrameLog

from repro.common.errors import ProtocolError
from repro.core.config import HyParViewConfig
from repro.core.messages import (
    Disconnect,
    ForwardJoin,
    Neighbor,
    NeighborReply,
    Shuffle,
    ShuffleReply,
)

SMALL = HyParViewConfig(active_view_capacity=3, passive_view_capacity=5, arwl=3, prwl=2)


class TestJoin:
    def test_join_creates_symmetric_link(self, world):
        (_, a), (_, b) = world.hyparview_many(2)
        b.join(a.address)
        world.drain()
        assert b.address in a.active
        assert a.address in b.active

    def test_join_through_self_rejected(self, world):
        _, a = world.hyparview()
        with pytest.raises(ProtocolError):
            a.join(a.address)

    def test_contact_forwards_join_to_its_active_view(self, world):
        nodes = world.hyparview_many(4)
        protocols = [p for _, p in nodes]
        world.join_chain(protocols[:3])
        # Count FORWARDJOIN traffic for the 4th join.
        before = world.network.stats.messages_by_type.get("ForwardJoin", 0)
        protocols[3].join(protocols[0].address)
        world.drain()
        after = world.network.stats.messages_by_type.get("ForwardJoin", 0)
        assert after > before

    def test_join_to_dead_contact_cleans_active_view(self, world):
        (node_a, a), (_, b) = world.hyparview_many(2)
        world.network.fail(node_a.node_id)
        b.join(a.address)
        world.drain()
        assert a.address not in b.active
        assert len(b.active) == 0

    def test_contact_with_full_active_view_evicts_with_disconnect(self, world):
        nodes = world.hyparview_many(6, config=SMALL)
        protocols = [p for _, p in nodes]
        world.join_chain(protocols)
        contact = protocols[0]
        assert len(contact.active) <= SMALL.active_view_capacity
        # Every node the contact evicted got a DISCONNECT and mirrored it.
        for _, proto in nodes[1:]:
            if contact.address not in proto.active:
                assert proto.address not in contact.active  # symmetric removal


class TestForwardJoin:
    def test_ttl_zero_accepts_into_active_view(self, world):
        (_, a), (_, b), (_, c) = world.hyparview_many(3, config=SMALL)
        world.join_chain([a, b])
        # Deliver a ForwardJoin with ttl=0 at b for new node c.
        b.handle_forward_join(ForwardJoin(c.address, 0, a.address))
        world.drain()
        assert c.address in b.active
        assert b.address in c.active  # reply created the reverse edge

    def test_single_member_active_view_accepts_regardless_of_ttl(self, world):
        (_, a), (_, b), (_, c) = world.hyparview_many(3, config=SMALL)
        world.join_chain([a, b])  # b's active view == {a}
        b.handle_forward_join(ForwardJoin(c.address, 3, a.address))
        world.drain()
        assert c.address in b.active

    def test_prwl_inserts_into_passive_view(self, world):
        config = HyParViewConfig(active_view_capacity=3, passive_view_capacity=5, arwl=4, prwl=2)
        (_, a), (_, b), (_, c), (_, d) = world.hyparview_many(4, config=config)
        world.join_chain([a, b, c])
        # At ttl == prwl, the walker inserts the joiner into its passive view
        # and forwards; b has 2 active members so the walk continues.
        b.handle_forward_join(ForwardJoin(d.address, config.prwl, a.address))
        world.drain()
        assert d.address in b.passive

    def test_walk_forwards_with_decremented_ttl(self, world):
        config = HyParViewConfig(active_view_capacity=4, passive_view_capacity=5, arwl=5, prwl=1)
        (na, a), (nb, b), (nc, c), (_, d) = world.hyparview_many(4, config=config)
        world.join_chain([a, b, c])
        world.network.trace = FrameLog()
        b.handle_forward_join(ForwardJoin(d.address, 5, a.address))
        world.drain()
        sends = [
            record for record in world.network.trace
            if record.kind == "send" and record.message_type == "ForwardJoin"
        ]
        assert sends  # the walk continued rather than being absorbed at b

    def test_walk_reaching_joiner_is_dropped(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        world.join_chain([a, b])
        before = len(a.active)
        a.handle_forward_join(ForwardJoin(a.address, 0, b.address))
        world.drain()
        assert len(a.active) == before  # no self-insertion

    def test_forward_join_reply_adds_reverse_edge(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        from repro.core.messages import ForwardJoinReply

        a.handle_forward_join_reply(ForwardJoinReply(b.address))
        assert b.address in a.active


class TestNeighbor:
    def test_high_priority_always_accepted(self, world):
        nodes = world.hyparview_many(6, config=SMALL)
        protocols = [p for _, p in nodes]
        world.join_chain(protocols[:5])
        target = protocols[0]
        # Fill target's active view, then fire a high-priority request.
        requester = protocols[5]
        target.handle_neighbor(Neighbor(requester.address, True))
        world.drain()
        assert requester.address in target.active

    def test_low_priority_rejected_when_full(self, world):
        config = HyParViewConfig(active_view_capacity=2, passive_view_capacity=5)
        (_, a), (_, b), (_, c), (_, d) = world.hyparview_many(4, config=config)
        world.join_chain([a, b, c])
        full = [p for p in (a, b, c) if p.active.is_full]
        assert full, "expected at least one full active view"
        target = full[0]
        target.handle_neighbor(Neighbor(d.address, False))
        world.drain()
        assert d.address not in target.active
        assert target.stats.neighbor_rejects >= 1

    def test_rejection_survives_loss(self, world):
        """The rejecting reply rides the requester's connection: loss cannot
        drop it and leave the promotion open forever (the sim arms no
        NEIGHBOR timeout to back it up)."""
        _, target = world.hyparview(config=HyParViewConfig(active_view_capacity=1))
        (_, requester), (_, other) = world.hyparview_many(2, config=SMALL)
        for a, b in ((target, other), (requester, other)):
            a.active.add(b.address)
            b.active.add(a.address)
        requester.passive.add(target.address)
        world.network.loss_rate = 0.99
        requester.cycle()
        world.drain()
        assert target.stats.neighbor_rejects >= 1
        assert requester.open_exchanges() == ()
        assert target.address in requester.passive

    def test_low_priority_accepted_with_free_slot(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        a.handle_neighbor(Neighbor(b.address, False))
        world.drain()
        assert b.address in a.active
        assert a.stats.neighbor_accepts == 1

    def test_request_from_existing_neighbor_reacknowledged(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        world.join_chain([a, b])
        a.handle_neighbor(Neighbor(b.address, False))
        world.drain()
        assert b.address in a.active
        assert len([p for p in a.active if p == b.address]) == 1

    def test_evicting_the_requested_peer_closes_the_request(self, world):
        """Both sides ask at once and ``a`` admits ``b``'s request; ``a``
        then evicts ``b`` while its own request to ``b`` is open.  ``b``
        answers that request after the eviction: the late accept must not
        re-add ``b`` to ``a``, whose link ``b`` has already dropped."""
        _, a = world.hyparview(config=HyParViewConfig(active_view_capacity=1))
        (_, b), (_, c) = world.hyparview_many(2, config=SMALL)
        a.passive.add(b.address)
        a._fill_active_view()
        assert a.open_exchanges() != ()
        a.handle_neighbor(Neighbor(b.address, False))
        assert a.active.members() == (b.address,)
        a._add_to_active(c.address)  # full: evicts b
        assert a.open_exchanges() == ()
        a.handle_neighbor_reply(NeighborReply(b.address, True))
        assert a.active.members() == (c.address,)

    def test_stale_reply_ignored(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        # No promotion pending: a stray reply must not corrupt state.
        a.handle_neighbor_reply(NeighborReply(b.address, True))
        assert b.address not in a.active


class TestDisconnect:
    def test_disconnect_moves_peer_to_passive(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        world.join_chain([a, b])
        a.handle_disconnect(Disconnect(b.address))
        assert b.address not in a.active
        assert b.address in a.passive

    def test_disconnect_from_non_neighbor_ignored(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        a.handle_disconnect(Disconnect(b.address))
        assert b.address not in a.passive

    def test_leave_notifies_all_neighbors(self, world):
        protocols = [p for _, p in world.hyparview_many(3, config=SMALL)]
        world.join_chain(protocols)
        leaver = protocols[1]
        neighbors = [p for p in protocols if leaver.address in p.active]
        leaver.leave()
        world.drain()
        assert len(leaver.active) == 0
        for peer in neighbors:
            assert leaver.address not in peer.active
            assert leaver.address in peer.passive


class TestFailureHandling:
    def test_send_failure_promotes_passive_candidate(self, world):
        config = HyParViewConfig(active_view_capacity=2, passive_view_capacity=5)
        (na, a), (nb, b), (_, c) = world.hyparview_many(3, config=config)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        world.network.fail(nb.node_id)
        a.report_failure(b.address)
        world.drain()
        assert b.address not in a.active
        assert c.address in a.active
        assert a.address in c.active  # symmetric after promotion

    def test_link_down_notification_triggers_repair(self, world):
        config = HyParViewConfig(active_view_capacity=2, passive_view_capacity=5)
        (_, a), (nb, b), (_, c) = world.hyparview_many(3, config=config)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        world.network.fail(nb.node_id)  # no send needed: watch fires
        world.drain()
        assert b.address not in a.active
        assert c.address in a.active
        assert a.stats.failures_detected == 1

    def test_dead_passive_candidates_expunged_during_promotion(self, world):
        config = HyParViewConfig(active_view_capacity=2, passive_view_capacity=5)
        (_, a), (nb, b), (nc, c), (_, d) = world.hyparview_many(4, config=config)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        a._add_to_passive(d.address)
        world.network.fail(nc.node_id)
        world.network.fail(nb.node_id)
        world.drain()
        assert c.address not in a.passive  # dead candidate removed
        assert d.address in a.active  # live candidate promoted

    def test_failed_peer_not_recycled_into_passive(self, world):
        (_, a), (nb, b) = world.hyparview_many(2, config=SMALL)
        world.join_chain([a, b])
        world.network.fail(nb.node_id)
        world.drain()
        assert b.address not in a.passive

    def test_empty_active_view_promotes_with_high_priority(self, world):
        config = HyParViewConfig(active_view_capacity=2, passive_view_capacity=5)
        (na, a), (nb, b), (_, c), (_, d) = world.hyparview_many(4, config=config)
        world.join_chain([c, d])  # fill c and d with each other
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        world.network.fail(nb.node_id)
        world.drain()
        # a's view was empty after losing b => high priority => accepted
        # even though c might have been full.
        assert c.address in a.active

    def test_failure_report_for_unknown_peer_cleans_passive(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        a._add_to_passive(b.address)
        a.report_failure(b.address)
        assert b.address not in a.passive


#: Promotion pacing made visible: a retry pass comes 30 s after the last.
PACED = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=5,
    promotion_retry_delay=30.0,
    promotion_max_passes=3,
)


class TestPromotionTriggers:
    """A failure or disconnect gets ``promotion_max_passes`` paced retry
    passes; a cycle or a shuffle reply gets one pass and no timer."""

    @staticmethod
    def rejecting_world(world, count=4):
        """``a`` with one active neighbour and ``count`` passive candidates
        whose one-slot active views are taken: every request is rejected."""
        _, a = world.hyparview(config=PACED)
        _, neighbour = world.hyparview(config=PACED)
        _, filler = world.hyparview(config=SMALL)
        a.active.add(neighbour.address)
        neighbour.active.add(a.address)
        for _ in range(count):
            _, candidate = world.hyparview(config=HyParViewConfig(active_view_capacity=1))
            candidate.active.add(filler.address)
            a.passive.add(candidate.address)
        world.network.trace = FrameLog()
        return a, neighbour

    @staticmethod
    def neighbor_passes(world):
        """NEIGHBOR requests sent, keyed by the retry period they fell in."""
        passes = {}
        for frame in world.network.trace:
            if frame.kind == "send" and frame.message_type == "Neighbor":
                index = int(frame.time // PACED.promotion_retry_delay)
                passes[index] = passes.get(index, 0) + 1
        return passes

    def test_cycle_makes_one_pass_and_arms_no_timer(self, world):
        a, _ = self.rejecting_world(world)
        candidates = len(a.passive)
        a.cycle()
        world.drain()
        assert self.neighbor_passes(world) == {0: candidates}
        assert world.engine.now < PACED.promotion_retry_delay
        assert a.open_exchanges() == ()
        assert len(a.passive) == candidates  # rejected candidates stay
        a.cycle()  # the next cycle is the retry
        world.drain()
        assert self.neighbor_passes(world) == {0: 2 * candidates}

    def test_shuffle_reply_makes_one_pass_and_arms_no_timer(self, world):
        a, neighbour = self.rejecting_world(world)
        a.handle_shuffle_reply(ShuffleReply(neighbour.address, ()))
        world.drain()
        assert self.neighbor_passes(world) == {0: len(a.passive)}
        assert world.engine.now < PACED.promotion_retry_delay

    def test_failure_runs_the_paced_budget(self, world):
        a, _ = self.rejecting_world(world)
        _, lost = world.hyparview(config=PACED)
        a.active.add(lost.address)
        a.report_failure(lost.address)
        world.drain()
        passes = PACED.promotion_max_passes + 1
        assert self.neighbor_passes(world) == {i: len(a.passive) for i in range(passes)}

    def test_cycle_leaves_a_running_failure_episode_its_budget(self, world):
        a, _ = self.rejecting_world(world)
        _, lost = world.hyparview(config=PACED)
        a.active.add(lost.address)
        a.report_failure(lost.address)
        a.cycle()  # a NEIGHBOR request is open
        world.engine.run_until(1.5 * PACED.promotion_retry_delay)
        a.cycle()  # the retry timer is armed
        world.drain()
        passes = PACED.promotion_max_passes + 1
        assert self.neighbor_passes(world) == {i: len(a.passive) for i in range(passes)}


class TestShuffle:
    def test_shuffle_carries_self_and_samples(self, world):
        config = HyParViewConfig(
            active_view_capacity=3, passive_view_capacity=6, shuffle_ka=2, shuffle_kp=2
        )
        protocols = [p for _, p in world.hyparview_many(4, config=config)]
        world.join_chain(protocols)
        initiator = protocols[0]
        world.network.trace = FrameLog()
        initiator.shuffle_once()
        world.drain()
        assert initiator.stats.shuffles_initiated == 1
        assert initiator._last_shuffle_exchange[0] == initiator.address
        assert 1 <= len(initiator._last_shuffle_exchange) <= 1 + 2 + 2

    def test_shuffle_walk_forwards_until_ttl(self, world):
        config = HyParViewConfig(active_view_capacity=3, passive_view_capacity=6, shuffle_ttl=3)
        protocols = [p for _, p in world.hyparview_many(5, config=config)]
        world.join_chain(protocols)
        initiator = protocols[0]
        initiator.shuffle_once()
        world.drain()
        accepted = sum(p.stats.shuffles_accepted for p in protocols)
        assert accepted == 1  # exactly one node accepted the walk

    def test_shuffle_reply_integrates_into_passive(self, world):
        protocols = [p for _, p in world.hyparview_many(6)]
        world.join_chain(protocols)
        initiator = protocols[0]
        for _ in range(3):
            initiator.shuffle_once()
            world.drain()
        assert initiator.stats.shuffle_replies_received >= 1

    def test_shuffle_with_empty_active_view_is_noop(self, world):
        _, a = world.hyparview(config=SMALL)
        a.shuffle_once()
        world.drain()
        assert a.stats.shuffles_initiated == 0

    def test_integration_excludes_self_active_and_known(self, world):
        (_, a), (_, b), (_, c) = world.hyparview_many(3, config=SMALL)
        world.join_chain([a, b])
        a._add_to_passive(c.address)
        a._integrate_exchange((a.address, b.address, c.address), sent=())
        # a itself, active member b and known passive c are all excluded.
        assert a.address not in a.passive
        assert b.address not in a.passive
        assert list(a.passive.members()).count(c.address) == 1

    def test_integration_eviction_prefers_sent_ids(self, world):
        config = HyParViewConfig(active_view_capacity=3, passive_view_capacity=2)
        _, a = world.hyparview(config=config)
        from repro.common.ids import NodeId

        sent_away = NodeId("sent", 1)
        kept = NodeId("kept", 1)
        a._add_to_passive(sent_away)
        a._add_to_passive(kept)
        incoming = (NodeId("new1", 1), )
        a._integrate_exchange(incoming, sent=(sent_away,))
        assert sent_away not in a.passive  # evicted first
        assert kept in a.passive
        assert NodeId("new1", 1) in a.passive

    def test_shuffle_to_dead_peer_detects_failure(self, world):
        (_, a), (nb, b) = world.hyparview_many(2, config=SMALL)
        world.join_chain([a, b])
        world.network.fail(nb.node_id)
        # Suppress the watch notification path by shuffling immediately;
        # either path must remove b.
        a.shuffle_once()
        world.drain()
        assert b.address not in a.active


class TestViewPrimitives:
    def test_active_and_passive_disjoint(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        a._add_to_passive(b.address)
        a._add_to_active(b.address)
        assert b.address in a.active
        assert b.address not in a.passive

    def test_add_to_active_is_idempotent(self, world):
        (_, a), (_, b) = world.hyparview_many(2, config=SMALL)
        assert a._add_to_active(b.address) is True
        assert a._add_to_active(b.address) is False
        assert len(a.active) == 1

    def test_self_never_added(self, world):
        _, a = world.hyparview(config=SMALL)
        assert a._add_to_active(a.address) is False
        assert a._add_to_passive(a.address) is False

    def test_passive_eviction_at_capacity(self, world):
        config = HyParViewConfig(active_view_capacity=3, passive_view_capacity=2)
        _, a = world.hyparview(config=config)
        from repro.common.ids import NodeId

        for i in range(5):
            a._add_to_passive(NodeId(f"p{i}", 1))
        assert len(a.passive) == 2

    def test_gossip_targets_excludes_sender(self, world):
        protocols = [p for _, p in world.hyparview_many(3, config=SMALL)]
        world.join_chain(protocols)
        a = protocols[0]
        sender = a.active.members()[0]
        targets = a.gossip_targets(99, exclude=(sender,))
        assert sender not in targets
        assert set(targets) <= set(a.active.members())

    def test_stats_counters_progress(self, world):
        protocols = [p for _, p in world.hyparview_many(4, config=SMALL)]
        world.join_chain(protocols)
        contact = protocols[0]
        assert contact.stats.joins_received >= 1
        total_forward = sum(p.stats.forward_joins_received for p in protocols)
        assert total_forward > 0
