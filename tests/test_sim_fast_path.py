"""One behaviour, two speeds: ``Network``'s unhooked straight line and its
hooked path must be indistinguishable from outside, and the work one flood
costs is pinned exactly so a slower path cannot hide behind timing noise.
(Frames in flight when a hook arrives: ``test_sim_network.py``.)"""

from dataclasses import replace

import pytest
from conftest import FrameLog

from repro.experiments import ExperimentParams, Scenario
from repro.sim.network import ByzantineBehavior, LinkFaultRule
from repro.testing import check_acked_channel_quiescent

NEVER = {"NoSuchMessageType"}


def _install_trace(network, _ids):
    network.trace = FrameLog()
    return lambda: setattr(network, "trace", None)


def _install_link_rule(network, _ids):
    network.add_link_rule(LinkFaultRule())  # zero loss, jitter and duplication

    def clear():
        network._link_rules.clear()
        network._rehook()

    return clear


def _install_partition(network, ids):
    network.set_partitions([ids])  # one group: everyone reaches everyone
    return network.clear_partitions


def _install_adversary(network, ids):
    network.set_adversary(ids[3], NEVER)
    return lambda: network.set_adversary(ids[3], ())


def _install_byzantine(network, ids):
    network.set_byzantine(ids[5], ByzantineBehavior(NEVER))
    return lambda: network.set_byzantine(ids[5], None)


INERT_HOOKS = {
    "trace": _install_trace,
    "link-rule": _install_link_rule,
    "partition": _install_partition,
    "adversary": _install_adversary,
    "byzantine": _install_byzantine,
}


class _Order:
    """Delivery recorder: the order in which nodes delivered broadcasts."""

    def __init__(self):
        self.seen = []

    def note(self, node_id, message_id, _payload):
        self.seen.append((node_id, message_id))


@pytest.fixture(scope="module", params=["hyparview", "cyclon"])
def base(request):
    """A stabilised 32-node overlay, frozen, and what the unhooked run on it
    yields; datagrams (cyclon) run under 10 % loss so the network's own RNG
    stream is drawn from."""
    loss_rate = 0.1 if request.param == "cyclon" else 0.0
    scenario = Scenario(request.param, ExperimentParams.scaled(32), loss_rate=loss_rate)
    scenario.build_overlay()
    scenario.stabilize()
    blob = scenario.freeze()
    return blob, _drive(blob)


def _drive(blob, install=None):
    """Floods, a crash wave, membership cycles and more floods on a thaw of
    ``blob``; returns everything an observer could tell two runs apart by."""
    scenario = Scenario.thaw(blob)
    network = scenario.network
    order = _Order()
    scenario.set_delivery_recorder(order)
    assert not network._hooked
    clear = install(network, scenario.node_ids) if install is not None else None
    assert network._hooked == (install is not None)
    scenario.send_broadcasts(5)
    scenario.fail_nodes(scenario.node_ids[20:26])
    scenario.send_broadcasts(5)
    scenario.run_cycles(2)
    scenario.send_broadcasts(5)
    if clear is not None:
        clear()
        assert not network._hooked
    return (
        network.stats.snapshot(),
        network._rng.getstate(),
        order.seen,
        scenario.engine.processed,
        scenario.engine.now,
    )


@pytest.mark.parametrize("hook", sorted(INERT_HOOKS))
def test_inert_hook_changes_nothing_observable(base, hook):
    blob, unhooked = base
    assert _drive(blob, INERT_HOOKS[hook]) == unhooked


def _work(scenario):
    """Everything the simulator counts exactly: events fired, frames by fate,
    and 32-bit RNG words drawn so far, per family of streams."""
    stats = scenario.network.stats
    work = {
        "events": scenario.engine.processed,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "send_failures": stats.send_failures,
        "harness": scenario._rng.words_consumed,
        "network": scenario.network._rng.words_consumed,
        "node": 0,
        "membership": 0,
        "gossip": 0,
    }
    for node in scenario.nodes.values():
        work["node"] += node.rng.words_consumed
        for slot in ("membership", "gossip"):
            work[slot] += node.protocol(slot)._host.rng.words_consumed
    return work


def test_flood_work_is_pinned_exactly():
    """Twenty floods on a fixed n=64 HyParView overlay: events fired, frames
    sent and delivered, and RNG words drawn.  Exact on every host, so a
    change that makes the per-message path do more work fails here without
    any timing (ROADMAP 1b)."""
    scenario = Scenario("hyparview", ExperimentParams.scaled(64))
    scenario.build_overlay()
    scenario.stabilize()
    before = _work(scenario)
    summaries = scenario.send_broadcasts(20)
    assert all(summary.reliability == 1.0 for summary in summaries)
    floods = {key: value - before[key] for key, value in _work(scenario).items()}
    # 257 frames per flood: one event each, every one delivered, none redrawn;
    # the only randomness is the harness choosing twenty origins.
    assert floods == {
        "events": 20 * 257,
        "sent": 20 * 257,
        "delivered": 20 * 257,
        "send_failures": 0,
        "harness": 37,
        "network": 0,
        "node": 0,
        "membership": 0,
        "gossip": 0,
    }


def test_membership_work_is_pinned_exactly():
    """The cold path and one heal episode at n=64: build + 50 cycles, then
    crash 40 %, three repair cycles, ten floods.  Join walks, shuffles,
    promotions and every uniform draw behind them, counted — so a "cheaper"
    ``random_member`` or RNG primitive that draws once more, once less or in
    another order fails here, on any host, without a stopwatch (ROADMAP 4)."""
    scenario = Scenario("hyparview", ExperimentParams.scaled(64))
    scenario.build_overlay()
    scenario.stabilize()
    setup = _work(scenario)
    assert setup == {
        "events": 43559,
        "sent": 36510,
        "delivered": 36510,
        "send_failures": 0,
        "harness": 4535,  # join order, contacts
        "network": 0,  # reliable sends only: no loss to draw
        "node": 0,
        "membership": 125697,
        "gossip": 0,  # flooding makes no random choice
    }
    scenario.fail_fraction(0.4)
    scenario.run_cycles(3)
    summaries = scenario.send_broadcasts(10)
    assert all(summary.reliability == 1.0 for summary in summaries)
    episode = {key: value - setup[key] for key, value in _work(scenario).items()}
    assert episode == {
        "events": 6718,
        "sent": 5027,
        "delivered": 5026,
        "send_failures": 1,
        "harness": 234,  # the crash sample, cycle orders, origins
        "network": 0,
        "node": 0,
        "membership": 6339,
        "gossip": 0,
    }


def test_reliable_zoned_work_is_pinned_exactly():
    """Ack + retransmit gossip at n=64 over zoned latency, 5 % datagram loss
    from the stable overlay on: four broadcasts that teach every link its
    round trip, then ten measured.  What the acked channel costs per
    broadcast — events, frames by fate, acks, retransmissions, give-ups and
    every RNG word (jitter and loss draws come from the network's stream) —
    is exact on any host; and after every drain *every timer fired or was
    cancelled* (ROADMAP 4a's first named invariant of the channel)."""
    params = replace(ExperimentParams.scaled(64), latency_model="zoned")
    scenario = Scenario("hyparview-reliable", params)
    scenario.build_overlay()
    scenario.stabilize()
    scenario.network.loss_rate = 0.05
    baseline = scenario.engine.live_pending

    def work():
        counted = _work(scenario)
        counted["dropped_loss"] = scenario.network.stats.dropped_loss
        for key in ("acks_received", "retransmissions", "give_ups"):
            counted[key] = 0
        for node_id in scenario.node_ids:
            for key, value in scenario.broadcast_layer(node_id).reliability_stats().items():
                counted[key] += value
        return counted

    def broadcasts(count):
        before = work()
        for _ in range(count):
            assert scenario.send_broadcast().reliability == 1.0
            check_acked_channel_quiescent(scenario, baseline)
        return {key: value - before[key] for key, value in work().items()}

    # Learning: 641 re-sent copies, most of them because a link's round trip
    # was not known yet (the fixed timeout the estimator replaced: 1 463).
    assert broadcasts(4) == {
        "events": 3720,
        "sent": 3248,
        "delivered": 3079,
        "dropped_loss": 169,
        "send_failures": 0,
        "acks_received": 1028,
        "retransmissions": 641,
        "give_ups": 0,
        "harness": 4,  # four origins
        "network": 12992,  # per frame: a jitter draw, and a loss draw if it is a datagram
        "node": 0,
        "membership": 0,
        "gossip": 0,  # fanout 0: the whole active view, no sampling
    }
    # Learnt: 28 re-sent copies per broadcast for ~27 lost frames (5 % of 257
    # copies and of their acks).  The fixed timeout: 369 per broadcast, and
    # 15 265 events / 12 184 frames for the same ten broadcasts.
    assert broadcasts(10) == {
        "events": 5569,
        "sent": 5562,
        "delivered": 5289,
        "dropped_loss": 273,
        "send_failures": 0,
        "acks_received": 2570,
        "retransmissions": 280,
        "give_ups": 0,
        "harness": 25,
        "network": 22248,
        "node": 0,
        "membership": 0,
        "gossip": 0,
    }

