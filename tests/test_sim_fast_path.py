"""One behaviour, two speeds: ``Network``'s unhooked straight line and its
hooked path must be indistinguishable from outside, and the work one flood
costs is pinned exactly so a slower path cannot hide behind timing noise.
(Frames in flight when a hook arrives: ``test_sim_network.py``.)"""

import pytest

from repro.experiments import ExperimentParams, Scenario
from repro.sim.network import ByzantineBehavior, LinkFaultRule
from repro.sim.trace import EventTrace

NEVER = {"NoSuchMessageType"}


def _install_trace(network, _ids):
    network.trace = EventTrace()
    return lambda: setattr(network, "trace", None)


def _install_link_rule(network, _ids):
    network.add_link_rule(LinkFaultRule())  # zero loss, jitter and duplication
    return network.clear_link_rules


def _install_partition(network, ids):
    network.set_partitions([ids])  # one group: everyone reaches everyone
    return network.clear_partitions


def _install_adversary(network, ids):
    network.set_adversary(ids[3], NEVER)
    return lambda: network.set_adversary(ids[3], ())


def _install_byzantine(network, ids):
    network.set_byzantine(ids[5], ByzantineBehavior(NEVER))
    return lambda: network.set_byzantine(ids[5], None)


def _install_collusion(network, ids):
    network.set_collusion(ids[7:10], drop_types=NEVER, mutate_types=NEVER)
    return lambda: network.clear_collusion(ids[7:10])


INERT_HOOKS = {
    "trace": _install_trace,
    "link-rule": _install_link_rule,
    "partition": _install_partition,
    "adversary": _install_adversary,
    "byzantine": _install_byzantine,
    "collusion": _install_collusion,
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


def _rng_words(scenario):
    """32-bit words drawn so far from every stream the scenario owns."""
    streams = [scenario._rng, scenario.network._rng]
    for node in scenario.nodes.values():
        streams.append(node.rng)
        streams += [node.protocol(slot)._host.rng for slot in ("membership", "gossip")]
    return sum(stream.words_consumed for stream in streams)


def test_flood_work_is_pinned_exactly():
    """Twenty floods on a fixed n=64 HyParView overlay: events fired, frames
    sent and delivered, and RNG words drawn.  Exact on every host, so a
    change that makes the per-message path do more work fails here without
    any timing (ROADMAP 1b)."""
    scenario = Scenario("hyparview", ExperimentParams.scaled(64))
    scenario.build_overlay()
    scenario.stabilize()
    stats = scenario.network.stats
    before = (scenario.engine.processed, stats.sent, stats.delivered, _rng_words(scenario))
    summaries = scenario.send_broadcasts(20)
    after = (scenario.engine.processed, stats.sent, stats.delivered, _rng_words(scenario))
    assert all(summary.reliability == 1.0 for summary in summaries)
    events, sent, delivered, words = (new - old for new, old in zip(after, before))
    # 257 frames per flood: one event each, every one delivered, none redrawn;
    # the only randomness is the harness choosing twenty origins.
    assert (events, sent, delivered, words) == (20 * 257, 20 * 257, 20 * 257, 37)
