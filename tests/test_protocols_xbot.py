"""Unit and property tests of the X-BOT optimisation swap (repro.protocols.xbot).

The crafted tests wire the four swap roles by hand — initiator ``i``,
candidate ``c``, old ``o`` and disconnected ``d``, each padded with an
unbiased slot-0 neighbour — and drive one round against a dict-backed
fake latency model, so every branch of the 6-leg exchange (commit, aggregate
rejection, direct accept, timeout, stale replies) is pinned
deterministically.

The hypothesis fuzz then interleaves optimisation rounds with joins,
crashes, graceful leaves and request-frame loss and checks the global
invariants at quiescence:

* everything plain HyParView guarantees (symmetry, capacity, disjoint
  views — see test_protocol_fuzz.py);
* no swap exchange is left open once the network and all timers drain;
* the unbiased floor: an optimisation removal never touches a node's
  protected slot-0 member (asserted inside the commit primitive itself,
  so any schedule that violated it would fail loudly).

Loss is injected only on the *request* legs (Optimization / Replace /
Switch): every commit in the chain happens in a request handler and is
confirmed by a reply the requester never drops, so request loss can only
abort rounds, never de-synchronise views — which is exactly the property
the fuzz pins down.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.core.config import HyParViewConfig
from repro.faults.adversary import SimMisbehaviour
from repro.faults.plan import AdversaryEvent
from repro.experiments.params import ExperimentParams
from repro.experiments.scenario import Scenario
from repro.protocols.xbot import OptimizationReply, XBot
from repro.sim.latency import ConstantLatency, ZonedLatency
from repro.testing import World

CONFIG = HyParViewConfig(
    active_view_capacity=2,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    shuffle_ka=1,
    shuffle_kp=2,
    promotion_retry_delay=0.2,
    promotion_max_passes=5,
)


class MapLatency:
    """Fake latency model: a symmetric ``base_delay`` table keyed by
    unordered host-name pairs (X-BOT reads nothing else of the model)."""

    __slots__ = ("table", "default")

    def __init__(self, table: dict[tuple[str, str], float], default: float = 5.0) -> None:
        self.table = {frozenset(pair): cost for pair, cost in table.items()}
        self.default = default

    def base_delay(self, a: NodeId, b: NodeId) -> float:
        return self.table.get(frozenset((a.host, b.host)), self.default)


def link(pa: XBot, pb: XBot) -> None:
    """Install a symmetric active edge directly (insertion order is slot
    order, so the first link a node gets lands in its unbiased slot 0)."""
    pa.active.add(pb.address)
    pa._host.watch(pb.address, pa._on_link_down)
    pb.active.add(pa.address)
    pb._host.watch(pa.address, pb._on_link_down)


def quad_world(latency, *, with_d: bool = True):
    """The four swap roles, each shielded by an unbiased filler neighbour.

    ``i``: active [ui, o], passive [c] — a full view whose only swappable
    edge is the expensive ``i–o`` one.  ``c``: active [uc, d] (or empty
    when ``with_d`` is off, exercising the direct-accept path).
    """
    world = World(seed=11)
    names = ("i", "c", "o", "d", "ui", "uc", "uo", "ud")
    built = {name: world.xbot(name, CONFIG, latency=latency) for name in names}
    protos = {name: proto for name, (_, proto) in built.items()}
    nodes = {name: node for name, (node, _) in built.items()}
    link(protos["i"], protos["ui"])
    link(protos["o"], protos["uo"])
    link(protos["i"], protos["o"])
    if with_d:
        link(protos["c"], protos["uc"])
        link(protos["d"], protos["ud"])
        link(protos["c"], protos["d"])
    protos["i"].passive.add(protos["c"].address)
    return world, nodes, protos


def active_sets(protos) -> dict[str, set[NodeId]]:
    return {name: set(proto.active_members()) for name, proto in protos.items()}


def total_cost(protos, latency) -> float:
    edges = set()
    for proto in protos.values():
        for peer in proto.active_members():
            edges.add(frozenset((proto.address, peer)))
    return sum(latency.base_delay(*sorted(edge, key=str)) for edge in edges)


class TestSwapCommit:
    COSTS = MapLatency(
        {("i", "o"): 10.0, ("i", "c"): 1.0, ("c", "d"): 10.0, ("d", "o"): 1.0}
    )

    def test_four_node_swap_rewires_both_edges(self):
        world, _, protos = quad_world(self.COSTS)
        before = total_cost(protos, self.COSTS)
        protos["i"].optimize_once()
        world.drain()
        views = active_sets(protos)
        assert views["i"] == {protos["ui"].address, protos["c"].address}
        assert views["c"] == {protos["uc"].address, protos["i"].address}
        assert views["o"] == {protos["uo"].address, protos["d"].address}
        assert views["d"] == {protos["ud"].address, protos["o"].address}
        assert total_cost(protos, self.COSTS) < before
        stats = protos["i"].xbot_stats
        assert stats.rounds_initiated == 1
        assert stats.swaps_completed == 1
        # o demotes i on the Switch leg, d demotes c on the SwitchReply leg;
        # i and c mirror those removals through the reserved-Disconnect path.
        assert protos["o"].xbot_stats.optimization_removals == 1
        assert protos["d"].xbot_stats.optimization_removals == 1
        for proto in protos.values():
            assert proto.xbot_stats.swap_timeouts == 0
            assert proto.xbot_stats.unbiased_protected == 0
            assert proto.xbot_stats.edges_declined == 0

    def test_swap_demotes_old_edges_to_passive(self):
        world, _, protos = quad_world(self.COSTS)
        protos["i"].optimize_once()
        world.drain()
        assert protos["o"].address in protos["i"].passive_members()
        assert protos["i"].address in protos["o"].passive_members()

    def test_views_stay_symmetric_after_swap(self):
        world, _, protos = quad_world(self.COSTS)
        protos["i"].optimize_once()
        world.drain()
        for proto in protos.values():
            for peer in proto.active_members():
                owner = next(p for p in protos.values() if p.address == peer)
                assert proto.address in owner.active_members()

    def test_direct_accept_when_candidate_has_room(self):
        world, _, protos = quad_world(self.COSTS, with_d=False)
        protos["i"].optimize_once()
        world.drain()
        assert protos["c"].address in protos["i"].active_members()
        assert protos["i"].address in protos["c"].active_members()
        assert protos["o"].address not in protos["i"].active_members()
        assert protos["i"].xbot_stats.swaps_completed == 1
        # No fourth node was needed: nobody saw a Replace or Switch.
        assert protos["d"].xbot_stats.optimization_removals == 0


class TestSwapRejection:
    def test_aggregate_cost_rule_rejects_at_d(self):
        # i sees a local gain (1 < 10) but the swap would hand d a worse
        # edge than it gives up (15 > 1), so the aggregate rule refuses.
        costs = MapLatency(
            {("i", "o"): 10.0, ("i", "c"): 1.0, ("c", "d"): 1.0, ("d", "o"): 15.0}
        )
        world, _, protos = quad_world(costs)
        before = active_sets(protos)
        protos["i"].optimize_once()
        world.drain()
        assert active_sets(protos) == before
        assert protos["i"].xbot_stats.rounds_initiated == 1
        assert protos["i"].xbot_stats.swaps_rejected == 1
        assert protos["i"].xbot_stats.swaps_completed == 0

    def test_constant_latency_never_initiates(self):
        world, _, protos = quad_world(None)  # the default: ConstantLatency
        assert isinstance(protos["i"].latency, ConstantLatency)
        before = active_sets(protos)
        for proto in protos.values():
            proto.optimize_once()
        world.drain()
        assert active_sets(protos) == before
        assert all(p.xbot_stats.rounds_initiated == 0 for p in protos.values())

    def test_no_round_without_strict_gain(self):
        # A candidate exactly as costly as the worst neighbour is no strict
        # improvement — no round opens.
        costs = MapLatency({("i", "o"): 10.0, ("i", "c"): 10.0})
        world, _, protos = quad_world(costs)
        protos["i"].optimize_once()
        world.drain()
        assert protos["i"].xbot_stats.rounds_initiated == 0


class TestUnbiasedSlots:
    def test_demote_refuses_unbiased_member(self):
        _, _, protos = quad_world(TestSwapCommit.COSTS)
        ui = protos["ui"].address
        assert protos["i"].unbiased_members() == (ui,)
        assert not protos["i"]._demote_for_swap(ui, notify_peer=False)
        assert protos["i"].xbot_stats.unbiased_protected == 1
        assert ui in protos["i"].active_members()

    def test_optimizer_skips_expensive_unbiased_edge(self):
        # The i-ui edge is the costliest in the overlay, but it sits in the
        # unbiased slot: the round must target o instead and leave ui alone.
        costs = MapLatency(
            {
                ("i", "ui"): 100.0,
                ("i", "o"): 10.0,
                ("i", "c"): 1.0,
                ("c", "d"): 10.0,
                ("d", "o"): 1.0,
            }
        )
        world, _, protos = quad_world(costs)
        protos["i"].optimize_once()
        world.drain()
        assert protos["i"].xbot_stats.swaps_completed == 1
        assert protos["i"].unbiased_members() == (protos["ui"].address,)
        assert protos["o"].address not in protos["i"].active_members()


class TestTimeoutsAndStaleReplies:
    def test_initiator_timeout_on_dead_candidate(self):
        world, nodes, protos = quad_world(TestSwapCommit.COSTS)
        before = active_sets(protos)["i"]
        world.network.fail(nodes["c"].node_id)
        protos["i"].optimize_once()
        world.drain()  # runs the swap timer; the Optimization was dropped
        assert protos["i"].xbot_stats.rounds_initiated == 1
        assert protos["i"].xbot_stats.swap_timeouts == 1
        assert protos["i"].xbot_stats.swaps_completed == 0
        assert protos["i"].open_exchanges() == ()
        assert active_sets(protos)["i"] == before

    def test_stale_optimization_reply_is_ignored(self):
        world, _, protos = quad_world(TestSwapCommit.COSTS)
        before = active_sets(protos)
        reply = OptimizationReply(
            candidate=protos["c"].address, old=protos["o"].address, accepted=True
        )
        protos["i"].handle_optimization_reply(reply)
        world.drain()
        assert active_sets(protos) == before
        assert protos["i"].xbot_stats.swaps_completed == 0


class TestLinkPrices:
    def test_sim_stack_prices_links_by_the_world_model(self):
        params = ExperimentParams.scaled(8, stabilization_cycles=1)
        scenario = Scenario("hyparview-xbot", replace(params, latency_model="zoned"))
        a, b = scenario.node_ids[:2]
        latency = scenario.membership(a).latency
        assert isinstance(latency, ZonedLatency)
        assert latency.base_delay(a, b) == scenario.latency.base_delay(a, b)


# ----------------------------------------------------------------------
# Property-based fuzz of the swap state machine
# ----------------------------------------------------------------------
class CheckedXBot(XBot):
    """XBot that fails loudly if a swap commit ever removes an unbiased
    member — turning the floor from a counter into a fuzz invariant."""

    def _demote_for_swap(self, peer, *, notify_peer):
        protected = self.unbiased_members()
        removed = super()._demote_for_swap(peer, notify_peer=notify_peer)
        assert not (removed and peer in protected), (
            f"optimisation removed unbiased member {peer}"
        )
        return removed


class HashLatency:
    """Fake latency model: deterministic symmetric pseudo-random
    ``base_delay`` from node identities."""

    __slots__ = ()

    def base_delay(self, a: NodeId, b: NodeId) -> float:
        if a == b:
            return 0.0
        lo, hi = sorted((f"{a.host}:{a.port}", f"{b.host}:{b.port}"))
        digest = hashlib.sha256(f"{lo}--{hi}".encode()).digest()
        return int.from_bytes(digest[:4], "big") / 2**32


FUZZ_CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=6,
    arwl=3,
    prwl=2,
    shuffle_ka=2,
    shuffle_kp=2,
    promotion_retry_delay=0.2,
    promotion_max_passes=5,
)

#: Request legs only — every commit happens in a request handler and is
#: confirmed by a reply the requester never drops, so request loss aborts
#: rounds without ever de-synchronising views (see module docstring).
SWAP_REQUESTS = ("Optimization", "Replace", "Switch")

NODES = 8

operation = st.one_of(
    st.tuples(st.just("join"), st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    st.tuples(st.just("crash"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("leave"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("cycle"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("optimize"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("lossy"), st.integers(0, NODES - 1), st.just(0)),
    st.tuples(st.just("honest"), st.integers(0, NODES - 1), st.just(0)),
)


class XBotFuzzer:
    def __init__(self, seed: int) -> None:
        self.world = World(seed=seed)
        self.latency = HashLatency()
        self.pairs = [
            self.world.xbot(config=FUZZ_CONFIG, latency=self.latency, cls=CheckedXBot)
            for _ in range(NODES)
        ]
        self.nodes = [node for node, _ in self.pairs]
        self.protocols = [protocol for _, protocol in self.pairs]
        self.world.join_chain(self.protocols)
        # One adversary window per node, opened by "lossy", closed by "honest".
        self.hosts = SimMisbehaviour(lambda: self.world.seeds.stream("network/faults"))
        self.lossy = [
            AdversaryEvent(at=0.0, count=1, drop_types=SWAP_REQUESTS) for _ in range(NODES)
        ]

    def alive(self, index: int) -> bool:
        return self.nodes[index].alive

    def _alive_count(self) -> int:
        return sum(1 for node in self.nodes if node.alive)

    def apply(self, op: tuple) -> None:
        kind, a, b = op
        if kind == "join":
            if a != b and self.alive(a) and self.alive(b):
                self.protocols[a].join(self.protocols[b].address)
        elif kind == "crash":
            if self.alive(a) and self._alive_count() > 2:
                self.world.network.fail(self.nodes[a].node_id)
        elif kind == "leave":
            if self.alive(a) and self._alive_count() > 2:
                self.protocols[a].leave()
                self.world.drain()
                self.world.network.fail(self.nodes[a].node_id)
        elif kind == "cycle":
            if self.alive(a):
                self.protocols[a].cycle()  # shuffle + one optimisation round
        elif kind == "optimize":
            if self.alive(a):
                self.protocols[a].optimize_once()
        elif kind == "lossy":
            if self.alive(a):
                self.hosts.apply(self.lossy[a], [self.nodes[a]])
        elif kind == "honest":
            if self.alive(a):
                self.hosts.clear(self.lossy[a])
        self.world.drain()

    def check_invariants(self) -> None:
        live = {
            node.node_id: protocol
            for node, protocol in zip(self.nodes, self.protocols)
            if node.alive
        }
        for node_id, protocol in live.items():
            active = set(protocol.active_members())
            passive = set(protocol.passive_members())
            assert node_id not in active, "node in own active view"
            assert node_id not in passive, "node in own passive view"
            assert not active & passive, "active and passive views overlap"
            assert len(active) <= FUZZ_CONFIG.active_view_capacity
            assert len(passive) <= FUZZ_CONFIG.passive_view_capacity
            # Quiescence resolves every exchange: each open swap leg holds a
            # live timer, and drain() runs timers to completion.
            assert protocol.open_exchanges() == ()
            assert set(protocol.unbiased_members()) <= active
        for node_id, protocol in live.items():
            for peer in protocol.active_members():
                if peer in live:
                    assert node_id in live[peer].active_members(), (
                        f"asymmetric link {node_id} -> {peer}"
                    )


class TestXBotFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(operation, max_size=25),
    )
    # Simultaneous NEIGHBOR requests, then an eviction of the requested
    # peer while its accepting reply is in flight: the reply re-added an
    # evicted peer, leaving a one-sided link.
    @example(71, [("join", 3, 4), ("crash", 4, 0), ("join", 6, 3)])
    def test_invariants_hold_under_any_event_sequence(self, seed, operations):
        fuzzer = XBotFuzzer(seed)
        for op in operations:
            fuzzer.apply(op)
        fuzzer.check_invariants()

    def test_fuzzer_bootstrap_is_sane(self):
        fuzzer = XBotFuzzer(7)
        fuzzer.check_invariants()
        assert all(len(p.active_members()) >= 1 for p in fuzzer.protocols)

    def test_optimisation_pressure_lowers_cost_on_static_overlay(self):
        """With no churn, repeated rounds must strictly reduce the summed
        active-edge cost (the paper's convergence argument) and never
        disturb symmetry."""
        fuzzer = XBotFuzzer(13)

        def summed_cost() -> float:
            edges = set()
            for proto in fuzzer.protocols:
                for peer in proto.active_members():
                    edges.add(frozenset((proto.address, peer)))
            return sum(
                fuzzer.latency.base_delay(*sorted(edge, key=str))
                for edge in edges
                if len(edge) == 2
            )

        before = summed_cost()
        for _ in range(10):
            for proto in fuzzer.protocols:
                proto.optimize_once()
            fuzzer.world.drain()
        completed = sum(p.xbot_stats.swaps_completed for p in fuzzer.protocols)
        assert completed > 0, "no swap completed on a static random overlay"
        assert summed_cost() < before
        fuzzer.check_invariants()
