"""Test-support helpers: a small wired world for protocol unit tests.

Lives inside the package (rather than in a ``conftest.py``) so test
modules can import it without relying on pytest's ``sys.path`` insertion.
"""

from __future__ import annotations

from .common.ids import NodeId
from .common.rng import SeedSequence
from .core.config import HyParViewConfig
from .core.protocol import HyParView
from .gossip.eager import EagerGossip
from .gossip.flood import FloodBroadcast
from .gossip.plumtree import Plumtree
from .gossip.tracker import BroadcastTracker
from .protocols.cyclon import Cyclon, CyclonConfig
from .protocols.cyclon_acked import CyclonAcked
from .protocols.scamp import Scamp
from .protocols.xbot import XBot
from .sim.engine import Engine
from .sim.latency import LatencyModel
from .sim.network import Network
from .sim.node import SimNode


class World:
    """A small simulated network with helpers to wire protocol stacks.

    Unit tests use this instead of the full experiment Scenario so they can
    mix protocols, drive single messages, and inspect everything.
    """

    def __init__(self, seed: int = 7) -> None:
        self.engine = Engine()
        self.seeds = SeedSequence(seed)
        self.network = Network(self.engine, seeds=self.seeds)
        self.tracker = BroadcastTracker()
        self._counter = 0

    # ------------------------------------------------------------------
    def new_node(self, name: str | None = None) -> SimNode:
        if name is None:
            name = f"n{self._counter}"
            self._counter += 1
        return SimNode(NodeId(name, 9000), self.network)

    def hyparview(self, name: str | None = None, config: HyParViewConfig | None = None):
        node = self.new_node(name)
        protocol = HyParView(node.host("membership"), config or HyParViewConfig())
        node.wire("membership", protocol)
        return node, protocol

    def hyparview_many(self, count: int, config: HyParViewConfig | None = None):
        return [self.hyparview(config=config) for _ in range(count)]

    def xbot(
        self,
        name: str | None = None,
        config: HyParViewConfig | None = None,
        *,
        latency: LatencyModel | None = None,
        cls: type[XBot] = XBot,
    ):
        node = self.new_node(name)
        protocol = cls(node.host("membership"), config or HyParViewConfig(), latency=latency)
        node.wire("membership", protocol)
        return node, protocol

    def cyclon(self, name: str | None = None, config: CyclonConfig | None = None):
        node = self.new_node(name)
        protocol = Cyclon(node.host("membership"), config or CyclonConfig(view_size=8, shuffle_length=4))
        node.wire("membership", protocol)
        return node, protocol

    def cyclon_acked(self, name: str | None = None, config: CyclonConfig | None = None):
        node = self.new_node(name)
        protocol = CyclonAcked(
            node.host("membership"), config or CyclonConfig(view_size=8, shuffle_length=4)
        )
        node.wire("membership", protocol)
        return node, protocol

    def scamp(self, name: str | None = None):
        node = self.new_node(name)
        protocol = Scamp(node.host("membership"))
        node.wire("membership", protocol)
        return node, protocol

    def with_flood(self, node: SimNode, membership: HyParView) -> FloodBroadcast:
        layer = FloodBroadcast(node.host("gossip"), membership, self.tracker)
        node.wire("gossip", layer)
        return layer

    def with_eager(self, node: SimNode, membership, *, fanout: int = 3, acked: bool = False):
        layer = EagerGossip(
            node.host("gossip"), membership, self.tracker, fanout=fanout, acked=acked
        )
        node.wire("gossip", layer)
        return layer

    def with_plumtree(self, node: SimNode, membership: HyParView) -> Plumtree:
        layer = Plumtree(node.host("gossip"), membership, self.tracker)
        node.wire("gossip", layer)
        return layer

    # ------------------------------------------------------------------
    def drain(self, max_events: int = 2_000_000) -> int:
        return self.engine.run_until_idle(max_events)

    def join_chain(self, protocols) -> None:
        """First protocol is the contact; the rest join through it."""
        contact = protocols[0].address
        for protocol in protocols[1:]:
            protocol.join(contact)
            self.drain()


def check_acked_channel_quiescent(scenario, live_baseline: int = 0) -> None:
    """Named invariant of the acked channel, checked on a drained scenario:
    **every retransmit timer fired or was cancelled.**  No live node's
    broadcast layer still holds a copy in flight, and the engine's live
    queue is back to what it held before the broadcast.  (A crashed node
    keeps the copies it died with: its timers are suppressed, not run.)
    """
    for node_id in scenario.alive_ids():
        pending = getattr(scenario.broadcast_layer(node_id), "pending_retransmits", 0)
        if pending:
            raise AssertionError(f"{node_id}: {pending} copies still in flight at quiescence")
    live = scenario.engine.live_pending
    if live != live_baseline:
        raise AssertionError(f"{live} live events at quiescence, {live_baseline} before")


def check_no_open_exchange(scenario) -> None:
    """Named invariant of the membership layer, checked on a drained
    scenario: **no live node holds an open guarded exchange.**  Every
    NEIGHBOR request and every X-BOT swap leg was answered, failed or timed
    out; a slot left open never promotes or optimises again."""
    for node_id in scenario.alive_ids():
        open_exchanges = getattr(scenario.membership(node_id), "open_exchanges", tuple)()
        if open_exchanges:
            raise AssertionError(f"{node_id}: exchanges open at quiescence: {open_exchanges}")


def check_no_dead_active_peers(scenario) -> None:
    """Named invariant of HyParView's active view, checked on a drained
    scenario: **no live node keeps a crashed peer as an active neighbour.**
    A crash fails every connection to the dead node, and §4.2 uses that
    failure as the detector, so a drained overlay has purged it."""
    alive = frozenset(scenario.alive_ids())
    for node_id in scenario.alive_ids():
        dead = [peer for peer in scenario.membership(node_id).out_neighbors() if peer not in alive]
        if dead:
            raise AssertionError(f"{node_id}: crashed peers in the active view: {dead}")
