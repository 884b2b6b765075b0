"""Scenario: a fully wired simulated deployment of one protocol stack.

A scenario owns the engine, the network, ``n`` nodes each running a
membership protocol plus a broadcast layer, and a shared delivery tracker.
It exposes exactly the operations the paper's evaluation is written in
terms of: build the overlay by sequential joins, run membership cycles,
inject failures, send message batches, snapshot the overlay graph.

Building and stabilising a large overlay dominates experiment cost, so a
stabilised scenario can be :meth:`frozen <Scenario.freeze>` to bytes once
and :meth:`rehydrated <Scenario.thaw>` per measurement — every registered
cell gets its base that way, through the orchestrator's snapshot cache.
The freeze/thaw round trip replaced the original ``copy.deepcopy``, which
re-walked the whole object graph per copy and was ~3x slower than
``pickle.loads`` of a pre-frozen blob.
"""

from __future__ import annotations

import pickle
from typing import Callable, Container, Optional

from ..common.errors import ConfigurationError, SimulationError
from ..common.ids import NodeId, simulated_node_ids
from ..common.rng import SeedSequence
from ..gossip.tracker import BroadcastSummary, BroadcastTracker
from ..metrics.graph import OverlaySnapshot
from ..obs.context import current_collector
from ..protocols.base import PeerSamplingService
from ..protocols.registry import get_stack
from ..sim.engine import Engine
from ..sim.latency import LATENCY_SECONDS, build_latency_model
from ..sim.network import Network
from ..sim.node import SimNode
from .params import PROTOCOL_NAMES, ExperimentParams

#: Livelock guard: one drain that fires more events than this raises
#: instead of spinning forever.
MAX_EVENTS_PER_DRAIN = 50_000_000


class _RecorderCallback:
    """Per-node ``on_deliver`` shim feeding a scenario-wide recorder."""

    __slots__ = ("recorder", "node_id")

    def __init__(self, recorder, node_id: NodeId) -> None:
        self.recorder = recorder
        self.node_id = node_id

    def __call__(self, message_id, payload) -> None:
        self.recorder.note(self.node_id, message_id, payload)


class Scenario:
    """One simulated deployment of ``params.n`` nodes running ``protocol``."""

    def __init__(
        self,
        protocol: str,
        params: Optional[ExperimentParams] = None,
        *,
        loss_rate: float = 0.0,
    ) -> None:
        if protocol not in PROTOCOL_NAMES:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; expected one of {PROTOCOL_NAMES}"
            )
        self.protocol = protocol
        self.params = params if params is not None else ExperimentParams()
        self.seeds = SeedSequence(self.params.seed)
        self.node_ids: list[NodeId] = simulated_node_ids(self.params.n)
        # The latency world model prices every link; ``params.latency_model``
        # selects it (constant by default — the historical, pinned setting).
        self.latency = build_latency_model(self.params)
        self.engine = Engine()
        self.network = Network(
            self.engine,
            latency=self.latency,
            seeds=self.seeds,
            loss_rate=loss_rate,
        )
        self.tracker = BroadcastTracker()
        # Dissemination tracing: when a collector is active (the runner's
        # --trace mode), every scenario lifetime records into its own
        # segment.  One module-global read at construction time; with
        # tracing off this stays None and the network pays one if-check.
        collector = current_collector()
        if collector is not None:
            self.network.trace = collector.new_segment()
        self._rng = self.seeds.stream("harness")
        # Optional per-delivery recorder (see set_delivery_recorder); set
        # before the node loop so _build_stack can consult it.
        self._delivery_recorder = None
        self.nodes: dict[NodeId, SimNode] = {}
        for node_id in self.node_ids:
            node = SimNode(node_id, self.network)
            self._build_stack(node)
            self.nodes[node_id] = node
        self.population: frozenset[NodeId] = frozenset(self.node_ids)
        self._overlay_built = False

    # ------------------------------------------------------------------
    # Stack construction
    # ------------------------------------------------------------------
    def _build_stack(self, node: SimNode) -> None:
        # One construction path shared with the asyncio runtime: the
        # declarative stack registry (repro.protocols.registry) owns the
        # membership/broadcast factory pair for each protocol name and
        # resolves declared capabilities (``needs_roster``) itself — the
        # harness only supplies the roster, it never special-cases stacks.
        spec = get_stack(self.protocol)
        membership, broadcast = spec.build(
            node.host("membership"),
            node.host("gossip"),
            self.params,
            self.tracker,
            roster=self.node_ids,
        )
        node.wire("membership", membership)
        node.wire("gossip", broadcast)
        if self._delivery_recorder is not None:
            broadcast._on_deliver = _RecorderCallback(
                self._delivery_recorder, node.node_id
            )

    def set_delivery_recorder(self, recorder) -> None:
        """Route every broadcast delivery to ``recorder.note(node_id,
        message_id, payload)`` — including deliveries on stacks rebuilt by
        later ``revive_node`` calls.

        The tracker sees message *ids*; measurements that must judge
        delivered *values* (Byzantine mutation/equivocation runs) need the
        payloads.  ``None`` detaches.  Recorders are installed post-thaw
        on measurement checkouts, never frozen into snapshots.
        """
        self._delivery_recorder = recorder
        for node_id in self.node_ids:
            layer = self.broadcast_layer(node_id)
            layer._on_deliver = (
                _RecorderCallback(recorder, node_id) if recorder is not None else None
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def membership(self, node_id: NodeId) -> PeerSamplingService:
        return self.nodes[node_id].protocol("membership")

    def broadcast_layer(self, node_id: NodeId):
        return self.nodes[node_id].protocol("gossip")

    def alive_ids(self) -> list[NodeId]:
        return self.network.alive_ids()

    def drain(self) -> int:
        """Process every pending event (one lock-step phase)."""
        return self.engine.run_until_idle(MAX_EVENTS_PER_DRAIN)

    # ------------------------------------------------------------------
    # Overlay construction (Section 5: join one by one, no cycles between)
    # ------------------------------------------------------------------
    def build_overlay(self) -> None:
        if self._overlay_built:
            raise SimulationError("overlay already built")
        self._overlay_built = True
        joined = [self.node_ids[0]]
        for node_id in self.node_ids[1:]:
            contact = self._contact_for(node_id, joined)
            self.membership(node_id).join(contact)
            self.drain()
            joined.append(node_id)

    def _contact_for(self, node_id: NodeId, joined: list[NodeId]) -> NodeId:
        if self.protocol == "scamp":
            # Scamp joins through a random node already in the overlay.
            return self._rng.choice(joined)
        # HyParView and Cyclon use a single contact node (Section 5).
        return joined[0]

    def run_cycles(self, cycles: int = 1) -> None:
        """Membership cycles in PeerSim's cycle-driven style: every live
        node runs one cycle in random order, and each node's exchange
        completes before the next node starts.  (Initiating all exchanges
        simultaneously would let nodes sample each other's views mid-
        exchange, which cycle-driven PeerSim — the paper's setup — never
        does.)"""
        for _ in range(cycles):
            order = self.alive_ids()
            self._rng.shuffle(order)
            for node_id in order:
                if self.network.is_alive(node_id):
                    self.membership(node_id).cycle()
                    self.drain()

    def stabilize(self) -> None:
        self.run_cycles(self.params.stabilization_cycles)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_fraction(self, fraction: float) -> list[NodeId]:
        """Crash a random ``fraction`` of the currently live nodes."""
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"failure fraction must be in [0, 1): {fraction}")
        alive = self.alive_ids()
        count = int(round(fraction * len(alive)))
        victims = self._rng.sample(alive, count) if count else []
        self.fail_nodes(victims)
        return victims

    def fail_nodes(self, victims: list[NodeId]) -> None:
        self.network.fail_many(victims)
        self.population = frozenset(self.alive_ids())

    def revive_node(
        self,
        node_id: NodeId,
        contact: Optional[NodeId] = None,
        *,
        drain: bool = True,
    ) -> None:
        """Restart a crashed node as a fresh process and re-join it.

        The old protocol state is discarded (a restarted process has none);
        a new stack is wired and joined through ``contact`` (default: a
        random live node), exactly like the initial joins.  ``drain=False``
        leaves the join traffic queued — fault-plan callbacks use it for
        *concurrent* mass rejoins (flash crowds), and because they run
        inside the engine loop a nested drain would be re-entrant.
        """
        if self.network.is_alive(node_id):
            raise SimulationError(f"node is not dead: {node_id}")
        alive = self.alive_ids()
        if contact is None:
            if not alive:
                raise SimulationError("no live contact to rejoin through")
            contact = self._rng.choice(alive)
        node = self.nodes[node_id]
        node.reset()
        self.network.recover(node_id)
        self._build_stack(node)
        self.membership(node_id).join(contact)
        if drain:
            self.drain()
        self.population = frozenset(self.alive_ids())

    # ------------------------------------------------------------------
    # Broadcasting and measurement
    # ------------------------------------------------------------------
    def send_broadcast(
        self, origin: Optional[NodeId] = None, payload=None
    ) -> BroadcastSummary:
        """Broadcast from ``origin`` (default: a random correct node), run
        the dissemination to completion and return its summary."""
        if origin is None:
            origin = self._rng.choice(self.alive_ids())
        elif not self.network.is_alive(origin):
            raise SimulationError(f"broadcast origin is not alive: {origin}")
        message_id = self.broadcast_layer(origin).broadcast(payload)
        self.drain()
        return self.tracker.finalize(message_id, self.population)

    def send_broadcasts(self, count: int) -> list[BroadcastSummary]:
        return [self.send_broadcast() for _ in range(count)]

    def send_paced_broadcasts(
        self,
        count: int,
        interval: Optional[float] = None,
        *,
        exclude: Optional[Callable[[], Container[NodeId]]] = None,
    ) -> list[BroadcastSummary]:
        """Broadcast ``count`` messages at a fixed application rate.

        Unlike :meth:`send_broadcasts` (which drains the network between
        messages), paced sending lets dissemination, failure detection and
        repair proceed *concurrently* with the message stream — the paper's
        Figure 3 setting, where early post-failure messages observe the
        overlay mid-repair.  ``interval`` defaults to five network delays.

        Message ``i`` carries :meth:`paced_payload` ``(i)`` from a random
        live origin that ``exclude()`` (read at each send) does not name.
        The final drain fires every queued event, a fault plan's later
        events included, and every message is finalised against the
        population alive at the end.
        """
        if interval is None:
            interval = 5 * LATENCY_SECONDS
        message_ids = []
        start = self.engine.now
        for index in range(count):
            self.engine.run_until(start + index * interval)
            candidates = self.alive_ids()
            if exclude is not None:
                barred = exclude()
                candidates = [node for node in candidates if node not in barred]
            origin = self._rng.choice(candidates)
            message_ids.append(self.broadcast_layer(origin).broadcast(self.paced_payload(index)))
        self.drain()
        population = frozenset(self.alive_ids())
        return [self.tracker.finalize(mid, population) for mid in message_ids]

    @staticmethod
    def paced_payload(index: int) -> tuple:
        """The payload of message ``index`` of :meth:`send_paced_broadcasts`."""
        return ("m", index)

    # ------------------------------------------------------------------
    # Graph analytics
    # ------------------------------------------------------------------
    def snapshot(self, *, alive_only: bool = True) -> OverlaySnapshot:
        views = {
            node_id: self.membership(node_id).out_neighbors() for node_id in self.node_ids
        }
        restrict = frozenset(self.alive_ids()) if alive_only else None
        return OverlaySnapshot.from_out_neighbors(views, restrict_to=restrict)

    # ------------------------------------------------------------------
    # Freezing (stabilise once, fork per failure level)
    # ------------------------------------------------------------------
    def freeze(self) -> bytes:
        """Snapshot the whole scenario as bytes (``pickle``).

        Requires a drained engine: freezing live pending events would
        duplicate in-flight messages in every rehydrated copy.  Lazily
        cancelled timers still parked in the queue are *not* pending work —
        they are compacted away rather than blocking the freeze (and would
        otherwise bloat the blob).

        Blobs are compact: every RNG stream pickles as its ``(seed,
        words_consumed)`` pair (see :class:`~repro.common.rng.
        StreamRandom`) rather than the full Mersenne-Twister state, which
        shrinks paper-scale snapshots by roughly an order of magnitude.
        Thawed streams fast-forward lazily on first draw, so rehydration
        cost is paid only for the nodes a measurement actually touches.
        """
        if self.engine.live_pending:
            raise SimulationError("cannot freeze a scenario with pending events")
        self.engine.compact()
        # Trace sinks are observers of one scenario lifetime, never part of
        # the frozen state (same discipline as delivery recorders): strip
        # around the dump, thaw attaches a fresh segment.
        trace = self.network.trace
        self.network.trace = None
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.network.trace = trace

    @staticmethod
    def thaw(frozen: bytes) -> "Scenario":
        """Rehydrate a :meth:`frozen <freeze>` scenario.

        The copy shares nothing with the original; finalized broadcast
        summaries are dropped so each fork measures only its own traffic.
        """
        scenario: Scenario = pickle.loads(frozen)
        scenario.tracker.drop_summaries()
        collector = current_collector()
        if collector is not None:
            scenario.network.trace = collector.new_segment()
        return scenario

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Scenario {self.protocol} n={self.params.n} alive={len(self.alive_ids())} "
            f"built={self._overlay_built}>"
        )
