"""The simulated network: node registry, failures, partitions, delivery.

This module provides the behaviour the paper obtains from PeerSim plus its
transport assumptions:

* **reliable sends** (``on_failure`` callback supplied) model TCP: delivered
  exactly once if the destination is reachable, otherwise the *sender* is
  told — "TCP is also used as a failure detector" (Section 1, point iii);
* **datagram sends** model the unreliable transport that plain gossip
  protocols are usually evaluated over: silently dropped when the
  destination is down, and subject to an optional random loss rate;
* **failure injection** marks nodes as crashed; their timers stop firing,
  in-flight messages to them are lost, and reliable senders get failure
  notifications — exactly the observable behaviour of a crashed process;
* **partitions** make reliable sends across the cut fail and datagrams
  disappear, for split-brain experiments beyond the paper's evaluation;
* **link fault rules** (:class:`LinkFaultRule`) degrade matching links for
  a bounded window: extra latency (WAN jitter), loss (dropping datagrams,
  delaying reliable sends the way TCP retransmission does), duplication —
  the substrate :mod:`repro.faults` plans compile onto (misbehaving peers
  live on the node: :mod:`repro.faults.adversary`).

All hooks are strictly pay-for-what-you-use, and the price is one flag:
``Network._hooked`` is true while a trace sink, link rule or partition is
installed.  ``send`` tests it once and ``_deliver`` tests only the trace
sink; unhooked, a message is a straight line — count, ``latency.delay``,
liveness, loss draw, ``post``, then liveness again and the handler.  Every
mutator that installs or removes a hook (the ``trace`` setter,
``set_partitions``/``add_link_rule``, ``clear_partitions``, lazy link-rule
expiry) recomputes the flag, and delivery reads the trace sink afresh, so a
frame in flight when a sink is attached is still recorded.  Either way the
path makes the same RNG draws and event posts: inert hooks and empty fault
plans leave artifacts byte-identical.

**One event per fan-out.**  A flood node forwards each message to its whole
active view (Section 4.1) through ``send_all``: the same per-copy steps, in
destination order, but the copies that arrive at one instant share one
kernel event, posted at the first copy's place in its bucket; its callback
walks them in send order.  Nothing else posts while ``send_all`` runs, so
the other copies would have sat right behind the first anyway: handlers run
in the same order at the same times.  With constant latency that is one
event per fan-out instead of one per copy; only ``Engine.processed`` (and
the kernel events/s derived from it) counts less.  The hooked path groups
the same way, so hooks stay unobservable.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..common.errors import SimulationError, UnknownNodeError
from ..common.ids import NodeId
from ..common.interfaces import FailureCallback, ProbeCallback
from ..common.messages import Message
from ..common.rng import SeedSequence
from .engine import Engine
from .latency import ConstantLatency, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.trace import TraceSegment
    from .node import SimNode


class NetworkStats:
    """Counters for everything the network did.

    ``messages_by_type`` is the basis for the protocol-overhead comparisons
    (e.g. Plumtree payload savings vs. plain flooding).
    """

    __slots__ = (
        "sent",
        "delivered",
        "dropped_loss",
        "dropped_dead",
        "dropped_fault",
        "duplicated_fault",
        "send_failures",
        "probes_ok",
        "probes_failed",
        "messages_by_type",  # last: every slot before it is an integer counter
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__[:-1]:
            setattr(self, name, 0)
        self.messages_by_type: Counter = Counter()

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for asserting deltas in tests."""
        counts = {name: getattr(self, name) for name in self.__slots__}
        counts["messages_by_type"] = dict(self.messages_by_type)
        return counts


class LinkFaultRule:
    """One active link-degradation rule (see the module docstring).

    ``link_fraction`` selects a stable subset of directed links: membership
    is a pure hash of ``(selector_seed, src, dst)``, so a degraded link
    stays degraded for the rule's whole window (correlated loss/jitter, the
    way a congested WAN path behaves) and the selection is identical across
    worker processes.  ``extra_latency`` is a ``(low, high)`` uniform jitter
    range added to every matching transmission.  Loss drops datagrams; for
    reliable (TCP-modelled) sends it adds ``retransmit_delay`` instead —
    TCP masks loss as latency.  Duplication applies to datagrams only.
    """

    __slots__ = (
        "until",
        "loss_rate",
        "extra_latency",
        "duplicate_rate",
        "retransmit_delay",
        "link_fraction",
        "selector_seed",
        "_members",
    )

    def __init__(
        self,
        *,
        until: Optional[float] = None,
        loss_rate: float = 0.0,
        extra_latency: tuple[float, float] = (0.0, 0.0),
        duplicate_rate: float = 0.0,
        retransmit_delay: float = 0.05,
        link_fraction: float = 1.0,
        selector_seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1): {loss_rate}")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise SimulationError(f"duplicate_rate must be in [0, 1]: {duplicate_rate}")
        low, high = extra_latency
        if low < 0.0 or high < low:
            raise SimulationError(f"invalid extra latency range: [{low}, {high}]")
        if not 0.0 < link_fraction <= 1.0:
            raise SimulationError(f"link_fraction must be in (0, 1]: {link_fraction}")
        if retransmit_delay < 0.0:
            raise SimulationError(f"retransmit_delay must be >= 0: {retransmit_delay}")
        self.until = until
        self.loss_rate = loss_rate
        self.extra_latency = (float(low), float(high))
        self.duplicate_rate = duplicate_rate
        self.retransmit_delay = retransmit_delay
        self.link_fraction = link_fraction
        self.selector_seed = selector_seed
        self._members: dict[tuple[NodeId, NodeId], bool] = {}

    def applies(self, src: NodeId, dst: NodeId) -> bool:
        if self.link_fraction >= 1.0:
            return True
        key = (src, dst)
        member = self._members.get(key)
        if member is None:
            digest = hashlib.sha256(
                f"{self.selector_seed}/{src.host}:{src.port}->"
                f"{dst.host}:{dst.port}".encode()
            ).digest()
            member = int.from_bytes(digest[:8], "big") / 2**64 < self.link_fraction
            self._members[key] = member
        return member


class Network:
    """Registry of simulated nodes plus the message-passing fabric."""

    def __init__(
        self,
        engine: Engine,
        *,
        latency: Optional[LatencyModel] = None,
        seeds: Optional[SeedSequence] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.engine = engine
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss_rate = loss_rate
        seeds = seeds if seeds is not None else SeedSequence(0)
        self.seeds = seeds
        self._rng: random.Random = seeds.stream("network")
        # Deliveries ride the engine's handle-free post fast path, pre-bound.
        self._post = engine.post
        self._nodes: dict[NodeId, "SimNode"] = {}
        # Live nodes, each with its own type -> handler table (shared, not
        # copied): one lookup at delivery answers "alive?" and dispatches
        # without a SimNode.deliver frame.
        self._alive: dict[NodeId, dict[type, Callable[[Message], None]]] = {}
        self._partition: Optional[dict[NodeId, int]] = None
        # Fault-injection hooks (repro.faults): active link-degradation
        # rules and the RNG stream they draw from (created lazily so
        # unfaulted runs never touch it).
        self._link_rules: list[LinkFaultRule] = []
        self._fault_rng: Optional[random.Random] = None
        # watched node -> {watcher -> callback}: the open-TCP-connection
        # registry behind Transport.watch (see module docstring).
        self._watchers: dict[NodeId, dict[NodeId, Callable[[NodeId], None]]] = {}
        self.stats = NetworkStats()
        self._trace: Optional["TraceSegment"] = None
        self._hooked = False

    def _rehook(self) -> None:
        """Recompute the flag ``send``/``_deliver`` test (module docstring)."""
        faults = self._link_rules or self._partition is not None
        self._hooked = bool(faults or self._trace is not None)

    @property
    def trace(self) -> Optional["TraceSegment"]:
        """The sink every send, drop and delivery is recorded into."""
        return self._trace

    @trace.setter
    def trace(self, sink: Optional["TraceSegment"]) -> None:
        self._trace = sink
        self._rehook()

    # ------------------------------------------------------------------
    # Node registry and liveness
    # ------------------------------------------------------------------
    def register(self, node: "SimNode") -> None:
        """Called by :class:`~repro.sim.node.SimNode` on construction."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id: {node.node_id}")
        self._nodes[node.node_id] = node
        self._alive[node.node_id] = node._handlers

    def node(self, node_id: NodeId) -> "SimNode":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node_id}") from None

    @property
    def node_ids(self) -> list[NodeId]:
        return list(self._nodes)

    def is_alive(self, node_id: NodeId) -> bool:
        return node_id in self._alive

    def alive_ids(self) -> list[NodeId]:
        return [node_id for node_id in self._nodes if node_id in self._alive]

    def fail(self, node_id: NodeId) -> None:
        """Crash a node: timers stop, messages to it are lost or reported,
        and every holder of an open connection to it (see :meth:`watch`)
        learns about the loss after one network delay — the TCP reset a
        crashed process's neighbours observe."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node: {node_id}")
        self._alive.pop(node_id, None)
        watchers = self._watchers.pop(node_id, None)
        if watchers:
            for watcher, callback in watchers.items():
                delay = self.latency.delay(node_id, watcher, self._rng)
                self._post(delay, self._notify_link_down, watcher, node_id, callback)
        # The crashed node's own held connections die with it: purge its
        # outgoing watch registrations so a later revived incarnation never
        # receives callbacks wired to the dead protocol instance.
        for watched in list(self._watchers):
            entry = self._watchers[watched]
            entry.pop(node_id, None)
            if not entry:
                del self._watchers[watched]

    def fail_many(self, node_ids: Iterable[NodeId]) -> None:
        for node_id in node_ids:
            self.fail(node_id)

    def recover(self, node_id: NodeId) -> None:
        """Mark a crashed node alive again.

        The node's protocol state is *not* restored to anything useful — a
        recovered process must rejoin the overlay, exactly as a restarted
        real process would.  The experiment harness performs the rejoin.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node: {node_id}")
        self._alive[node_id] = self._nodes[node_id]._handlers

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partitions(self, groups: Iterable[Iterable[NodeId]]) -> None:
        """Split the network: nodes can only reach others in their group.

        Nodes not listed in any group form one final implicit group.
        """
        mapping: dict[NodeId, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise SimulationError(f"node in two partition groups: {node_id}")
                mapping[node_id] = index
        self._partition = mapping
        self._rehook()

    def clear_partitions(self) -> None:
        self._partition = None
        self._rehook()

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def add_link_rule(self, rule: LinkFaultRule) -> None:
        """Activate a link-degradation rule (expires itself via ``until``).

        The first rule creates the dedicated ``network/faults`` RNG stream;
        the stream is derived by label, so its existence never perturbs any
        other stream — an empty fault plan changes nothing.
        """
        if self._fault_rng is None:
            self._fault_rng = self.seeds.stream("network/faults")
        self._link_rules.append(rule)
        self._rehook()

    @property
    def link_rules(self) -> Sequence[LinkFaultRule]:
        return tuple(self._link_rules)

    def _degrade(
        self, src: NodeId, dst: NodeId, delay: float, reliable: bool
    ) -> tuple[float, bool, int]:
        """Apply active link rules to one transmission.

        Returns ``(delay, dropped, duplicates)``.  Expired rules are pruned
        lazily.  Only called when at least one rule is installed, so the
        unfaulted send path never pays for it (and never draws from the
        fault RNG stream).
        """
        now = self.engine.now
        rng = self._fault_rng
        dropped = False
        duplicates = 0
        expired = False
        for rule in self._link_rules:
            if rule.until is not None and now >= rule.until:
                expired = True
                continue
            if not rule.applies(src, dst):
                continue
            low, high = rule.extra_latency
            if high > 0.0:
                delay += rng.uniform(low, high)
            if rule.loss_rate > 0.0 and rng.random() < rule.loss_rate:
                if reliable:
                    delay += rule.retransmit_delay
                else:
                    dropped = True
            if not reliable and rule.duplicate_rate > 0.0:
                if rng.random() < rule.duplicate_rate:
                    duplicates += 1
        if expired:
            self._link_rules[:] = [
                rule
                for rule in self._link_rules
                if rule.until is None or now < rule.until
            ]
            self._rehook()
        return delay, dropped, duplicates

    def reachable(self, src: NodeId, dst: NodeId) -> bool:
        """True when a message from ``src`` can currently reach ``dst``."""
        if dst not in self._alive:
            return False
        if self._partition is None:
            return True
        implicit = -1
        return self._partition.get(src, implicit) == self._partition.get(dst, implicit)

    # ------------------------------------------------------------------
    # Message passing
    # ------------------------------------------------------------------
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        With ``on_failure`` the send is reliable (TCP semantics); without it
        the send is a datagram.  See the module docstring.

        Deliveries ride the engine's handle-free :meth:`~repro.sim.engine.
        Engine.post` fast path — nothing ever cancels an in-flight message,
        and experiments push millions of them.
        """
        stats = self.stats
        stats.sent += 1
        stats.messages_by_type[type(message).__name__] += 1
        if not self._hooked:
            # The straight line (see the module docstring).
            delay = self.latency.delay(src, dst, self._rng)
            if on_failure is not None:
                if dst in self._alive:
                    self._post(delay, self._deliver, src, dst, message, on_failure)
                else:
                    self._post(delay, self._notify_failure, src, dst, message, on_failure)
            elif dst not in self._alive:
                stats.dropped_dead += 1
            elif self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
                stats.dropped_loss += 1
            else:
                self._post(delay, self._deliver, src, dst, message)
            return
        self._send_hooked(src, (dst,), message, on_failure)

    def send_all(
        self,
        src: NodeId,
        dsts: Sequence[NodeId],
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        """Send ``message`` from ``src`` to every node in ``dsts``: to any
        observer, :meth:`send` once per destination, in order; to the
        kernel, one event per arrival instant (module docstring)."""
        if not dsts:
            return  # and leave no zero entry in messages_by_type
        stats = self.stats
        stats.sent += len(dsts)
        stats.messages_by_type[type(message).__name__] += len(dsts)
        if self._hooked:
            self._send_hooked(src, dsts, message, on_failure)
            return
        # The straight line once per copy; copies are grouped by arrival.
        now = self.engine.now
        delay_of = self.latency.delay
        rng = self._rng
        alive = self._alive
        loss_rate = self.loss_rate
        arrivals: dict[float, list] = {}
        for dst in dsts:
            delay = delay_of(src, dst, rng)
            if on_failure is not None:
                reachable = dst in alive
            elif dst not in alive:
                stats.dropped_dead += 1
                continue
            elif loss_rate > 0.0 and rng.random() < loss_rate:
                stats.dropped_loss += 1
                continue
            else:
                reachable = True
            group = arrivals.get(now + delay)
            if group is None:
                group = arrivals[now + delay] = []
                self._post(delay, self._deliver_all, src, message, on_failure, group)
            if not reachable:
                group.append(None)  # see _deliver_all
            group.append(dst)

    def _send_hooked(
        self,
        src: NodeId,
        dsts: Sequence[NodeId],
        message: Message,
        on_failure: Optional[FailureCallback],
    ) -> None:
        """The per-copy steps of :meth:`send` and :meth:`send_all` (which
        counted the copies) while a hook is installed, grouped as
        :meth:`send_all` groups them."""
        stats = self.stats
        now = self.engine.now
        trace = self._trace
        reliable = on_failure is not None
        arrivals: dict[float, list] = {}
        for dst in dsts:
            if trace is not None:
                trace.record(now, "send", src, dst, message)
            delay = self.latency.delay(src, dst, self._rng)
            duplicates = 0
            if self._link_rules:
                delay, dropped, duplicates = self._degrade(src, dst, delay, reliable)
                if dropped:
                    stats.dropped_fault += 1
                    if trace is not None:
                        trace.record(now, "drop-fault", src, dst, message)
                    continue
            reachable = self.reachable(src, dst)
            if not reliable:
                if not reachable:
                    stats.dropped_dead += 1
                    if trace is not None:
                        trace.record(now, "drop-dead", src, dst, message)
                    continue
                if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
                    stats.dropped_loss += 1
                    if trace is not None:
                        trace.record(now, "drop-loss", src, dst, message)
                    continue
            delays = [delay]
            for _ in range(duplicates):
                stats.duplicated_fault += 1
                delays.append(delay * (1.0 + self._fault_rng.random()))
            for delay in delays:
                group = arrivals.get(now + delay)
                if group is None:
                    group = arrivals[now + delay] = []
                    self._post(delay, self._deliver_all, src, message, on_failure, group)
                if not reachable:
                    group.append(None)
                group.append(dst)

    def watch(self, src: NodeId, dst: NodeId, on_down: Callable[[NodeId], None]) -> None:
        """``src`` holds an open connection to ``dst`` (Transport.watch).

        If ``dst`` is already down the loss is reported immediately (after
        one delay), mirroring a connect that races with the crash.
        """
        if dst not in self._alive:
            delay = self.latency.delay(dst, src, self._rng)
            self._post(delay, self._notify_link_down, src, dst, on_down)
            return
        self._watchers.setdefault(dst, {})[src] = on_down

    def unwatch(self, src: NodeId, dst: NodeId) -> None:
        watchers = self._watchers.get(dst)
        if watchers is not None:
            watchers.pop(src, None)
            if not watchers:
                del self._watchers[dst]

    def _notify_link_down(
        self, watcher: NodeId, peer: NodeId, callback: Callable[[NodeId], None]
    ) -> None:
        if watcher not in self._alive:
            return
        if self._trace is not None:
            self._trace.record(self.engine.now, "link-down", peer, watcher, None)
        callback(peer)

    def probe(self, src: NodeId, dst: NodeId, on_result: ProbeCallback) -> None:
        """Connection attempt: the result arrives after one round trip."""
        rtt = 2 * self.latency.delay(src, dst, self._rng)
        ok = self.reachable(src, dst)
        if self._trace is not None:
            self._trace.record(self.engine.now, "probe", src, dst, None)
        self._post(rtt, self._probe_result, src, dst, ok, on_result)

    # ------------------------------------------------------------------
    # Internal delivery machinery
    # ------------------------------------------------------------------
    def _deliver(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback] = None,
    ) -> None:
        """One frame arrives (reliable when ``on_failure`` is given): liveness
        and the trace sink are checked now, whatever held when it was sent."""
        handlers = self._alive.get(dst)
        if handlers is None:
            if on_failure is not None:
                # The peer died while the message was in flight; TCP
                # surfaces this to the sender as a reset.
                self._notify_failure(src, dst, message, on_failure)
            else:
                self.stats.dropped_dead += 1
                if self._trace is not None:
                    self._trace.record(self.engine.now, "drop-dead", src, dst, message)
            return
        if self._trace is not None:
            self._trace.record(self.engine.now, "deliver", src, dst, message)
        self.stats.delivered += 1
        handler = handlers.get(type(message))
        if handler is None:
            self._nodes[dst].deliver(message)  # counts it as unhandled
        else:
            handler(message)

    def _deliver_all(
        self,
        src: NodeId,
        message: Message,
        on_failure: Optional[FailureCallback],
        arrivals: list,
    ) -> None:
        """The copies of one fan-out that arrive now, in send order, each
        met as :meth:`_deliver` meets a lone frame (inlined: this runs once
        per flood copy).  ``None`` marks a copy whose destination was
        unreachable at send time: its sender learns now (TCP reset)."""
        alive = self._alive
        trace = self._trace
        stats = self.stats
        kind = type(message)
        copies = iter(arrivals)
        for dst in copies:
            if dst is None:
                self._notify_failure(src, next(copies), message, on_failure)
                continue
            handlers = alive.get(dst)
            if handlers is None:
                self._deliver(src, dst, message, on_failure)  # the peer died in flight
                continue
            if trace is not None:
                trace.record(self.engine.now, "deliver", src, dst, message)
            stats.delivered += 1
            handler = handlers.get(kind)
            if handler is None:
                self._nodes[dst].deliver(message)  # counts it as unhandled
            else:
                handler(message)

    def _notify_failure(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        on_failure: FailureCallback,
    ) -> None:
        if src not in self._alive:
            return  # a crashed sender observes nothing
        self.stats.send_failures += 1
        if self._trace is not None:
            self._trace.record(self.engine.now, "send-failure", src, dst, message)
        on_failure(dst, message)

    def _probe_result(self, src: NodeId, dst: NodeId, ok: bool, on_result: ProbeCallback) -> None:
        if src not in self._alive:
            return
        if ok and dst not in self._alive:
            ok = False  # the peer died during the handshake
        if ok:
            self.stats.probes_ok += 1
        else:
            self.stats.probes_failed += 1
        on_result(dst, ok)
