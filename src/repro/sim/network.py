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
  the substrate :mod:`repro.faults` plans compile onto;
* **adversaries** are registered nodes that silently ignore selected
  message types (e.g. SHUFFLE / FORWARDJOIN) while behaving normally on
  the wire — the misbehaving-peer model of the fault-injection subsystem;
* **Byzantine senders** (:class:`ByzantineBehavior`) corrupt outgoing
  payloads of selected message types — consistently per ``(sender,
  message)`` for plain mutation (a pure hash, zero RNG draws), or freshly
  per destination for *equivocation*.  This is the adversary model the
  Byzantine broadcast layer (:mod:`repro.gossip.byzantine`) is measured
  against.

All hooks are strictly pay-for-what-you-use, and the price is one flag:
``Network._hooked`` is true while a trace sink, link rule, partition,
adversary or Byzantine sender is installed.  ``send`` and
``_deliver`` test it once each; unhooked, a message is a straight line —
count, ``latency.delay``, liveness, loss draw, ``post``, then liveness
again and the handler.  Every mutator that installs or removes
a hook (the ``trace`` setter, ``set_*``/``add_link_rule``, ``clear_*``,
``recover``, lazy link-rule expiry) recomputes the flag, and delivery reads
it afresh, so a frame in flight when a hook arrives still meets it.  Either
way the path makes the same RNG draws and event posts: inert hooks and empty
fault plans leave artifacts byte-identical.
"""

from __future__ import annotations

import dataclasses
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
        "dropped_adversary",
        "mutated_byz",
        "equivocated_byz",
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


class ByzantineBehavior:
    """One Byzantine sender's corruption policy (see the module docstring).

    ``mutate_types`` names the message types whose outgoing payloads (or
    vote digests) get corrupted on every send; ``equivocate`` switches from
    consistent per-``(sender, message)`` corruption to a fresh value per
    destination.
    """

    __slots__ = ("mutate_types", "equivocate")

    def __init__(self, mutate_types: Iterable[str], *, equivocate: bool = False) -> None:
        self.mutate_types = frozenset(mutate_types)
        if not self.mutate_types:
            raise SimulationError("Byzantine sender needs at least one message type")
        self.equivocate = equivocate


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
        # rules, receiver-side adversary filters, and the RNG stream the
        # rules draw from (created lazily so unfaulted runs never touch it).
        self._link_rules: list[LinkFaultRule] = []
        self._adversaries: dict[NodeId, frozenset[str]] = {}
        # Byzantine-sender hooks: per-node corruption policies.
        self._byzantine: dict[NodeId, ByzantineBehavior] = {}
        self._fault_rng: Optional[random.Random] = None
        # watched node -> {watcher -> callback}: the open-TCP-connection
        # registry behind Transport.watch (see module docstring).
        self._watchers: dict[NodeId, dict[NodeId, Callable[[NodeId], None]]] = {}
        self.stats = NetworkStats()
        self._trace: Optional["TraceSegment"] = None
        self._hooked = False

    def _rehook(self) -> None:
        """Recompute the flag ``send``/``_deliver`` test (module docstring)."""
        faults = self._link_rules or self._adversaries or self._byzantine
        self._hooked = bool(faults or self._trace is not None or self._partition is not None)

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

    @property
    def size(self) -> int:
        return len(self._nodes)

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
        Adversary and Byzantine registrations die with the old process: the
        restarted incarnation is honest until a plan corrupts it again (as on
        the live substrate, where a restart spawns a fresh RuntimeNode).
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node: {node_id}")
        self._alive[node_id] = self._nodes[node_id]._handlers
        self._adversaries.pop(node_id, None)
        self._byzantine.pop(node_id, None)
        self._rehook()

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

    def set_adversary(self, node_id: NodeId, drop_types: Iterable[str]) -> None:
        """Make ``node_id`` silently ignore incoming messages whose type
        name is in ``drop_types`` (empty set restores honest behaviour).

        The node stays alive and reachable — reliable senders still see
        their sends succeed, which is exactly what makes this failure mode
        nasty: the failure detector never fires.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node: {node_id}")
        drops = frozenset(drop_types)
        if drops:
            self._adversaries[node_id] = drops
        else:
            self._adversaries.pop(node_id, None)
        self._rehook()

    def set_byzantine(
        self, node_id: NodeId, behavior: Optional[ByzantineBehavior]
    ) -> None:
        """Install (or with ``None`` remove) a sender corruption policy.

        The first registration creates the dedicated ``network/faults``
        RNG stream (shared with the link rules); derived-by-label streams
        never perturb any other stream, so honest runs stay byte-identical.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node: {node_id}")
        if behavior is None:
            self._byzantine.pop(node_id, None)
        else:
            if self._fault_rng is None:
                self._fault_rng = self.seeds.stream("network/faults")
            self._byzantine[node_id] = behavior
        self._rehook()

    def byzantine_ids(self) -> set[NodeId]:
        """Nodes currently running a corruption policy."""
        return set(self._byzantine)

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

    def _corrupt(self, src: NodeId, dst: NodeId, message: Message) -> Message:
        """Apply ``src``'s Byzantine sender policy to one outgoing frame.

        Only called when at least one policy is installed.  Plain
        mutation derives its wrong value as a pure hash of ``(sender,
        message id)`` — consistent across destinations and free of RNG
        draws; equivocation draws a fresh value per destination from the
        fault stream.
        """
        behavior = self._byzantine.get(src)
        if behavior is None or type(message).__name__ not in behavior.mutate_types:
            return message
        if behavior.equivocate:
            token = self._fault_rng.getrandbits(32)
            self.stats.equivocated_byz += 1
        else:
            key = f"byz/{src.host}:{src.port}/{getattr(message, 'message_id', message)}"
            token = int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")
            self.stats.mutated_byz += 1
        if self._trace is not None:
            self._trace.record(self.engine.now, "mutate-byz", src, dst, message)
        if hasattr(message, "payload"):
            return dataclasses.replace(message, payload=("byz", token))
        if hasattr(message, "digest"):
            return dataclasses.replace(message, digest=f"byz:{token:08x}")
        return message  # type carries no corruptible field: inert

    def _adversary_drops(self, dst: NodeId, message: Message) -> bool:
        drops = self._adversaries.get(dst)
        if drops is None or type(message).__name__ not in drops:
            return False
        self.stats.dropped_adversary += 1
        if self._trace is not None:
            self._trace.record(self.engine.now, "drop-adversary", dst, dst, message)
        return True

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
        trace = self._trace
        if trace is not None:
            trace.record(self.engine.now, "send", src, dst, message)
        if self._byzantine:
            message = self._corrupt(src, dst, message)
        delay = self.latency.delay(src, dst, self._rng)
        duplicates = 0
        if self._link_rules:
            delay, dropped, duplicates = self._degrade(src, dst, delay, on_failure is not None)
            if dropped:
                stats.dropped_fault += 1
                if trace is not None:
                    trace.record(self.engine.now, "drop-fault", src, dst, message)
                return
        post = self._post
        if on_failure is not None:
            if self.reachable(src, dst):
                post(delay, self._deliver, src, dst, message, on_failure)
            else:
                # TCP reset / connect failure: the sender learns after one
                # network delay that the peer is gone.
                post(delay, self._notify_failure, src, dst, message, on_failure)
            return
        if not self.reachable(src, dst):
            stats.dropped_dead += 1
            if trace is not None:
                trace.record(self.engine.now, "drop-dead", src, dst, message)
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            stats.dropped_loss += 1
            if trace is not None:
                trace.record(self.engine.now, "drop-loss", src, dst, message)
            return
        post(delay, self._deliver, src, dst, message)
        for _ in range(duplicates):
            stats.duplicated_fault += 1
            extra = delay * (1.0 + self._fault_rng.random())
            post(extra, self._deliver, src, dst, message)

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
        and hooks are checked now, whatever was installed when it was sent."""
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
        if self._hooked:
            # An adversary accepts a reliable frame over TCP and ignores
            # it: the sender observes a *successful* send.
            if self._adversaries and self._adversary_drops(dst, message):
                return
            if self._trace is not None:
                self._trace.record(self.engine.now, "deliver", src, dst, message)
        self.stats.delivered += 1
        handler = handlers.get(type(message))
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
