"""Replay a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The :class:`ChaosController` is the runtime twin of
:class:`~repro.faults.sim.SimFaultDriver`: the same declarative plan, but
applied over wall-clock time to a loopback-TCP
:class:`~repro.runtime.cluster.LocalCluster` —

* partitions install outbound fault injectors on every node's transport
  ("fail" across the cut: sends report failure exactly like a TCP reset,
  probes refuse, so the failure detector and repair path run for real);
* degradation windows drop/delay frames probabilistically (lossy, jittery
  links);
* crashes call :meth:`RuntimeNode.crash` (abrupt socket resets);
* restarts spawn fresh processes that re-join through live contacts;
* adversaries set :attr:`RuntimeNode.drop_message_types`.

``time_scale`` maps plan seconds to wall seconds (sim plans are written
against a 10 ms network delay; loopback TCP is faster, so live runs
usually stretch the timeline, e.g. ``time_scale=2.0``).  The controller
is for integration tests and the ``repro chaos`` demo — it makes no
determinism promises (real sockets, real clocks), only vocabulary parity.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.ids import MessageId, NodeId
from ..metrics.latency import LatencyHistogram
from ..runtime.cluster import LocalCluster
from .plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultEvent,
    FaultPlan,
    MutationEvent,
    PartitionEvent,
    Phase,
    RestartEvent,
    pick_count,
    split_weighted,
    validate_phases,
)


def reject_simulator_only(plan: FaultPlan) -> None:
    """Reject plan events the live substrate cannot honour.

    Payload corruption is simulator-only: the runtime codec owns its
    frames end-to-end, so a mutation/equivocation plan against live
    sockets would silently test nothing.  Raises the same structured
    :class:`ConfigurationError` the CLI turns into exit 2, so callers can
    refuse *before* a single socket is opened.
    """
    unsupported = [
        event.describe() for event in plan.events if isinstance(event, MutationEvent)
    ]
    if unsupported:
        raise ConfigurationError(
            f"plan {plan.label!r} uses payload mutation/equivocation, "
            f"which only the simulator substrate supports; "
            f"offending events: {unsupported}"
        )


class _DegradeWindow:
    """One active live degradation (wall-clock bounded)."""

    __slots__ = ("until", "event")

    def __init__(self, until: float, event: DegradeEvent) -> None:
        self.until = until
        self.event = event


class ChaosController:
    """Drives one fault plan against one :class:`LocalCluster`."""

    def __init__(
        self,
        cluster: LocalCluster,
        plan: FaultPlan,
        *,
        time_scale: float = 1.0,
        seed: int = 0,
        phases: Sequence[Phase] = (),
        restart_reuse_port: bool = False,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(f"time_scale must be positive: {time_scale}")
        # Fail here, at construction, when the plan names more nodes than
        # the cluster has — not at apply time inside victim sampling.
        plan.validate_for(len(cluster.nodes))
        reject_simulator_only(plan)
        self.cluster = cluster
        self.plan = plan
        self.time_scale = time_scale
        self.phases = validate_phases(phases)
        self.restart_reuse_port = restart_reuse_port
        self._rng = random.Random(seed)
        #: message id -> (publish wall time, publish plan time); fed by
        #: :meth:`mark_publish`, read by :meth:`latency_report`.
        self._publishes: dict[MessageId, tuple[float, float]] = {}
        self._run_start: Optional[float] = None
        #: (plan time, description) per applied effect, in order.
        self.applied: list[tuple[float, str]] = []
        self._partition: Optional[dict[NodeId, int]] = None
        self._degradations: list[_DegradeWindow] = []
        #: id(event) -> the RuntimeNodes that event corrupted, so going
        #: honest only reverts that event's victims (concurrent adversary
        #: windows stay independent, matching the sim driver).
        self._adversary_victims: dict[int, list] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Apply the whole plan; returns when the last effect has fired.

        Injectors are installed up front on every node (and on every node
        the controller restarts), so the verdict function sees partitions
        and degradation windows as they come and go.
        """
        self._loop = asyncio.get_running_loop()
        for node in self.cluster.alive_nodes():
            self._install(node)
        start = self._loop.time()
        self._run_start = start
        for at, apply in self._timeline():
            delay = start + at * self.time_scale - self._loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await apply()

    def _timeline(self):
        """The plan expanded to (plan-time, coroutine factory) steps,
        including the implicit heal / go-honest follow-ups."""
        steps: list[tuple[float, int, object]] = []
        for order, event in enumerate(self.plan.events):
            steps.append((event.at, order, (self._apply, event)))
            if isinstance(event, PartitionEvent) and event.heal_at is not None:
                steps.append((event.heal_at, order, (self._heal, event)))
            if isinstance(event, AdversaryEvent) and event.until is not None:
                steps.append((event.until, order, (self._honest, event)))
        steps.sort(key=lambda step: (step[0], step[1]))
        for at, _order, (method, event) in steps:
            yield at, (lambda method=method, event=event: method(event))

    # ------------------------------------------------------------------
    # Verdicts (transport fault injectors)
    # ------------------------------------------------------------------
    def _install(self, node) -> None:
        local = node.node_id
        node.transport.fault_injector = (
            lambda dst, message, local=local: self._verdict(local, dst)
        )

    def _verdict(self, src: NodeId, dst: NodeId) -> object:
        partition = self._partition
        if partition is not None and partition.get(src, -1) != partition.get(dst, -1):
            return "fail"
        if self._degradations:
            now = self._loop.time() if self._loop is not None else 0.0
            self._degradations = [w for w in self._degradations if now < w.until]
            delay = 0.0
            for window in self._degradations:
                event = window.event
                if event.loss_rate and self._rng.random() < event.loss_rate:
                    return "drop"
                if event.jitter[1] > 0.0:
                    delay += self._rng.uniform(*event.jitter) * self.time_scale
            if delay > 0.0:
                return delay
        return None

    def _note(self, at: float, description: str) -> None:
        self.applied.append((at, description))

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    async def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, PartitionEvent):
            alive = self.cluster.alive_nodes()
            members = [node.node_id for node in alive]
            self._rng.shuffle(members)
            mapping: dict[NodeId, int] = {}
            for index, group in enumerate(split_weighted(members, event.weights)):
                for node_id in group:
                    mapping[node_id] = index
            self._partition = mapping
            self._note(event.at, event.describe())
        elif isinstance(event, DegradeEvent):
            until = (
                self._loop.time()
                + (event.until - event.at) * self.time_scale
            )
            self._degradations.append(_DegradeWindow(until, event))
            self._note(event.at, event.describe())
        elif isinstance(event, CrashEvent):
            alive = self.cluster.alive_nodes()
            count = pick_count(event.fraction, event.count, len(alive))
            count = min(count, max(0, len(alive) - 2))  # keep a quorum alive
            victims = self._rng.sample(alive, count) if count else []
            for node in victims:
                await node.crash()
            self._note(event.at, f"{event.describe()} -> {len(victims)} crashed")
        elif isinstance(event, RestartEvent):
            dead = [
                index
                for index, node in enumerate(self.cluster.nodes)
                if not node.started
            ]
            count = pick_count(event.fraction, event.count, len(dead))
            victims = self._rng.sample(dead, count) if count else []
            for index in victims:
                node = await self.cluster.restart_node(
                    index, reuse_port=self.restart_reuse_port
                )
                self._install(node)
            self._note(event.at, f"{event.describe()} -> {len(victims)} restarted")
        elif isinstance(event, AdversaryEvent):
            alive = self.cluster.alive_nodes()
            count = pick_count(event.fraction, event.count, len(alive))
            victims = self._rng.sample(alive, count) if count else []
            for node in victims:
                node.drop_message_types |= set(event.drop_types)
            self._adversary_victims[id(event)] = victims
            self._note(event.at, f"{event.describe()} -> {len(victims)} adversarial")
        else:  # pragma: no cover - vocabulary guard
            raise ConfigurationError(f"unknown fault event: {event!r}")

    async def _heal(self, event: PartitionEvent) -> None:
        self._partition = None
        self._note(event.heal_at, f"heal@{event.heal_at:g}")
        if event.rejoin:
            alive = self.cluster.alive_nodes()
            movers = self._rng.sample(alive, min(event.rejoin, len(alive)))
            for node in movers:
                contacts = [peer for peer in alive if peer is not node]
                if contacts:
                    node.join(self._rng.choice(contacts).node_id)
            self._note(event.heal_at, f"rejoin {len(movers)}@{event.heal_at:g}")

    async def _honest(self, event: AdversaryEvent) -> None:
        # Only this event's victims revert; nodes corrupted by another,
        # still-open adversary window keep that window's drop set.
        victims = self._adversary_victims.pop(id(event), [])
        drops = set(event.drop_types)
        for node in victims:
            if node.started:
                node.drop_message_types -= drops
        self._note(event.until, f"adversary cleared@{event.until:g}")

    # ------------------------------------------------------------------
    # Latency measurement (the live counterpart of measure_fault_plan)
    # ------------------------------------------------------------------
    def mark_publish(self, message_id: MessageId) -> None:
        """Stamp a just-published message for latency accounting.

        Call immediately after ``broadcast``/``publish``.  The stamp pins
        the message to a plan-time instant, so :meth:`latency_report` can
        bucket its deliveries into the plan's phases.
        """
        if self._loop is not None:
            now = self._loop.time()
        else:
            now = asyncio.get_running_loop().time()
        start = self._run_start if self._run_start is not None else now
        self._publishes[message_id] = (now, (now - start) / self.time_scale)

    def latency_report(self) -> dict:
        """Per-phase publish→deliver latency over the cluster's delivery log.

        Each marked message belongs to the phase containing its *publish*
        plan-time (deliveries of one message always count together, even
        when they land after the phase boundary).  Messages published
        outside every phase pool under ``"unphased"``.  Latency is wall
        time from the publish stamp to each node's delivery record.
        """
        phase_names = [phase.name for phase in self.phases]
        histograms = {name: LatencyHistogram() for name in phase_names}
        histograms["unphased"] = LatencyHistogram()
        publish_counts = {name: 0 for name in histograms}
        overall = LatencyHistogram()

        def phase_of(plan_time: float) -> str:
            for phase in self.phases:
                if phase.contains(plan_time):
                    return phase.name
            return "unphased"

        for wall, plan_time in self._publishes.values():
            publish_counts[phase_of(plan_time)] += 1
        for record in self.cluster.delivery_log.records:
            stamp = self._publishes.get(record.message_id)
            if stamp is None:
                continue
            wall, plan_time = stamp
            latency = record.at - wall
            histograms[phase_of(plan_time)].record(latency)
            overall.record(latency)

        rows = []
        for phase in self.phases:
            row = {
                "phase": phase.name,
                "start": phase.start,
                "end": phase.end,
                "publishes": publish_counts[phase.name],
            }
            row.update(histograms[phase.name].to_dict())
            rows.append(row)
        if publish_counts["unphased"] or not self.phases:
            row = {
                "phase": "unphased",
                "start": None,
                "end": None,
                "publishes": publish_counts["unphased"],
            }
            row.update(histograms["unphased"].to_dict())
            rows.append(row)
        report = {
            "schema": "repro-live-latency/1",
            "time_scale": self.time_scale,
            "plan": self.plan.describe(),
            "publishes": len(self._publishes),
            "phases": rows,
        }
        report.update(overall.to_dict())
        return report


__all__ = ["ChaosController"]
