"""The live cluster's seams for :class:`~repro.faults.plan.PlanDriver`.

The :class:`ChaosController` reads a plan exactly as
:class:`~repro.faults.sim.SimFaultDriver` does — the same dispatch, picks
and ``applied`` lines — but over wall-clock time against a loopback-TCP
:class:`~repro.runtime.cluster.LocalCluster`:

* partitions install outbound fault injectors on every node's transport
  ("fail" across the cut: sends report failure exactly like a TCP reset,
  probes refuse, so the failure detector and repair path run for real);
* degradation windows are the simulator's
  :class:`~repro.sim.network.LinkFaultRule` on the same link subset; a
  lost frame is dropped and jitter delays it, drawn from a stream of
  their own, and ``duplicate_rate > 0`` is refused at construction (the
  transport cannot duplicate a frame);
* crashes call :meth:`RuntimeNode.crash` (abrupt socket resets);
* restarts spawn fresh processes on their predecessors' ports (the
  stale-identity case the epoch handshake exists for) that re-join
  through the plan's contact;
* adversaries and Byzantine senders edit the victim nodes, through the
  applier the simulator driver uses (:mod:`repro.faults.adversary`).

``time_scale`` maps plan seconds to wall seconds (sim plans are written
against a 10 ms network delay; loopback TCP is faster, so live runs
usually stretch the timeline, e.g. ``time_scale=2.0``).  The controller
only names seams; what a live run measures is
:func:`~repro.service.bench.run_live_plan`'s (``repro chaos``).  Its picks
are seeded, but real sockets and clocks make no determinism promise.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import random
from typing import Optional

from ..common.errors import ConfigurationError
from ..common.ids import NodeId
from ..common.rng import SeedSequence
from ..runtime.cluster import LocalCluster
from ..sim.network import LinkFaultRule
from .adversary import LiveMisbehaviour
from .plan import FaultPlan, PlanDriver


class ChaosController(PlanDriver):
    """Drives one fault plan against one :class:`LocalCluster`.

    Its clock is plan time: steps and link rules are read against
    ``(loop time - run start) / time_scale``.
    """

    _misbehaviour = LiveMisbehaviour

    def __init__(
        self,
        cluster: LocalCluster,
        plan: FaultPlan,
        *,
        time_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(f"time_scale must be positive: {time_scale}")
        if any(getattr(event, "duplicate_rate", 0.0) for event in plan.events):
            raise ConfigurationError(
                f"plan {plan.label!r}: the live transport cannot duplicate a "
                f"frame; duplicate_rate must be 0"
            )
        seeds = SeedSequence(seed)
        super().__init__(plan, len(cluster.nodes), seeds, 0.0, lambda: random.Random(seed))
        self.cluster = cluster
        self.time_scale = time_scale
        self._run_start: Optional[float] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: (plan time, order, callback, event) heap; the step being applied.
        self._steps: list = []
        self._order = itertools.count()
        self._step = 0.0
        #: crash / restart coroutines a step queued, awaited after it.
        self._pending: list = []
        self._cut: Optional[dict[NodeId, int]] = None
        self._rules: list[LinkFaultRule] = []
        self._link_rng = seeds.stream("network/faults")

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Apply the whole plan; returns when the last step has fired.

        Injectors are installed up front on every node (and on every node
        the controller restarts), so the verdict function sees partitions
        and degradation windows as they come and go.
        """
        self._loop = asyncio.get_running_loop()
        for node in self.cluster.alive_nodes():
            self._inject(node)
        self._run_start = self._loop.time()
        self.install()
        while self._steps:
            self._step, _order, callback, event = heapq.heappop(self._steps)
            delay = self._run_start + self._step * self.time_scale - self._loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            callback(event)
            pending, self._pending = self._pending, []
            for coroutine in pending:
                await coroutine

    # ------------------------------------------------------------------
    # Verdicts (transport fault injectors)
    # ------------------------------------------------------------------
    def _inject(self, node) -> None:
        local = node.node_id
        node.transport.fault_injector = (
            lambda dst, message, local=local: self._verdict(local, dst)
        )

    def _verdict(self, src: NodeId, dst: NodeId) -> object:
        cut = self._cut
        if cut is not None and cut.get(src, -1) != cut.get(dst, -1):
            return "fail"
        if self._rules:
            now = (self._loop.time() - self._run_start) / self.time_scale
            self._rules = [rule for rule in self._rules if now < rule.until]
            delay = 0.0
            for rule in self._rules:
                if not rule.applies(src, dst):
                    continue
                if rule.loss_rate and self._link_rng.random() < rule.loss_rate:
                    return "drop"
                low, high = rule.extra_latency
                if high > 0.0:
                    delay += self._link_rng.uniform(low, high) * self.time_scale
            if delay > 0.0:
                return delay
        return None

    # ------------------------------------------------------------------
    # Seams
    # ------------------------------------------------------------------
    def _index(self, node_id: NodeId) -> int:
        return next(
            index for index, node in enumerate(self.cluster.nodes) if node.node_id == node_id
        )

    def _alive(self) -> list[NodeId]:
        return [node.node_id for node in self.cluster.alive_nodes()]

    def _dead(self) -> list[NodeId]:
        return [node.node_id for node in self.cluster.nodes if not node.started]

    def _at(self, t: float, callback, event) -> None:
        heapq.heappush(self._steps, (t, next(self._order), callback, event))

    def _now(self) -> float:
        return self._step

    def _partition(self, groups: list[list[NodeId]]) -> None:
        self._cut = {node_id: index for index, group in enumerate(groups) for node_id in group}

    def _heal(self) -> None:
        self._cut = None

    def _degrade(self, rule: LinkFaultRule) -> None:
        self._rules.append(rule)

    def _crash(self, victims: list[NodeId]) -> None:
        self._pending += [node.crash() for node in self._hosts(victims)]

    def _restart(self, node_id: NodeId, contact: NodeId) -> None:
        self._pending.append(self._restart_at(self._index(node_id), contact))

    async def _restart_at(self, index: int, contact: NodeId) -> None:
        node = await self.cluster.restart_node(index, contact, reuse_port=True)
        self._inject(node)

    def _join(self, node_id: NodeId, contact: NodeId) -> None:
        self.cluster.nodes[self._index(node_id)].join(contact)

    def _hosts(self, victims: list[NodeId]) -> list:
        return [self.cluster.nodes[self._index(node_id)] for node_id in victims]


__all__ = ["ChaosController"]
