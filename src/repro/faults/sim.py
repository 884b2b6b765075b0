"""Compile a :class:`~repro.faults.plan.FaultPlan` onto the simulator.

The driver schedules one engine timer per event at ``install()`` time;
each timer's callback mutates the :class:`~repro.sim.network.Network` /
:class:`~repro.experiments.scenario.Scenario` (partitions, link rules,
crashes, restarts, adversaries, Byzantine senders) while the measurement
loop keeps the engine running.  Callbacks run *inside* the engine drain,
so they never drain themselves — restarts queue their join traffic for
the outer run.

Determinism: every random choice (victim selection, group assignment,
contacts) draws from a dedicated stream derived as
``scenario.seeds.stream(plan.label)``; the harness and protocol streams
are untouched, and an **empty plan installs nothing and draws nothing** —
the run is byte-identical to one that never saw a driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..common.errors import ConfigurationError
from ..common.ids import NodeId
from ..sim.network import ByzantineBehavior, LinkFaultRule
from .plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultEvent,
    FaultPlan,
    MutationEvent,
    PartitionEvent,
    RestartEvent,
    pick_count,
    split_weighted,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.scenario import Scenario


class SimFaultDriver:
    """Applies one fault plan to one scenario's simulated deployment."""

    def __init__(self, scenario: "Scenario", plan: FaultPlan) -> None:
        self.scenario = scenario
        self.plan = plan
        self.start = scenario.engine.now
        #: (absolute sim time, description) per applied effect, in order.
        self.applied: list[tuple[float, str]] = []
        self._installed = False
        # The dedicated fault stream; never created for an empty plan so
        # the no-op path has zero observable footprint.
        self._rng = scenario.seeds.stream(plan.label) if plan else None

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every event relative to the current engine time."""
        if self._installed:
            raise ConfigurationError("fault plan already installed")
        self._installed = True
        engine = self.scenario.engine
        for event in self.plan.events:
            engine.schedule_at(self.start + event.at, self._apply, event)

    # ------------------------------------------------------------------
    # Event application (engine callbacks — must never drain)
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, PartitionEvent):
            self._apply_partition(event)
        elif isinstance(event, DegradeEvent):
            self._apply_degrade(event)
        elif isinstance(event, CrashEvent):
            self._apply_crash(event)
        elif isinstance(event, RestartEvent):
            self._apply_restart(event)
        elif isinstance(event, AdversaryEvent):
            self._apply_adversary(event)
        elif isinstance(event, MutationEvent):
            self._apply_mutation(event)
        else:  # pragma: no cover - vocabulary guard
            raise ConfigurationError(f"unknown fault event: {event!r}")

    def _note(self, description: str) -> None:
        self.applied.append((self.scenario.engine.now, description))

    def _pick(self, population: list[NodeId], fraction: Optional[float],
              count: Optional[int]) -> list[NodeId]:
        chosen = pick_count(fraction, count, len(population))
        return self._rng.sample(population, chosen) if chosen else []

    def _apply_partition(self, event: PartitionEvent) -> None:
        scenario = self.scenario
        members = scenario.alive_ids()
        self._rng.shuffle(members)
        groups = split_weighted(members, event.weights)
        scenario.network.set_partitions(groups)
        self._note(event.describe())
        if event.heal_at is not None:
            scenario.engine.schedule_at(
                self.start + event.heal_at, self._heal_partition, event
            )

    def _heal_partition(self, event: PartitionEvent) -> None:
        scenario = self.scenario
        scenario.network.clear_partitions()
        self._note(f"heal@{event.heal_at:g}")
        if event.rejoin:
            # Operator-assisted remerge: a handful of nodes re-join through
            # uniformly random contacts; with balanced groups roughly half
            # of the joins cross the former cut and stitch the components.
            alive = scenario.alive_ids()
            movers = self._pick(alive, None, event.rejoin)
            for node_id in movers:
                contact = self._rng.choice([n for n in alive if n != node_id])
                scenario.membership(node_id).join(contact)
            self._note(f"rejoin {len(movers)}@{event.heal_at:g}")

    def _apply_degrade(self, event: DegradeEvent) -> None:
        self.scenario.network.add_link_rule(
            LinkFaultRule(
                until=self.start + event.until,
                loss_rate=event.loss_rate,
                extra_latency=event.jitter,
                duplicate_rate=event.duplicate_rate,
                retransmit_delay=event.retransmit_delay,
                link_fraction=event.link_fraction,
                selector_seed=self.scenario.seeds.derive_seed(
                    f"{self.plan.label}/links/{event.at:g}"
                ),
            )
        )
        self._note(event.describe())

    def _apply_crash(self, event: CrashEvent) -> None:
        scenario = self.scenario
        victims = self._pick(scenario.alive_ids(), event.fraction, event.count)
        if len(victims) >= len(scenario.alive_ids()):
            victims = victims[:-1]  # never kill the last survivor
        if victims:
            scenario.fail_nodes(victims)
        self._note(f"{event.describe()} -> {len(victims)} crashed")

    def _apply_restart(self, event: RestartEvent) -> None:
        scenario = self.scenario
        alive = set(scenario.alive_ids())
        dead = [node for node in scenario.node_ids if node not in alive]
        victims = self._pick(dead, event.fraction, event.count)
        live = [node for node in scenario.node_ids if node in alive]
        for node_id in victims:
            # Concurrent rejoins: no draining between joins (flash crowd);
            # contacts come from the pre-restart live set so every joiner
            # dials an established member, like a bootstrap list would.
            contact = self._rng.choice(live)
            scenario.revive_node(node_id, contact, drain=False)
        self._note(f"{event.describe()} -> {len(victims)} restarted")

    def _apply_adversary(self, event: AdversaryEvent) -> None:
        scenario = self.scenario
        victims = self._pick(scenario.alive_ids(), event.fraction, event.count)
        for node_id in victims:
            scenario.network.set_adversary(node_id, event.drop_types)
        self._note(f"{event.describe()} -> {len(victims)} adversarial")
        if event.until is not None:
            scenario.engine.schedule_at(
                self.start + event.until, self._clear_adversary, tuple(victims)
            )

    def _clear_adversary(self, victims: tuple[NodeId, ...]) -> None:
        network = self.scenario.network
        for node_id in victims:
            network.set_adversary(node_id, ())
        self._note(f"adversary cleared ({len(victims)})")

    def _apply_mutation(self, event: MutationEvent) -> None:
        scenario = self.scenario
        victims = self._pick(scenario.alive_ids(), event.fraction, event.count)
        for node_id in victims:
            scenario.network.set_byzantine(
                node_id,
                ByzantineBehavior(event.target_types, equivocate=event.equivocate),
            )
        self._note(f"{event.describe()} -> {len(victims)} byzantine")
        if event.until is not None:
            scenario.engine.schedule_at(
                self.start + event.until, self._clear_byzantine, tuple(victims)
            )

    def _clear_byzantine(self, victims: tuple[NodeId, ...]) -> None:
        network = self.scenario.network
        for node_id in victims:
            network.set_byzantine(node_id, None)
        self._note(f"byzantine cleared ({len(victims)})")


__all__ = ["SimFaultDriver"]
