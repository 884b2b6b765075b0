"""The simulator's seams for :class:`~repro.faults.plan.PlanDriver`.

``install()`` schedules one engine timer per event; each callback mutates
the :class:`~repro.sim.network.Network` /
:class:`~repro.experiments.scenario.Scenario` (partitions, link rules,
crashes, restarts) or the nodes themselves (adversaries and Byzantine
senders, through :mod:`repro.faults.adversary`) while the measurement loop
keeps the engine running.  Callbacks run *inside* the engine drain,
so they never drain themselves — restarts queue their join traffic for
the outer run.

Determinism: every random choice draws from the plan's stream,
``scenario.seeds.stream(plan.label)``; the harness and protocol streams
are untouched, and an **empty plan installs nothing and draws nothing** —
the run is byte-identical to one that never saw a driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.network import LinkFaultRule
from .adversary import SimMisbehaviour
from .plan import FaultPlan, PlanDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.scenario import Scenario


class SimFaultDriver(PlanDriver):
    """Applies one fault plan to one scenario's simulated deployment."""

    _misbehaviour = SimMisbehaviour

    def __init__(self, scenario: "Scenario", plan: FaultPlan) -> None:
        self.scenario = scenario
        seeds = scenario.seeds
        super().__init__(
            plan, len(scenario.node_ids), seeds, scenario.engine.now,
            lambda: seeds.stream(plan.label),
        )

    # Seams: engine callbacks, which must never drain.
    def _alive(self) -> list:
        return self.scenario.alive_ids()

    def _dead(self) -> list:
        network = self.scenario.network
        return [node for node in self.scenario.node_ids if not network.is_alive(node)]

    def _at(self, t: float, callback, event) -> None:
        self.scenario.engine.schedule_at(self.start + t, callback, event)

    def _now(self) -> float:
        return self.scenario.engine.now

    def _partition(self, groups: list[list]) -> None:
        self.scenario.network.set_partitions(groups)

    def _heal(self) -> None:
        self.scenario.network.clear_partitions()

    def _degrade(self, rule: LinkFaultRule) -> None:
        self.scenario.network.add_link_rule(rule)

    def _crash(self, victims: list) -> None:
        self.scenario.fail_nodes(victims)

    def _restart(self, node_id, contact) -> None:
        self.scenario.revive_node(node_id, contact, drain=False)

    def _join(self, node_id, contact) -> None:
        self.scenario.membership(node_id).join(contact)

    def _hosts(self, victims: list) -> list:
        return [self.scenario.nodes[node_id] for node_id in victims]


__all__ = ["SimFaultDriver"]
