"""Continuous churn — an extension beyond the paper's one-shot failures.

The paper evaluates catastrophic *simultaneous* failures; real deployments
also face continuous churn: processes crash, leave gracefully, and
restart.  This driver interleaves such events with broadcasts and checks
that the overlay's reliability and structure hold up — the property that
made HyParView the membership layer of choice for long-lived systems
(Partisan, libp2p).

Event mix per churn step (weighted by the module constants below): crash a
live node, leave gracefully, or revive a dead node as a fresh process that
re-joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigurationError
from ..metrics.reliability import average_reliability
from .failures import stabilized_scenario
from .params import ExperimentParams

#: Relative weights of the three churn events.
CRASH_WEIGHT = 0.4
LEAVE_WEIGHT = 0.2
REVIVE_WEIGHT = 0.4
#: Broadcasts sent after each churn step to probe reliability.
PROBES_PER_STEP = 1
#: The live population never drops below this fraction of ``n``.
MIN_ALIVE_FRACTION = 0.3


@dataclass(frozen=True, slots=True)
class ChurnResult:
    """Outcome of one churn run."""

    protocol: str
    n: int
    steps: int
    crashes: int
    leaves: int
    revives: int
    #: reliability of the probe messages sent after each churn step
    series: tuple[float, ...]
    average: float
    final_alive: int
    final_largest_component: float
    final_symmetry: float
    stale_active_entries: int


def run_churn_experiment(
    protocol: str,
    params: ExperimentParams,
    *,
    steps: int = 60,
) -> ChurnResult:
    """Subject a stabilised overlay to ``steps`` churn events.

    Each step applies one event (crash / graceful leave / revive, weighted)
    and then probes reliability with ``PROBES_PER_STEP`` broadcasts.  The
    live population never drops below ``MIN_ALIVE_FRACTION`` — below that,
    crash events are replaced by revives (if anyone is dead).
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1: {steps}")
    total = CRASH_WEIGHT + LEAVE_WEIGHT + REVIVE_WEIGHT
    scenario = stabilized_scenario(protocol, params)
    rng = scenario.seeds.stream("churn")
    crashes = leaves = revives = 0
    summaries = []
    floor = max(2, int(MIN_ALIVE_FRACTION * params.n))
    for _step in range(steps):
        alive = scenario.alive_ids()
        dead = [node_id for node_id in scenario.node_ids if node_id not in set(alive)]
        roll = rng.random() * total
        if roll < CRASH_WEIGHT:
            action = "crash"
        elif roll < CRASH_WEIGHT + LEAVE_WEIGHT:
            action = "leave"
        else:
            action = "revive"
        if action in ("crash", "leave") and len(alive) <= floor:
            action = "revive" if dead else "none"
        if action == "revive" and not dead:
            action = "crash" if len(alive) > floor else "none"
        if action == "crash":
            scenario.fail_nodes([rng.choice(alive)])
            crashes += 1
        elif action == "leave":
            scenario.leave_gracefully(rng.choice(alive))
            leaves += 1
        elif action == "revive":
            scenario.revive_node(rng.choice(dead))
            revives += 1
        summaries.extend(scenario.send_paced_broadcasts(PROBES_PER_STEP))
    snapshot = scenario.snapshot()
    alive_set = set(scenario.alive_ids())
    stale = sum(
        1
        for node_id in alive_set
        for peer in scenario.membership(node_id).out_neighbors()
        if peer not in alive_set
    )
    return ChurnResult(
        protocol=protocol,
        n=params.n,
        steps=steps,
        crashes=crashes,
        leaves=leaves,
        revives=revives,
        series=tuple(s.reliability for s in summaries),
        average=average_reliability(summaries),
        final_alive=len(alive_set),
        final_largest_component=snapshot.largest_component_fraction(),
        final_symmetry=snapshot.symmetry_fraction(),
        stale_active_entries=stale,
    )
