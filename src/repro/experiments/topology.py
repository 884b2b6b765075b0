"""The ``topo_*`` scenario family: topology-aware overlay optimisation.

Both scenarios run on the planetary RTT world model
(:class:`~repro.sim.latency.ZonedLatency`, ``latency_model="zoned"``) and
compare ``hyparview-xbot`` — HyParView plus X-BOT optimisation swaps
(:mod:`repro.protocols.xbot`) — against plain ``hyparview``:

* ``topo_convergence`` — the link-cost distribution of active-view edges
  *before, during and after* optimisation (sampled along stabilisation),
  then the existing WAN-jitter fault plan on the optimised overlay:
  topology bias must not cost reliability under degraded links;
* ``topo_latency`` — time-to-full-delivery and per-hop latency of a paced
  broadcast stream over the optimised vs the unoptimised overlay, plus
  the churn-trace fault plan as the reliability envelope: the unbiased
  slots must keep healing intact while the biased slots buy speed.

Link costs are priced by the world model's jitter-free ``base_delay`` (the
same pure function X-BOT prices links by), so every reported number is
deterministic and the artifacts pin byte-for-byte like every other
scenario.
"""

from __future__ import annotations

from dataclasses import fields, replace

from ..faults.measure import check_cell, measure_fault_plan
from ..faults.scenarios import WAN_JITTER, churn_trace
from ..protocols.xbot import XBotStats
from .params import ExperimentParams
from .registry import (
    Axis,
    CellKey,
    RunContext,
    ScenarioSpec,
    register,
)
from .reporting import ANY, Claim, Column, Ref, json_safe
from .scenario import Scenario

#: The comparison the family makes: the optimiser and its baseline.
TOPO_PROTOCOLS = ("hyparview-xbot", "hyparview")

#: ``topo_latency``'s reliability envelope: the churn trace
#: ``faults_churn_trace`` replays at smoke tier.
_CHURN = churn_trace(4, 3, 0.15)


def _topo_params(ctx: RunContext) -> ExperimentParams:
    """Tier params moved onto the zoned RTT world model."""
    return replace(ctx.params(), latency_model="zoned")


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (no interpolation —
    keeps artifact floats exactly equal to observed values)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _edge_cost_stats(scenario: Scenario) -> dict:
    """Distribution of ``base_delay`` over the distinct undirected
    active-view edges between live nodes."""
    model = scenario.latency
    seen: set[tuple] = set()
    costs: list[float] = []
    alive = set(scenario.alive_ids())
    for node_id in scenario.alive_ids():
        for peer in scenario.membership(node_id).out_neighbors():
            if peer not in alive:
                continue
            key = (
                (node_id, peer)
                if (node_id.host, node_id.port) <= (peer.host, peer.port)
                else (peer, node_id)
            )
            if key in seen:
                continue
            seen.add(key)
            costs.append(model.base_delay(key[0], key[1]))
    costs.sort()
    if not costs:
        return {"edges": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0.0}
    return {
        "edges": len(costs),
        "mean": sum(costs) / len(costs),
        "median": _quantile(costs, 0.5),
        "p90": _quantile(costs, 0.9),
        "max": costs[-1],
    }


def _optimizer_stats(scenario: Scenario) -> dict:
    """Summed X-BOT counters across live nodes (zeros for plain stacks)."""
    totals = {field.name: 0 for field in fields(XBotStats)}
    for node_id in scenario.alive_ids():
        stats = getattr(scenario.membership(node_id), "xbot_stats", None)
        if stats is None:
            continue
        for name in totals:
            totals[name] += getattr(stats, name)
    return totals


# ----------------------------------------------------------------------
# topo_convergence
# ----------------------------------------------------------------------
def _run_convergence_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = key[0]
    params = _topo_params(ctx)
    # Built by hand (not ctx.stabilized): the point is the link-cost
    # trajectory *across* stabilisation, which a cached stabilised base
    # has already fast-forwarded past.
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    trajectory = [_edge_cost_stats(scenario)]
    remaining = params.stabilization_cycles
    chunk = max(1, params.stabilization_cycles // 3)  # three samples
    while remaining > 0:
        step = min(chunk, remaining)
        scenario.run_cycles(step)
        remaining -= step
        trajectory.append(_edge_cost_stats(scenario))
    result = measure_fault_plan(scenario, WAN_JITTER, messages=ctx.config.messages)
    result["link_cost"] = {
        "trajectory": trajectory,
        "final": _edge_cost_stats(scenario),
    }
    result["optimizer"] = _optimizer_stats(scenario)
    return json_safe(result)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# topo_latency
# ----------------------------------------------------------------------
def _broadcast_latency_stats(summaries) -> dict:
    pairs = [
        (summary.last_delivery_at - summary.sent_at, summary.max_hops)
        for summary in summaries
        if summary.delivered
    ]
    t_full = sorted(t for t, _ in pairs)
    per_hop = sorted(t / hops for t, hops in pairs if hops > 0)
    hops = sorted(hops for _, hops in pairs)
    reliability = [summary.reliability for summary in summaries]
    return {
        "messages": len(summaries),
        "atomic": sum(1 for r in reliability if r >= 1.0),
        "reliability_mean": (
            sum(reliability) / len(reliability) if reliability else 0.0
        ),
        "t_full": {
            "mean": sum(t_full) / len(t_full) if t_full else 0.0,
            "median": _quantile(t_full, 0.5),
            "p90": _quantile(t_full, 0.9),
            "max": t_full[-1] if t_full else 0.0,
        },
        "per_hop_mean": sum(per_hop) / len(per_hop) if per_hop else 0.0,
        "hops_median": _quantile([float(h) for h in hops], 0.5),
        "hops_max": hops[-1] if hops else 0,
    }


def _run_latency_cell(ctx: RunContext, key: CellKey) -> dict:
    protocol = key[0]
    params = _topo_params(ctx)
    # Clean-phase measurement: the broadcast stream over the stabilised
    # (optimised, for X-BOT) overlay with no faults.
    scenario = ctx.stabilized(protocol, params)
    link_cost = _edge_cost_stats(scenario)
    optimizer = _optimizer_stats(scenario)
    summaries = scenario.send_paced_broadcasts(ctx.config.messages)
    latency = _broadcast_latency_stats(summaries)
    # Reliability envelope: the same churn-trace plan the faults family
    # replays, on a fresh checkout of the same stabilised base.  The
    # unbiased slots must keep X-BOT's healing inside HyParView's envelope.
    churn = measure_fault_plan(
        ctx.stabilized(protocol, params), _CHURN, messages=ctx.config.messages
    )
    return json_safe(  # type: ignore[return-value]
        {
            "protocol": protocol,
            "n": params.n,
            "link_cost": link_cost,
            "optimizer": optimizer,
            "latency": latency,
            "churn": churn,
        }
    )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
register(
    ScenarioSpec(
        id="topo_convergence",
        group="topology",
        title="Topology — link-cost convergence under optimisation",
        description="Link-cost distribution of active-view edges before/during/"
        "after X-BOT optimisation on the zoned RTT world model, then the WAN-"
        "jitter fault window on the optimised overlay.",
        messages={"smoke": 12, "paper": 100},
        axes=(Axis(None, TOPO_PROTOCOLS),),
        run_cell=_run_convergence_cell,
        columns=(
            Column("edge-cost mean first", "link_cost.trajectory.0.mean"),
            Column("edge-cost mean last", "link_cost.trajectory.-1.mean"),
            Column("edge-cost p90", "link_cost.final.p90"),
            Column("swaps", "optimizer.swaps_completed", ""),
            Column("wan avg", "average"),
            Column("degraded avg", "phases.degraded.average"),
        ),
        claims=(
            # Optimisation is real and strictly lowers the mean edge cost,
            # below the cost-blind baseline's on the same world model...
            Claim("X-BOT", "hyparview-xbot", "optimizer.swaps_completed", ">", 0, ANY),
            Claim("X-BOT", "hyparview-xbot", "link_cost.trajectory.-1.mean", "<",
                  Ref(None, "link_cost.trajectory.0.mean"), ANY),
            Claim("X-BOT", "hyparview-xbot", "link_cost.final.mean", "<",
                  Ref("hyparview", "link_cost.final.mean"), ANY),
            # ...and topology bias costs no reliability under the WAN window.
            Claim("X-BOT", "hyparview-xbot", "average", ">=",
                  Ref("hyparview", "average", slack=-0.05), ANY),
        ),
        invariant=check_cell,
    )
)

register(
    ScenarioSpec(
        id="topo_latency",
        group="topology",
        title="Topology — broadcast latency, X-BOT vs HyParView",
        description="Time-to-full-delivery and per-hop latency of a paced "
        "broadcast stream, X-BOT vs plain HyParView on the zoned RTT world "
        "model, with the churn-trace plan as the reliability envelope.",
        messages={"smoke": 12, "paper": 100},
        axes=(Axis(None, TOPO_PROTOCOLS),),
        run_cell=_run_latency_cell,
        columns=(
            Column("t-full median (s)", "latency.t_full.median"),
            Column("t-full p90 (s)", "latency.t_full.p90"),
            Column("per-hop (s)", "latency.per_hop_mean"),
            Column("max hops", "latency.hops_max", ""),
            Column("edge-cost mean", "link_cost.mean"),
            Column("clean reliability", "latency.reliability_mean"),
            Column("churn avg", "churn.average"),
            Column("churn late avg", "churn.phases.late.average"),
        ),
        claims=(
            Claim("sanity", "*", "latency.messages", ">=", 1, ANY),
            Claim("sanity", "*", "latency.t_full.median", ">=", 0.0, ANY),
            # The headline, at every tier: X-BOT strictly lowers median
            # time-to-full-delivery and active-view link cost on the zoned
            # world model...
            *(
                Claim("X-BOT", "hyparview-xbot", metric, "<", Ref("hyparview", metric), ANY)
                for metric in ("latency.t_full.median", "link_cost.median", "link_cost.mean")
            ),
            # ...while the unbiased slots keep churn reliability within the
            # plain-HyParView envelope.
            Claim("X-BOT", "hyparview-xbot", "churn.average", ">=",
                  Ref("hyparview", "churn.average", slack=-0.05), ANY),
            Claim("X-BOT", "hyparview-xbot", "optimizer.swaps_completed", ">", 0, ANY),
        ),
        invariant=lambda cell: check_cell(cell["churn"]),
    )
)


__all__ = ["TOPO_PROTOCOLS"]
