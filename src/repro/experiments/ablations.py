"""Ablations beyond the paper's figures.

Three studies that interrogate the design choices DESIGN.md calls out:

* **passive view size vs. resilience** — the paper's own future-work item
  ("experiment ... the relation between the passive view size and the
  resilience level of the protocol", Section 6);
* **shuffle TTL** — the paper leaves the shuffle walk length unspecified;
  the sweep shows its effect on passive-view freshness and repair quality;
* **flood resend-on-repair** — an extension where a failed flood copy is
  retransmitted towards the repaired active view, trading extra traffic
  for reliability during the repair transient.

Each study is a per-point ``measure_*_point`` helper operating on a
stabilised scenario the caller hands over (consumed, like
:func:`~repro.experiments.failures.measure_failure`).  The registry's
grids call the helpers directly, so one ablation point is one schedulable
cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.config import HyParViewConfig
from ..gossip.flood import FloodBroadcast
from ..metrics.reliability import average_reliability
from .params import ExperimentParams
from .scenario import Scenario


@dataclass(frozen=True, slots=True)
class PassiveSizePoint:
    """Resilience of HyParView at one passive-view capacity."""

    passive_capacity: int
    failure_fraction: float
    average_reliability: float
    tail_reliability: float
    largest_component_fraction: float


def passive_size_params(params: ExperimentParams, capacity: int) -> ExperimentParams:
    """``params`` with the passive view capacity replaced (one sweep point)."""
    return replace(params, hyparview=replace(params.hyparview, passive_view_capacity=capacity))


def measure_passive_size_point(
    scenario: Scenario,
    *,
    failure_fraction: float = 0.8,
    messages: int = 50,
) -> PassiveSizePoint:
    """Crash, broadcast and measure one passive-capacity point.

    ``scenario`` must be stabilised with :func:`passive_size_params` and is
    consumed (mutated).
    """
    capacity = scenario.params.hyparview.passive_view_capacity
    scenario.fail_fraction(failure_fraction)
    summaries = scenario.send_paced_broadcasts(messages)
    series = [summary.reliability for summary in summaries]
    tail = series[-10:]
    snapshot = scenario.snapshot()
    return PassiveSizePoint(
        passive_capacity=capacity,
        failure_fraction=failure_fraction,
        average_reliability=average_reliability(summaries),
        tail_reliability=sum(tail) / len(tail) if tail else 0.0,
        largest_component_fraction=snapshot.largest_component_fraction(),
    )


@dataclass(frozen=True, slots=True)
class ShuffleTtlPoint:
    """Overlay quality at one shuffle walk TTL.

    ``passive_balance`` is the coefficient of variation of the passive
    in-degree (how many passive views each node appears in): short walks
    exchange views with nearby nodes only, concentrating representation;
    longer walks mix the system and flatten it (lower is more uniform).
    """

    shuffle_ttl: int
    average_clustering: float
    passive_balance: float
    recovery_average: float


def shuffle_ttl_params(params: ExperimentParams, ttl: int) -> ExperimentParams:
    """``params`` with the shuffle walk TTL replaced (one sweep point)."""
    return replace(params, hyparview=replace(params.hyparview, shuffle_ttl=ttl))


def measure_shuffle_ttl_point(
    scenario: Scenario,
    *,
    failure_fraction: float = 0.6,
    messages: int = 30,
) -> ShuffleTtlPoint:
    """Measure overlay quality and recovery for one shuffle-TTL point.

    ``scenario`` must be stabilised with :func:`shuffle_ttl_params` and is
    consumed (mutated).
    """
    ttl = scenario.params.hyparview.shuffle_ttl
    snapshot = scenario.snapshot()
    passive_in_degree: dict = {}
    for node_id in scenario.node_ids:
        for peer in scenario.membership(node_id).passive_members():
            passive_in_degree[peer] = passive_in_degree.get(peer, 0) + 1
    counts = [float(passive_in_degree.get(n, 0)) for n in scenario.node_ids]
    mean_count = sum(counts) / len(counts) if counts else 0.0
    if mean_count > 0:
        variance = sum((c - mean_count) ** 2 for c in counts) / len(counts)
        balance = variance**0.5 / mean_count
    else:
        balance = 0.0
    scenario.fail_fraction(failure_fraction)
    summaries = scenario.send_paced_broadcasts(messages)
    return ShuffleTtlPoint(
        shuffle_ttl=ttl,
        average_clustering=snapshot.average_clustering(),
        passive_balance=balance,
        recovery_average=average_reliability(summaries),
    )


@dataclass(frozen=True, slots=True)
class ResendPoint:
    """Reliability/traffic trade of the flood resend extension."""

    resend_on_repair: bool
    failure_fraction: float
    average_reliability: float
    first10_average: float
    data_transmissions: int


#: The two arms of the resend study: the paper's flood, then the extension.
RESEND_VARIANTS = (False, True)


def measure_resend_point(
    scenario: Scenario,
    resend: bool,
    *,
    failure_fraction: float = 0.8,
    messages: int = 50,
) -> ResendPoint:
    """Measure one arm of the resend study on a stabilised HyParView
    scenario (consumed); both arms fork the same base."""
    for node_id in scenario.node_ids:
        layer = scenario.broadcast_layer(node_id)
        assert isinstance(layer, FloodBroadcast)
        layer.resend_on_repair = resend
    before = scenario.network.stats.messages_by_type.get("GossipData", 0)
    scenario.fail_fraction(failure_fraction)
    summaries = scenario.send_paced_broadcasts(messages)
    after = scenario.network.stats.messages_by_type.get("GossipData", 0)
    series = [summary.reliability for summary in summaries]
    head = series[:10]
    return ResendPoint(
        resend_on_repair=resend,
        failure_fraction=failure_fraction,
        average_reliability=average_reliability(summaries),
        first10_average=sum(head) / len(head) if head else 0.0,
        data_transmissions=after - before,
    )


#: The payload message class each broadcast layer of the Plumtree study
#: counts (tree dissemination vs flood over the same overlay).
PLUMTREE_PAYLOADS = {"hyparview": "GossipData", "plumtree": "PlumtreeGossip"}


def measure_plumtree_point(
    scenario: Scenario,
    *,
    warmup: int = 5,
    messages: int = 20,
) -> dict[str, object]:
    """Payload traffic and reliability of one broadcast layer (consumed).

    ``warmup`` broadcasts converge Plumtree's tree (a no-op for the flood)
    before the measured batch, mirroring a long-running deployment.
    """
    payload_type = PLUMTREE_PAYLOADS[scenario.protocol]
    scenario.send_broadcasts(warmup)  # converge the tree / no-op for flood
    before = scenario.network.stats.messages_by_type.get(payload_type, 0)
    summaries = scenario.send_broadcasts(messages)
    after = scenario.network.stats.messages_by_type.get(payload_type, 0)
    return {
        "reliability": average_reliability(summaries),
        "payloads_per_broadcast": (after - before) / messages,
    }


def default_passive_sizes(config: HyParViewConfig) -> tuple[int, ...]:
    """A sweep bracketing the configured passive capacity."""
    anchor = config.passive_view_capacity
    return tuple(sorted({max(2, anchor // 4), max(3, anchor // 2), anchor, anchor * 2}))
