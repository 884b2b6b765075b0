"""Measure a broadcast stream while a fault plan unfolds.

The measurement behind every ``faults_*``, ``reliable_*``, ``byz_*`` and
``topo_*`` registry scenario and Section 5.2's crash-then-stream cells.
A :class:`~repro.faults.plan.FaultPlan` is the whole fault scenario: its
events, its named ``phases`` and the ``end`` of its stream (its horizon
unless it names one).  Install the plan on a stabilised scenario, pace a
broadcast stream over ``[0, plan.end]`` through the scenario's one paced
loop (:meth:`~repro.experiments.scenario.Scenario.send_paced_broadcasts`)
— every message from an honest alive origin, carrying a distinct payload
— then drain and report

* the per-message reliability series (timestamped by send time),
* per-:class:`~repro.faults.plan.Phase` aggregates (average / min /
  atomic fraction per window of ``plan.phases``),
* the fault counters: the network's (rule drops, duplicates, failures) and
  the misbehaving hosts' (adversary drops, corrupted sends),
* the final overlay state (alive, largest component, symmetry),
* the ack/retransmit and quorum counters summed over the live population,
  for the stacks that keep them.

Two result shapes read that one loop.  :func:`measure_fault_plan` is the
tracker's id-level view.  :func:`measure_byzantine_plan` also judges
*values*: a mutated payload that still flows end-to-end looks like a
delivery to the tracker, so it records delivered payloads and adds

* ``validated_series`` — the fraction of the end population that
  delivered the *sent* value (the paper's "correct nodes deliver the
  correct message"); its phase rows aggregate this series;
* per-message agreement (did any two nodes deliver different values?),
  the count of wrong-value deliveries and the delivery latencies.

Reliability is measured against the population alive at the *end* of the
run — the paper's "correct nodes", extended to ongoing churn: a node that
crashed mid-plan and never restarted is not expected to deliver.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..common.errors import ConfigurationError
from ..metrics.reliability import atomic_fraction
from ..sim.latency import LATENCY_SECONDS
from .adversary import MISBEHAVIOUR_STATS
from .plan import FaultPlan, Phase
from .sim import SimFaultDriver

#: Fault counters both result shapes report, in artifact order.
_FAULT_STATS = (
    "dropped_fault", "duplicated_fault", "dropped_adversary", "send_failures", "dropped_dead",
)
#: Byzantine-sender counters the value-judged shape adds.
_BYZANTINE_STATS = ("mutated_byz", "equivocated_byz")


class _Stream(NamedTuple):
    """What the paced-stream loop leaves behind, every message finalised."""

    interval: float
    driver: SimFaultDriver
    population: frozenset
    send_times: list[float]
    summaries: list


def _paced_stream(scenario, plan: FaultPlan, messages: int) -> _Stream:
    """Install the plan's driver, then run the scenario's paced stream over
    ``[0, plan.end]`` (five network delays apart for an ``end`` of 0 or one
    message); its final drain also fires the plan's events past the last send."""
    if messages < 1:
        raise ConfigurationError(f"messages must be >= 1: {messages}")
    if plan.end > 0.0 and messages > 1:
        interval = plan.end / (messages - 1)
    else:
        interval = 5 * LATENCY_SECONDS

    driver = SimFaultDriver(scenario, plan)
    driver.install()
    # Dissemination is measured *through* corrupted relays, never from a
    # corrupted source; only a corrupted sender rewrites a payload.
    summaries = scenario.send_paced_broadcasts(
        messages, interval, exclude=driver.misbehaviour.corrupted_ids
    )
    return _Stream(
        interval, driver, frozenset(scenario.alive_ids()),
        [index * interval for index in range(messages)], summaries,
    )


def phase_rows(
    phases: Sequence[Phase], send_times: list[float], values: list[float]
) -> list[dict]:
    """Average / min / atomic fraction of ``values`` per phase window: the
    phase rows of the simulator and of the live run
    (:func:`~repro.service.bench.run_live_plan`) alike."""
    rows = []
    for phase in phases:
        window = [value for sent_at, value in zip(send_times, values) if phase.contains(sent_at)]
        rows.append(
            {
                "phase": phase.name,
                "start": phase.start,
                "end": phase.end,
                "messages": len(window),
                "average": sum(window) / len(window) if window else None,
                "min": min(window, default=None),
                "atomic": atomic_fraction(window) if window else None,
            }
        )
    return rows


def _summed_counters(scenario, population: frozenset, method: str) -> Optional[dict]:
    """A per-layer counter method's dict summed over ``population``;
    ``None`` for stacks without it, which keeps their artifacts free of
    the key."""
    totals: Optional[dict] = None
    for node_id in population:
        counters = getattr(scenario.broadcast_layer(node_id), method, None)
        if counters is None:
            return None
        if totals is None:
            totals = {}
        for key, value in counters().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _result(
    scenario, plan: FaultPlan, stream: _Stream, phase_values: list[float],
    stat_names: tuple[str, ...],
) -> dict:
    """The result fields both shapes share; ``phase_values`` is the
    series the phase rows aggregate."""
    series = [summary.reliability for summary in stream.summaries]
    network, hosts = scenario.network.stats, stream.driver.misbehaviour
    snapshot = scenario.snapshot()
    result = {
        "protocol": scenario.protocol,
        "n": scenario.params.n,
        "messages": len(series),
        "interval": stream.interval,
        "plan": plan.describe(),
        "series": series,
        "send_times": stream.send_times,
        "average": sum(series) / len(series),
        "phases": phase_rows(plan.phases, stream.send_times, phase_values),
        "fault_stats": {
            name: getattr(hosts if name in MISBEHAVIOUR_STATS else network, name)
            for name in stat_names
        },
        "final": {
            "alive": len(stream.population),
            "largest_component": snapshot.largest_component_fraction(),
            "symmetry": snapshot.symmetry_fraction(),
        },
        "applied": [description for _at, description in stream.driver.applied],
    }
    for method, key in (("reliability_stats", "reliable"), ("brb_stats", "brb")):
        totals = _summed_counters(scenario, stream.population, method)
        if totals is not None:
            result[key] = totals
    return result


def measure_fault_plan(scenario, plan: FaultPlan, *, messages: int) -> dict:
    """Run ``messages`` paced broadcasts under ``plan``, spread over
    ``[0, plan.end]``; returns a JSON-safe result dict with a row per
    ``plan.phases`` window.

    The scenario is consumed (mutated) — callers pass a snapshot-cache
    checkout.  The stream ends in a full drain, so every plan event and
    all repair traffic has run before anything is measured.
    """
    stream = _paced_stream(scenario, plan, messages)
    series = [summary.reliability for summary in stream.summaries]
    return _result(scenario, plan, stream, series, _FAULT_STATS)


class _DeliveryRecorder:
    """Collects delivered payloads per (message, node) for value judgment."""

    __slots__ = ("deliveries",)

    def __init__(self) -> None:
        self.deliveries: dict = {}

    def note(self, node_id, message_id, payload) -> None:
        self.deliveries.setdefault(message_id, {})[node_id] = payload


def measure_byzantine_plan(scenario, plan: FaultPlan, *, messages: int) -> dict:
    """:func:`measure_fault_plan` plus value judgment: validated
    (correct-value) reliability, agreement, wrong deliveries and delivery
    latency next to the tracker's raw series; phase rows aggregate the
    validated series."""
    recorder = _DeliveryRecorder()
    scenario.set_delivery_recorder(recorder)
    stream = _paced_stream(scenario, plan, messages)
    scenario.set_delivery_recorder(None)

    population = stream.population
    validated_series: list[float] = []
    latencies: list[float] = []
    wrong_deliveries = 0
    disagreements = 0
    for index, summary in enumerate(stream.summaries):
        payload = scenario.paced_payload(index)
        recorded = recorder.deliveries.get(summary.message_id, {})
        correct = sum(
            1
            for node, value in recorded.items()
            if node in population and value == payload
        )
        wrong_deliveries += sum(1 for value in recorded.values() if value != payload)
        if len({repr(value) for value in recorded.values()}) > 1:
            disagreements += 1
        validated_series.append(correct / len(population) if population else 0.0)
        latencies.append(summary.last_delivery_at - summary.sent_at)

    result = _result(
        scenario, plan, stream, validated_series, _FAULT_STATS + _BYZANTINE_STATS
    )
    result.update(
        validated_series=validated_series,
        latencies=latencies,
        validated_average=sum(validated_series) / len(validated_series),
        wrong_deliveries=wrong_deliveries,
        agreement=1.0 - disagreements / messages,
    )
    return result


def check_cell(result: dict) -> None:
    """The invariants a result of either shape keeps at any scale."""
    assert len(result["series"]) == result["messages"], "one series entry per message"
    assert all(0.0 <= value <= 1.0 for value in result["series"]), "reliability in [0, 1]"
    assert 0.0 <= result["final"]["largest_component"] <= 1.0, "component share in [0, 1]"
    phased = sum(row["messages"] for row in result["phases"])
    assert not result["phases"] or phased == result["messages"], "every message in one phase"
    if "validated_series" in result:
        assert len(result["validated_series"]) == result["messages"], "one per message"
        # A validated delivery is a tracker delivery with the right value.
        assert all(
            0.0 <= validated <= raw
            for raw, validated in zip(result["series"], result["validated_series"])
        ), "validated reliability within [0, raw]"
        assert 0.0 <= result["agreement"] <= 1.0, "agreement in [0, 1]"


__all__ = ["check_cell", "measure_byzantine_plan", "measure_fault_plan", "phase_rows"]
