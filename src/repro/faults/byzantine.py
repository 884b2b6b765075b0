"""The ``byz_*`` scenario family: Byzantine senders vs quorum broadcast.

:func:`measure_byzantine_plan` extends the fault-plan measurement loop
with *value* judgment: the tracker only sees message ids, so a mutated
payload that still flows end-to-end looks like a delivery.  Byzantine
runs attach a payload recorder (:meth:`Scenario.set_delivery_recorder`)
and score every message twice —

* ``series``            — raw id-level reliability (the tracker's view);
* ``validated_series``  — the fraction of the end population that
  delivered the *sent* value (the paper's "correct nodes deliver the
  correct message");

plus per-message agreement (did any two nodes deliver different values?)
and the count of wrong-value deliveries.  Origins are always drawn from
honest nodes — the experiments measure dissemination *through* an
adversarial relay population, not an adversarial source.

Three registered scenarios compare the BRB stacks
(:mod:`repro.gossip.byzantine`) against the ack/retransmit baseline:

* ``byz_adversary_fraction`` — validated delivery and latency as the
  mutating fraction sweeps 0–40%; Bracha quorums hold to the ``n > 3f``
  cliff while the baseline degrades smoothly;
* ``byz_churn``              — sampled-mode (SBRB) quorums under
  mutation plus crash/restart bursts;
* ``byz_equivocation``       — equivocating senders; BRB's echo-once
  discipline keeps agreement exact while the baseline delivers
  conflicting values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.errors import ConfigurationError
from ..experiments.params import ExperimentParams
from ..experiments.registry import (
    Axis,
    CellKey,
    RunContext,
    ScenarioSpec,
    TierConfig,
    _tiers,
    register,
)
from ..experiments.reporting import json_safe, sparkline
from ..gossip.byzantine import BRBConfig
from .plan import (
    DEFAULT_MUTATION_TYPES,
    CrashEvent,
    FaultPlan,
    MutationEvent,
    Phase,
    RestartEvent,
    validate_phases,
)
from .sim import SimFaultDriver

#: The Byzantine scenarios' default comparison: quorum broadcast vs the
#: ack/retransmit stack that trusts whatever bytes arrive.
BYZ_PROTOCOLS = ("hyparview-brb", "hyparview-reliable")


class _DeliveryRecorder:
    """Collects delivered payloads per (message, node) for value judgment."""

    __slots__ = ("deliveries",)

    def __init__(self) -> None:
        self.deliveries: dict = {}

    def note(self, node_id, message_id, payload) -> None:
        self.deliveries.setdefault(message_id, {})[node_id] = payload


def measure_byzantine_plan(
    scenario,
    plan: FaultPlan,
    *,
    messages: int,
    interval: Optional[float] = None,
    settle: Optional[float] = None,
    phases: Sequence[Phase] = (),
) -> dict:
    """Run ``messages`` paced broadcasts under ``plan``, judging values.

    Mirrors :func:`~repro.faults.measure.measure_fault_plan` (the
    scenario is consumed; interval/settle default from the plan horizon)
    but every broadcast carries a distinct payload, origins skip
    currently-Byzantine nodes, and the result reports validated
    (correct-value) reliability, agreement and delivery latency next to
    the tracker's raw series.
    """
    if messages < 1:
        raise ConfigurationError(f"messages must be >= 1: {messages}")
    latency = scenario.params.latency_seconds
    if interval is None:
        if plan.horizon > 0.0 and messages > 1:
            interval = plan.horizon / (messages - 1)
        else:
            interval = 5 * latency
    if settle is None:
        settle = 10 * latency
    ordered_phases = validate_phases(phases)

    recorder = _DeliveryRecorder()
    scenario.set_delivery_recorder(recorder)
    driver = SimFaultDriver(scenario, plan)
    driver.install()
    engine = scenario.engine
    rng = scenario._rng  # the harness stream, exactly like paced broadcasts
    start = engine.now
    sends: list[tuple[float, object, object]] = []
    for index in range(messages):
        engine.run_until(start + index * interval)
        corrupted = scenario.network.byzantine_ids()
        honest = [node for node in scenario.alive_ids() if node not in corrupted]
        origin = rng.choice(honest)
        payload = ("m", index)
        message_id = scenario.broadcast_layer(origin).broadcast(payload)
        sends.append((index * interval, message_id, payload))
    tail = max((messages - 1) * interval, plan.horizon) + settle
    engine.run_until(start + tail)
    scenario.drain()

    population = frozenset(scenario.alive_ids())
    series: list[float] = []
    validated_series: list[float] = []
    latencies: list[float] = []
    send_times: list[float] = []
    wrong_deliveries = 0
    disagreements = 0
    validated_records: list[tuple[float, float]] = []
    for sent_at, message_id, payload in sends:
        summary = scenario.tracker.finalize(message_id, population)
        recorded = recorder.deliveries.get(message_id, {})
        correct = sum(
            1
            for node, value in recorded.items()
            if node in population and value == payload
        )
        wrong_deliveries += sum(1 for value in recorded.values() if value != payload)
        if len({repr(value) for value in recorded.values()}) > 1:
            disagreements += 1
        validated = correct / len(population) if population else 0.0
        series.append(summary.reliability)
        validated_series.append(validated)
        latencies.append(summary.last_delivery_at - summary.sent_at)
        send_times.append(sent_at)
        validated_records.append((sent_at, validated))
    scenario.set_delivery_recorder(None)

    phase_rows = []
    for phase in ordered_phases:
        window = [value for sent_at, value in validated_records
                  if phase.contains(sent_at)]
        phase_rows.append(
            {
                "phase": phase.name,
                "start": phase.start,
                "end": phase.end,
                "messages": len(window),
                "average": sum(window) / len(window) if window else None,
                "min": min(window, default=None),
                "atomic": (
                    sum(1 for value in window if value == 1.0) / len(window)
                    if window
                    else None
                ),
            }
        )

    stats = scenario.network.stats
    snapshot = scenario.snapshot()
    reliable_totals: Optional[dict] = None
    brb_totals: Optional[dict] = None
    for node_id in population:
        layer = scenario.broadcast_layer(node_id)
        layer_stats = getattr(layer, "reliability_stats", None)
        if layer_stats is None:
            reliable_totals = None
            break
        if reliable_totals is None:
            reliable_totals = {}
        for key, value in layer_stats().items():
            reliable_totals[key] = reliable_totals.get(key, 0) + value
        quorum_stats = getattr(layer, "brb_stats", None)
        if quorum_stats is not None:
            if brb_totals is None:
                brb_totals = {}
            for key, value in quorum_stats().items():
                brb_totals[key] = brb_totals.get(key, 0) + value
    result = {
        "protocol": scenario.protocol,
        "n": scenario.params.n,
        "messages": messages,
        "interval": interval,
        "plan": plan.describe(),
        "series": series,
        "validated_series": validated_series,
        "latencies": latencies,
        "send_times": send_times,
        "average": sum(series) / len(series),
        "validated_average": sum(validated_series) / len(validated_series),
        "wrong_deliveries": wrong_deliveries,
        "agreement": 1.0 - disagreements / messages,
        "phases": phase_rows,
        "fault_stats": {
            "dropped_fault": stats.dropped_fault,
            "duplicated_fault": stats.duplicated_fault,
            "dropped_adversary": stats.dropped_adversary,
            "dropped_collusion": stats.dropped_collusion,
            "mutated_byz": stats.mutated_byz,
            "equivocated_byz": stats.equivocated_byz,
            "send_failures": stats.send_failures,
            "dropped_dead": stats.dropped_dead,
        },
        "final": {
            "alive": len(population),
            "largest_component": snapshot.largest_component_fraction(),
            "symmetry": snapshot.symmetry_fraction(),
        },
        "applied": [description for _at, description in driver.applied],
    }
    if reliable_totals is not None:
        result["reliable"] = reliable_totals
    if brb_totals is not None:
        result["brb"] = brb_totals
    return result


# ----------------------------------------------------------------------
# Registration plumbing
# ----------------------------------------------------------------------
def _byz_params(ctx: RunContext, protocol: str) -> ExperimentParams:
    """Tier params, with the BRB quorum config resolved per tier options.

    Non-BRB protocols keep the default params object so their snapshot
    bases are shared with every other scenario at the same tier.
    """
    params = ctx.params()
    if not protocol.endswith("-brb"):
        return params
    return replace(
        params,
        brb=BRBConfig(
            mode=str(ctx.option("brb_mode", "bracha")),
            fault_fraction=float(ctx.option("brb_fault_fraction", 0.25)),  # type: ignore[arg-type]
        ),
    )


def _run_byz_cell(ctx: RunContext, protocol: str, plan: FaultPlan,
                  phases: tuple[Phase, ...], end: float) -> dict:
    scenario = ctx.stabilized(protocol, _byz_params(ctx, protocol))
    interval = end / (ctx.config.messages - 1) if ctx.config.messages > 1 else None
    result = measure_byzantine_plan(
        scenario, plan,
        messages=ctx.config.messages, interval=interval, phases=phases,
    )
    return json_safe(result)  # type: ignore[return-value]


def _sanity(cell: dict) -> None:
    assert len(cell["series"]) == cell["messages"]
    assert len(cell["validated_series"]) == cell["messages"]
    for raw, validated in zip(cell["series"], cell["validated_series"]):
        # A validated delivery is a tracker delivery with the right value.
        assert 0.0 <= validated <= raw <= 1.0
    assert 0.0 <= cell["agreement"] <= 1.0
    assert 0.0 <= cell["final"]["largest_component"] <= 1.0


def _phase(cell: dict, name: str) -> dict:
    return next(row for row in cell["phases"] if row["phase"] == name)


def _cell_line(label: str, cell: dict) -> str:
    return (
        f"{label:24s} validated={cell['validated_average']:.3f} "
        f"raw={cell['average']:.3f} wrong={cell['wrong_deliveries']} "
        f"agreement={cell['agreement']:.2f}  "
        f"{sparkline(cell['validated_series'])}"
    )


# ----------------------------------------------------------------------
# Adversary-fraction sweep
# ----------------------------------------------------------------------
BYZ_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4)


def _fraction_plan(ctx: RunContext, fraction: float) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    corrupt_at = float(ctx.option("corrupt_at", 0.1))    # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))                  # type: ignore[arg-type]
    if fraction <= 0.0:
        plan = FaultPlan.empty()
    else:
        plan = FaultPlan(
            events=(
                MutationEvent(at=corrupt_at, fraction=fraction, rate=1.0),
            ),
            label=f"byz-fraction-{fraction:g}",
        )
    phases = (
        Phase("honest", 0.0, corrupt_at),
        Phase("corrupted", corrupt_at, end + 1e-6),
    )
    return plan, phases, end


def _fraction_run(ctx: RunContext, key: CellKey) -> dict:
    protocol, fraction = key
    plan, phases, end = _fraction_plan(ctx, fraction)
    cell = _run_byz_cell(ctx, protocol, plan, phases, end)
    cell["fraction"] = fraction
    return cell


def _render_fraction(result: dict, n: int) -> str:
    blocks = [f"Byzantine broadcast — adversary-fraction sweep (n={n})"]
    for protocol, cells in result.items():
        blocks.append("")
        blocks.append(f"{protocol}:")
        for fraction in sorted(cells, key=float):
            cell = cells[fraction]
            mean_latency = sum(cell["latencies"]) / len(cell["latencies"])
            blocks.append(
                "  " + _cell_line(f"{float(fraction):.0%} adversaries", cell)
                + f" latency={mean_latency * 1e3:.1f}ms"
            )
    return "\n".join(blocks)


def _check_fraction(result: dict, n: int) -> None:
    for cells in result.values():
        for cell in cells.values():
            _sanity(cell)
    brb = result.get("hyparview-brb")
    baseline = result.get("hyparview-reliable")
    if brb is None or n > 256:
        # The small-n smoke tier runs Bracha quorums, where the cliff is
        # exact; larger tiers may run sampled (SBRB) quorums, whose
        # guarantees are probabilistic — sanity only.
        return
    # Below the n > 3f cliff (f = 25% of the roster) every correct node
    # delivers the correct value; past it, echo quorums become
    # unreachable and the corrupted window stalls entirely.
    for fraction in ("0.1", "0.2", "0.3"):
        assert brb[fraction]["validated_average"] >= 0.99, fraction
        assert brb[fraction]["wrong_deliveries"] == 0
    collapsed = _phase(brb["0.4"], "corrupted")
    assert collapsed["average"] is not None and collapsed["average"] < 0.1
    if baseline is not None:
        # The ack/retransmit stack trusts arriving bytes: mutated relays
        # poison a visible share of first-copy deliveries.
        degraded = _phase(baseline["0.3"], "corrupted")
        assert degraded["average"] is not None and degraded["average"] < 0.95
        assert baseline["0.3"]["wrong_deliveries"] > 0
        assert (
            brb["0.3"]["validated_average"]
            > baseline["0.3"]["validated_average"]
        )


register(
    ScenarioSpec(
        id="byz_adversary_fraction",
        group="byzantine",
        title="Byzantine broadcast — adversary-fraction sweep",
        description="Validated (correct-value) delivery and latency as the "
        "mutating-relay fraction sweeps 0–40%: Bracha quorums hold to the "
        "n > 3f cliff while the ack/retransmit baseline degrades.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
            paper=TierConfig(n=10_000, messages=100, paper_params=True,
                             extra={"brb_mode": "sampled"}),
        ),
        axes=(
            Axis("protocols", BYZ_PROTOCOLS),
            Axis("fractions", BYZ_FRACTIONS, float, "{:g}".format),
        ),
        run_cell=_fraction_run,
        render=_render_fraction,
        check=_check_fraction,
    )
)


# ----------------------------------------------------------------------
# Sampled quorums under churn
# ----------------------------------------------------------------------
def _churn_plan(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    corrupt_at = float(ctx.option("corrupt_at", 0.1))    # type: ignore[arg-type]
    honest_at = float(ctx.option("honest_at", 0.6))      # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))                  # type: ignore[arg-type]
    burst = int(ctx.option("burst_size", 3))             # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            MutationEvent(
                at=corrupt_at,
                fraction=float(ctx.option("byz_fraction", 0.15)),  # type: ignore[arg-type]
                until=honest_at,
            ),
            # Churn forces stack rebuilds (fresh rosters, fresh samples)
            # exactly while quorum votes are being corrupted.
            CrashEvent(at=0.25, count=burst),
            RestartEvent(at=0.4, fraction=1.0),
        ),
        label="byz-churn",
    )
    phases = (
        Phase("honest", 0.0, corrupt_at),
        Phase("byzantine", corrupt_at, honest_at),
        Phase("recovered", honest_at, end + 1e-6),
    )
    return plan, phases, end


BYZ_CHURN_PROTOCOLS = ("hyparview-brb", "cyclon-brb")


def _churn_run(ctx: RunContext, key: CellKey) -> dict:
    plan, phases, end = _churn_plan(ctx)
    return _run_byz_cell(ctx, key[0], plan, phases, end)


def _render_churn(result: dict, n: int) -> str:
    blocks = [f"Byzantine broadcast — sampled quorums under churn (n={n})"]
    for protocol, cell in result.items():
        brb = cell["brb"]
        blocks.append(_cell_line(protocol, cell))
        blocks.append(
            f"  brb: echoes={brb['echoes_sent']} readies={brb['readies_sent']} "
            f"quorum-deliveries={brb['quorum_deliveries']}  "
            f"mutated={cell['fault_stats']['mutated_byz']}  "
            f"final alive={cell['final']['alive']}"
        )
    return "\n".join(blocks)


def _check_churn(result: dict, n: int) -> None:
    for cell in result.values():
        _sanity(cell)
        # The quorum machinery actually ran, the mutation actually bit,
        # and every crashed node restarted.
        assert cell["brb"]["quorum_deliveries"] > 0
        # Fault times are absolute seconds: the paced stream only samples
        # the [0.1s, 0.6s) corruption window when it is dense enough
        # (tiny sanity runs with 2-3 sends straddle it entirely).
        if cell["messages"] >= 4:
            assert cell["fault_stats"]["mutated_byz"] > 0
        assert cell["final"]["alive"] == cell["n"]
        # Quorum delivery never hands over a corrupted value, even while
        # rosters churn mid-stream.
        assert cell["wrong_deliveries"] == 0
        assert cell["agreement"] == 1.0


register(
    ScenarioSpec(
        id="byz_churn",
        group="byzantine",
        title="Byzantine broadcast — sampled quorums under churn",
        description="O(log n)-sample (SBRB) quorums carry the stream "
        "through a mutation window overlapping crash/restart bursts; "
        "validated delivery with rosters rebuilt mid-stream.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=12, stabilization_cycles=15,
                             extra={"brb_mode": "sampled"}),
            paper=TierConfig(n=10_000, messages=100, paper_params=True,
                             extra={"brb_mode": "sampled", "burst_size": 150}),
        ),
        axes=(Axis("protocols", BYZ_CHURN_PROTOCOLS),),
        run_cell=_churn_run,
        render=_render_churn,
        check=_check_churn,
    )
)


# ----------------------------------------------------------------------
# Equivocation
# ----------------------------------------------------------------------
def _equivocation_plan(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    corrupt_at = float(ctx.option("corrupt_at", 0.1))    # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))                  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            MutationEvent(
                at=corrupt_at,
                fraction=float(ctx.option("byz_fraction", 0.25)),  # type: ignore[arg-type]
                target_types=DEFAULT_MUTATION_TYPES,
                equivocate=True,
            ),
        ),
        label="byz-equivocation",
    )
    phases = (
        Phase("honest", 0.0, corrupt_at),
        Phase("equivocating", corrupt_at, end + 1e-6),
    )
    return plan, phases, end


def _equivocation_run(ctx: RunContext, key: CellKey) -> dict:
    plan, phases, end = _equivocation_plan(ctx)
    return _run_byz_cell(ctx, key[0], plan, phases, end)


def _render_equivocation(result: dict, n: int) -> str:
    blocks = [f"Byzantine broadcast — equivocating relays (n={n})"]
    for protocol, cell in result.items():
        blocks.append(_cell_line(protocol, cell))
        blocks.append(
            f"  equivocated-frames={cell['fault_stats']['equivocated_byz']}"
        )
    return "\n".join(blocks)


def _check_equivocation(result: dict, n: int) -> None:
    for cell in result.values():
        _sanity(cell)
        assert cell["fault_stats"]["equivocated_byz"] > 0
    brb = result.get("hyparview-brb")
    if brb is not None:
        # Echo-once plus payload-bound quorums: no wrong value is ever
        # delivered and no two nodes ever disagree, at any tier.
        assert brb["wrong_deliveries"] == 0
        assert brb["agreement"] == 1.0
    baseline = result.get("hyparview-reliable")
    if baseline is not None:
        # First-copy-wins delivery swallows per-destination forgeries:
        # conflicting values are delivered for the same message id.
        assert baseline["wrong_deliveries"] > 0
        assert baseline["agreement"] < 1.0


register(
    ScenarioSpec(
        id="byz_equivocation",
        group="byzantine",
        title="Byzantine broadcast — equivocating relays",
        description="A quarter of the relays send a fresh forged value to "
        "every destination; BRB keeps exact agreement while the baseline "
        "delivers conflicting values for the same message id.",
        tiers=_tiers(
            smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
            paper=TierConfig(n=10_000, messages=100, paper_params=True,
                             extra={"brb_mode": "sampled"}),
        ),
        axes=(Axis("protocols", BYZ_PROTOCOLS),),
        run_cell=_equivocation_run,
        render=_render_equivocation,
        check=_check_equivocation,
    )
)


__all__ = [
    "BYZ_FRACTIONS",
    "BYZ_CHURN_PROTOCOLS",
    "BYZ_PROTOCOLS",
    "measure_byzantine_plan",
]
