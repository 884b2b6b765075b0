"""The ``byz_*`` scenario family: Byzantine senders vs quorum broadcast.

Each scenario measures a constant plan through
:func:`~repro.faults.measure.measure_byzantine_plan`, which scores every
message twice — the tracker's raw id-level ``series`` and the
``validated_series`` of correct-value deliveries — plus per-message
agreement and the count of wrong-value deliveries.  Origins are always
honest: the experiments measure dissemination *through* an adversarial
relay population, not an adversarial source.

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

Tiers set two values: ``brb_mode`` (the paper tier samples quorums) and
``byz_churn``'s ``burst_size``.
"""

from __future__ import annotations

from dataclasses import replace

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
from .measure import check_cell, measure_byzantine_plan, phase_row
from .plan import (
    DEFAULT_MUTATION_TYPES,
    CrashEvent,
    FaultPlan,
    MutationEvent,
    Phase,
    RestartEvent,
)
from .scenarios import PlanSpec, stream_interval

#: The Byzantine scenarios' default comparison: quorum broadcast vs the
#: ack/retransmit stack that trusts whatever bytes arrive.
BYZ_PROTOCOLS = ("hyparview-brb", "hyparview-reliable")


# ----------------------------------------------------------------------
# Registration plumbing
# ----------------------------------------------------------------------
def _byz_params(ctx: RunContext, protocol: str) -> ExperimentParams:
    """Tier params, with the BRB quorum mode the tier asks for.

    Non-BRB protocols keep the default params object so their snapshot
    bases are shared with every other scenario at the same tier.
    """
    params = ctx.params()
    if not protocol.endswith("-brb"):
        return params
    return replace(params, brb_mode=str(ctx.option("brb_mode", "bracha")))


def _run_byz_cell(ctx: RunContext, protocol: str, plan: PlanSpec) -> dict:
    scenario = ctx.stabilized(protocol, _byz_params(ctx, protocol))
    timeline, phases, end = plan
    result = measure_byzantine_plan(
        scenario, timeline,
        messages=ctx.config.messages, interval=stream_interval(ctx, end), phases=phases,
    )
    return json_safe(result)  # type: ignore[return-value]


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


def _fraction_plan(fraction: float) -> PlanSpec:
    if fraction <= 0.0:
        plan = FaultPlan.empty()
    else:
        plan = FaultPlan(
            events=(MutationEvent(at=0.1, fraction=fraction),),
            label=f"byz-fraction-{fraction:g}",
        )
    return plan, (Phase("honest", 0.0, 0.1), Phase("corrupted", 0.1, 0.9 + 1e-6)), 0.9


def _fraction_run(ctx: RunContext, key: CellKey) -> dict:
    protocol, fraction = key
    cell = _run_byz_cell(ctx, protocol, _fraction_plan(fraction))
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
            check_cell(cell)
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
    collapsed = phase_row(brb["0.4"], "corrupted")
    assert collapsed["average"] is not None and collapsed["average"] < 0.1
    if baseline is not None:
        # The ack/retransmit stack trusts arriving bytes: mutated relays
        # poison a visible share of first-copy deliveries.
        degraded = phase_row(baseline["0.3"], "corrupted")
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
            Axis(None, BYZ_PROTOCOLS),
            Axis(None, BYZ_FRACTIONS, float, "{:g}".format),
        ),
        run_cell=_fraction_run,
        render=_render_fraction,
        check=_check_fraction,
    )
)


# ----------------------------------------------------------------------
# Sampled quorums under churn
# ----------------------------------------------------------------------
def _churn_plan(burst: int) -> PlanSpec:
    plan = FaultPlan(
        events=(
            MutationEvent(at=0.1, fraction=0.15, until=0.6),
            # Churn forces stack rebuilds (fresh rosters, fresh samples)
            # exactly while quorum votes are being corrupted.
            CrashEvent(at=0.25, count=burst),
            RestartEvent(at=0.4, fraction=1.0),
        ),
        label="byz-churn",
    )
    phases = (
        Phase("honest", 0.0, 0.1),
        Phase("byzantine", 0.1, 0.6),
        Phase("recovered", 0.6, 0.9 + 1e-6),
    )
    return plan, phases, 0.9


BYZ_CHURN_PROTOCOLS = ("hyparview-brb", "cyclon-brb")


def _churn_run(ctx: RunContext, key: CellKey) -> dict:
    burst = int(ctx.option("burst_size", 3))  # type: ignore[arg-type]
    return _run_byz_cell(ctx, key[0], _churn_plan(burst))


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
        check_cell(cell)
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
        axes=(Axis(None, BYZ_CHURN_PROTOCOLS),),
        run_cell=_churn_run,
        render=_render_churn,
        check=_check_churn,
    )
)


# ----------------------------------------------------------------------
# Equivocation
# ----------------------------------------------------------------------
EQUIVOCATION: PlanSpec = (
    FaultPlan(
        events=(
            MutationEvent(
                at=0.1,
                fraction=0.25,
                target_types=DEFAULT_MUTATION_TYPES,
                equivocate=True,
            ),
        ),
        label="byz-equivocation",
    ),
    (Phase("honest", 0.0, 0.1), Phase("equivocating", 0.1, 0.9 + 1e-6)),
    0.9,
)


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
        check_cell(cell)
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
        axes=(Axis(None, BYZ_PROTOCOLS),),
        run_cell=lambda ctx, key: _run_byz_cell(ctx, key[0], EQUIVOCATION),
        render=_render_equivocation,
        check=_check_equivocation,
    )
)


__all__ = [
    "BYZ_FRACTIONS",
    "BYZ_CHURN_PROTOCOLS",
    "BYZ_PROTOCOLS",
]
