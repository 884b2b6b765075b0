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
    register,
)
from ..experiments.reporting import ANY, Claim, Column, Ref, Scale, json_safe
from .measure import check_cell, measure_byzantine_plan
from .plan import (
    DEFAULT_MUTATION_TYPES,
    CrashEvent,
    FaultPlan,
    MutationEvent,
    Phase,
    RestartEvent,
)

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


def _run_byz_cell(ctx: RunContext, protocol: str, plan: FaultPlan) -> dict:
    scenario = ctx.stabilized(protocol, _byz_params(ctx, protocol))
    result = measure_byzantine_plan(scenario, plan, messages=ctx.config.messages)
    return json_safe(result)  # type: ignore[return-value]


def _columns(*extra: Column) -> tuple[Column, ...]:
    """The Byzantine report: validated (correct-value) and raw reliability,
    wrong values, agreement, the scenario's own counters and the series."""
    return (
        Column("validated avg", "validated_average"),
        Column("raw avg", "average"),
        Column("wrong", "wrong_deliveries", ""),
        Column("agreement", "agreement", ".2f"),
        *extra,
        Column("validated series", "validated_series", "spark"),
    )


# ----------------------------------------------------------------------
# Adversary-fraction sweep
# ----------------------------------------------------------------------
BYZ_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4)

#: The smoke tier runs Bracha quorums, where the n > 3f cliff is exact;
#: the paper tier runs sampled (SBRB) quorums, whose guarantees are
#: probabilistic, so the cliff is claimed up to n = 256 only.
_BRACHA = Scale(max_n=256)


def _fraction_plan(fraction: float) -> FaultPlan:
    """A mutating ``fraction`` of the relays from 0.1 s (none at 0)."""
    return FaultPlan(
        events=(MutationEvent(at=0.1, fraction=fraction),) if fraction > 0.0 else (),
        label=f"byz-fraction-{fraction:g}",
        phases=(Phase("honest", 0.0, 0.1), Phase("corrupted", 0.1, 0.9 + 1e-6)),
        end=0.9,
    )


def _fraction_run(ctx: RunContext, key: CellKey) -> dict:
    protocol, fraction = key
    cell = _run_byz_cell(ctx, protocol, _fraction_plan(fraction))
    cell["fraction"] = fraction
    return cell


register(
    ScenarioSpec(
        id="byz_adversary_fraction",
        group="byzantine",
        title="Byzantine broadcast — adversary-fraction sweep",
        description="Validated (correct-value) delivery and latency as the "
        "mutating-relay fraction sweeps 0–40%: Bracha quorums hold to the "
        "n > 3f cliff while the ack/retransmit baseline degrades.",
        messages={"smoke": 12, "paper": 100},
        options={"paper": {"brb_mode": "sampled"}},
        axes=(
            Axis(None, BYZ_PROTOCOLS),
            Axis(None, BYZ_FRACTIONS, float, "{:g}".format),
        ),
        run_cell=_fraction_run,
        columns=_columns(
            Column("corrupted avg", "phases.corrupted.average"),
            Column("latency (s)", "latencies|mean"),
        ),
        claims=(
            # Below the n > 3f cliff (f = 25 % of the roster) every correct
            # node delivers the correct value...
            *(
                claim
                for fraction in ("0.1", "0.2", "0.3")
                for claim in (
                    Claim("Bracha", f"hyparview-brb/{fraction}", "validated_average", ">=",
                          0.99, _BRACHA),
                    Claim("Bracha", f"hyparview-brb/{fraction}", "wrong_deliveries", "==", 0,
                          _BRACHA),
                )
            ),
            # ...past it, echo quorums are unreachable and the corrupted
            # window stalls entirely.
            Claim("Bracha", "hyparview-brb/0.4", "phases.corrupted.average", "<", 0.1, _BRACHA),
            # The ack/retransmit stack trusts arriving bytes: mutated relays
            # poison a visible share of first-copy deliveries.
            Claim("Bracha", "hyparview-reliable/0.3", "phases.corrupted.average", "<", 0.95,
                  _BRACHA),
            Claim("Bracha", "hyparview-reliable/0.3", "wrong_deliveries", ">", 0, _BRACHA),
            Claim("Bracha", "hyparview-brb/0.3", "validated_average", ">",
                  Ref("hyparview-reliable/0.3", "validated_average"), _BRACHA),
        ),
        invariant=check_cell,
    )
)


# ----------------------------------------------------------------------
# Sampled quorums under churn
# ----------------------------------------------------------------------
def _churn_plan(burst: int) -> FaultPlan:
    return FaultPlan(
        events=(
            MutationEvent(at=0.1, fraction=0.15, until=0.6),
            # Churn forces stack rebuilds (fresh rosters, fresh samples)
            # exactly while quorum votes are being corrupted.
            CrashEvent(at=0.25, count=burst),
            RestartEvent(at=0.4, fraction=1.0),
        ),
        label="byz-churn",
        phases=(
            Phase("honest", 0.0, 0.1),
            Phase("byzantine", 0.1, 0.6),
            Phase("recovered", 0.6, 0.9 + 1e-6),
        ),
        end=0.9,
    )


BYZ_CHURN_PROTOCOLS = ("hyparview-brb", "cyclon-brb")


def _churn_run(ctx: RunContext, key: CellKey) -> dict:
    burst = int(ctx.option("burst_size", 3))  # type: ignore[arg-type]
    return _run_byz_cell(ctx, key[0], _churn_plan(burst))


register(
    ScenarioSpec(
        id="byz_churn",
        group="byzantine",
        title="Byzantine broadcast — sampled quorums under churn",
        description="O(log n)-sample (SBRB) quorums carry the stream "
        "through a mutation window overlapping crash/restart bursts; "
        "validated delivery with rosters rebuilt mid-stream.",
        messages={"smoke": 12, "paper": 100},
        options={
            "smoke": {"brb_mode": "sampled"},
            "paper": {"brb_mode": "sampled", "burst_size": 150},
        },
        axes=(Axis(None, BYZ_CHURN_PROTOCOLS),),
        run_cell=_churn_run,
        columns=_columns(
            Column("echoes", "brb.echoes_sent", ""),
            Column("readies", "brb.readies_sent", ""),
            Column("quorum deliveries", "brb.quorum_deliveries", ""),
            Column("mutated", "fault_stats.mutated_byz", ""),
            Column("alive", "final.alive", ""),
        ),
        claims=(
            # The quorum machinery ran, every crashed node restarted, and
            # quorum delivery never hands over a corrupted value, even while
            # rosters churn mid-stream.
            Claim("BRB", "*", "brb.quorum_deliveries", ">", 0, ANY),
            Claim("BRB", "*", "final.alive", "==", Ref(None, "n"), ANY),
            Claim("BRB", "*", "wrong_deliveries", "==", 0, ANY),
            Claim("BRB", "*", "agreement", "==", 1.0, ANY),
            # The mutation bit: fault times are absolute seconds, so the
            # paced stream samples the [0.1 s, 0.6 s) window once it is dense.
            Claim("BRB", "*", "fault_stats.mutated_byz", ">", 0, Scale(min_messages=4)),
        ),
        invariant=check_cell,
    )
)


# ----------------------------------------------------------------------
# Equivocation
# ----------------------------------------------------------------------
EQUIVOCATION = FaultPlan(
    events=(
        MutationEvent(
            at=0.1,
            fraction=0.25,
            target_types=DEFAULT_MUTATION_TYPES,
            equivocate=True,
        ),
    ),
    label="byz-equivocation",
    phases=(Phase("honest", 0.0, 0.1), Phase("equivocating", 0.1, 0.9 + 1e-6)),
    end=0.9,
)


register(
    ScenarioSpec(
        id="byz_equivocation",
        group="byzantine",
        title="Byzantine broadcast — equivocating relays",
        description="A quarter of the relays send a fresh forged value to "
        "every destination; BRB keeps exact agreement while the baseline "
        "delivers conflicting values for the same message id.",
        messages={"smoke": 12, "paper": 100},
        options={"paper": {"brb_mode": "sampled"}},
        axes=(Axis(None, BYZ_PROTOCOLS),),
        run_cell=lambda ctx, key: _run_byz_cell(ctx, key[0], EQUIVOCATION),
        columns=_columns(Column("equivocated frames", "fault_stats.equivocated_byz", "")),
        claims=(
            Claim("BRB", "*", "fault_stats.equivocated_byz", ">", 0, ANY),
            # Echo-once plus payload-bound quorums: no wrong value is ever
            # delivered and no two nodes ever disagree, at any tier...
            Claim("BRB", "hyparview-brb", "wrong_deliveries", "==", 0, ANY),
            Claim("BRB", "hyparview-brb", "agreement", "==", 1.0, ANY),
            # ...while first-copy-wins delivery swallows per-destination
            # forgeries: conflicting values for the same message id.
            Claim("BRB", "hyparview-reliable", "wrong_deliveries", ">", 0, ANY),
            Claim("BRB", "hyparview-reliable", "agreement", "<", 1.0, ANY),
        ),
        invariant=check_cell,
    )
)


__all__ = [
    "BYZ_FRACTIONS",
    "BYZ_CHURN_PROTOCOLS",
    "BYZ_PROTOCOLS",
]
