"""The ``faults_*`` scenario family: chaos experiments from fault plans.

Every scenario here is one constant :class:`~repro.faults.plan.FaultPlan`
(its events, phase windows and stream end) measured through
:func:`~repro.faults.measure.measure_fault_plan` on a stabilised overlay,
registered in the tiered registry as a one-axis protocol grid (so the
orchestrator shards them and serves bases from the snapshot cache like any
grid scenario):

* ``faults_partition_heal``   — split-brain with heal and assisted remerge;
* ``faults_cascade``          — correlated cascading crash waves;
* ``faults_wan_jitter``       — lossy/jittery/duplicating WAN links;
* ``faults_churn_trace``      — replay of a crash/restart churn trace;
* ``faults_flash_crowd``      — mass concurrent rejoin after heavy loss;
* ``faults_adversary``        — misbehaving peers silently dropping repair
  traffic (FORWARDJOIN / NEIGHBOR / SHUFFLE) while churn forces repairs.

The ``reliable_*`` family runs the same machinery over the ack+retransmit
broadcast stacks (:mod:`repro.gossip.reliable`) — per-message per-peer
cancellable retransmit timers.  Their plans lean on *datagram* loss
(which the acked layers must repair themselves) rather than the
TCP-masking the flood enjoys:

* ``reliable_loss``  — a window of correlated per-link datagram loss and
  duplication; retransmissions carry the stream through it;
* ``reliable_churn`` — crash/restart bursts mid-stream; ack silence (not
  TCP resets) is the failure signal that triggers view repair;
* ``reliable_stress`` — loss window and a crash wave at once, the
  retry-budget worst case.

A plan is data: only an edit to this module changes it.  The one value a
tier sets is the churn traces' ``burst_size`` (150 of the paper tier's
10 000 nodes).  Timeline times are seconds of simulated time (network
delay is 0.01 s at every tier), so plans transfer unchanged to the live
runtime via :class:`~repro.faults.chaos.ChaosController` — except the
duplicating link windows (``WAN_JITTER``, ``RELIABLE_LOSS``,
``RELIABLE_STRESS``), which it refuses.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..experiments.registry import (
    Axis,
    RunContext,
    ScenarioSpec,
    register,
)
from ..experiments.reporting import ANY, Claim, Column, Ref, Scale, json_safe
from .measure import check_cell, measure_fault_plan
from .plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultEvent,
    FaultPlan,
    PartitionEvent,
    Phase,
    RestartEvent,
)

#: Protocols the fault scenarios compare by default: the paper's subject
#: and its strongest baseline.
FAULT_PROTOCOLS = ("hyparview", "cyclon-acked")


#: A claim about a fault window holds once the stream has a send inside
#: it: paced over the plan's end, three messages put one mid-stream.
_DENSE = Scale(min_messages=3)


def fault_columns(phases: tuple[Phase, ...], *extra: Column) -> tuple[Column, ...]:
    """The fault report: reliability overall and per phase, the scenario's
    own counters, the survivors and the reliability series."""
    return (
        Column("avg", "average"),
        *(Column(f"{phase.name} avg", f"phases.{phase.name}.average") for phase in phases),
        *extra,
        Column("alive", "final.alive", ""),
        Column("component", "final.largest_component"),
        Column("series", "series", "spark"),
    )


def _register_fault_scenario(
    *,
    scenario_id: str,
    title: str,
    description: str,
    plan: FaultPlan | Callable[[RunContext], FaultPlan],
    claims: tuple[Claim, ...],
    options: Mapping[str, Mapping[str, object]] = {},
    protocols: tuple[str, ...] = FAULT_PROTOCOLS,
    phases: tuple[Phase, ...] = (),
    columns: tuple[Column, ...] = (),
) -> None:
    """``plan`` is the scenario's constant plan, or a function of the run
    context for the plans that read a tier option (which name their
    ``phases`` here); ``options`` are its tier options and ``columns`` its
    own counters."""
    register(
        ScenarioSpec(
            id=scenario_id,
            group="faults",
            title=title,
            description=description,
            messages={"smoke": 12, "paper": 100},
            options=options,
            axes=(Axis(None, protocols),),
            run_cell=lambda ctx, key: json_safe(measure_fault_plan(
                ctx.stabilized(key[0]),
                plan(ctx) if callable(plan) else plan,
                messages=ctx.config.messages,
            )),
            columns=fault_columns(phases or plan.phases, *columns),  # type: ignore[union-attr]
            claims=claims,
            invariant=check_cell,
        )
    )


# ----------------------------------------------------------------------
# Partition and heal
# ----------------------------------------------------------------------
PARTITION_HEAL = FaultPlan(
    events=(PartitionEvent(at=0.2, weights=(0.5, 0.5), heal_at=0.5, rejoin=4),),
    label="partition-heal",
    phases=(
        Phase("before", 0.0, 0.2),
        Phase("partitioned", 0.2, 0.5),
        Phase("healed", 0.5, 0.9 + 1e-6),
    ),
    end=0.9,
)


_register_fault_scenario(
    scenario_id="faults_partition_heal",
    title="Faults — partition and heal",
    description="Split-brain 50/50 partition with later heal and an "
    "operator-assisted remerge; reliability per fault phase.",
    plan=PARTITION_HEAL,
    claims=(
        # The cut is real: mid-partition broadcasts cannot be atomic.
        Claim("faults", "*", "phases.partitioned.min", "<", 1.0, _DENSE),
        # Stable-overlay flood is atomic before the cut, and the assisted
        # remerge restores most of the reach after healing.
        Claim("faults", "hyparview", "phases.before.average", ">", 0.99),
        Claim("faults", "hyparview", "phases.healed.average", ">", 0.6),
    ),
)


# ----------------------------------------------------------------------
# Correlated cascading failures
# ----------------------------------------------------------------------
_WAVES = (0.2, 0.35, 0.5)
CASCADE = FaultPlan(
    events=tuple(CrashEvent(at=at, fraction=0.15) for at in _WAVES),
    label="cascade",
    phases=(
        Phase("stable", 0.0, _WAVES[0]),
        Phase("cascading", _WAVES[0], _WAVES[-1] + 0.1),
        Phase("aftermath", _WAVES[-1] + 0.1, 0.9 + 1e-6),
    ),
    end=0.9,
)


_register_fault_scenario(
    scenario_id="faults_cascade",
    title="Faults — correlated cascading failures",
    description="Three correlated crash waves mid-stream; per-wave-phase "
    "reliability and post-cascade recovery.",
    plan=CASCADE,
    claims=(
        # The waves happened, and HyParView's tail recovers after them.
        Claim("faults", "*", "final.alive", "<", Ref(None, "n"), ANY),
        Claim("faults", "hyparview", "phases.aftermath.average", ">", 0.7),
    ),
)


# ----------------------------------------------------------------------
# WAN jitter / lossy links
# ----------------------------------------------------------------------
def _lossy_links(loss: float, jitter: float, phase: str, label: str) -> FaultPlan:
    """Loss, jitter and 5 % duplication on half the links over
    ``[0.1 s, 0.5 s)``; ``phase`` names that window."""
    return FaultPlan(
        events=(
            DegradeEvent(
                at=0.1,
                until=0.5,
                loss_rate=loss,
                jitter=(0.0, jitter),
                duplicate_rate=0.05,
                retransmit_delay=0.03,
                link_fraction=0.5,
            ),
        ),
        label=label,
        phases=(
            Phase("clean", 0.0, 0.1),
            Phase(phase, 0.1, 0.5),
            Phase("recovered", 0.5, 0.8 + 1e-6),
        ),
        end=0.8,
    )


WAN_JITTER = _lossy_links(0.1, 0.05, "degraded", "wan-jitter")


_register_fault_scenario(
    scenario_id="faults_wan_jitter",
    title="Faults — WAN jitter and lossy links",
    description="A window of per-link loss, jitter and duplication on half "
    "the links; TCP-modelled flood vs datagram gossip.",
    plan=WAN_JITTER,
    # TCP-modelled links mask loss as latency: the flood stays near atomic
    # straight through the degradation window.
    claims=(Claim("faults", "hyparview", "average", ">", 0.9),),
    protocols=("hyparview", "cyclon"),
)


# ----------------------------------------------------------------------
# Churn-trace replay
# ----------------------------------------------------------------------
#: A churn trace's phases: the early / mid / late thirds of its stream.
CHURN_PHASES = (
    Phase("early", 0.0, 0.9 / 3),
    Phase("mid", 0.9 / 3, 2 * (0.9 / 3)),
    Phase("late", 2 * (0.9 / 3), 0.9 + 1e-6),
)


def churn_trace(bursts: int, size: int, period: float, label: str = "churn-trace") -> FaultPlan:
    """``bursts`` crashes of ``size`` nodes every ``period`` from 0.1 s,
    each restarted half a period later; early / mid / late thirds of a
    0.9 s stream."""
    events: list[FaultEvent] = []
    for burst in range(bursts):
        at = 0.1 + burst * period
        events += (CrashEvent(at=at, count=size), RestartEvent(at=at + period / 2, count=size))
    return FaultPlan(tuple(events), label=label, phases=CHURN_PHASES, end=0.9)


def _burst_size(ctx: RunContext, default: int) -> int:
    return int(ctx.option("burst_size", default))  # type: ignore[arg-type]


_register_fault_scenario(
    scenario_id="faults_churn_trace",
    title="Faults — churn-trace replay",
    description="Deterministic crash/restart burst trace replayed against "
    "the overlay while the broadcast stream runs.",
    plan=lambda ctx: churn_trace(4, _burst_size(ctx, 3), 0.15),
    # Continuous churn at this rate barely dents HyParView, which keeps up
    # with the acked Cyclon baseline.
    claims=(
        Claim("faults", "hyparview", "average", ">", 0.9),
        Claim("faults", "hyparview", "final.largest_component", ">", 0.9),
        Claim("faults", "hyparview", "average", ">=",
              Ref("cyclon-acked", "average", slack=-0.01)),
    ),
    options={"paper": {"burst_size": 150}},  # 150 of 10 000 nodes a burst
    phases=CHURN_PHASES,
)


# ----------------------------------------------------------------------
# Flash-crowd join
# ----------------------------------------------------------------------
FLASH_CROWD = FaultPlan(
    events=(
        CrashEvent(at=0.05, fraction=0.4),
        RestartEvent(at=0.45, fraction=1.0),
    ),
    label="flash-crowd",
    phases=(
        Phase("depleted", 0.0, 0.45),
        Phase("flash", 0.45, 0.9 + 1e-6),
    ),
    end=0.9,
)


_register_fault_scenario(
    scenario_id="faults_flash_crowd",
    title="Faults — flash-crowd join",
    description="40% of the population crashes, then every dead node "
    "rejoins at the same instant — a join storm through few contacts.",
    plan=FLASH_CROWD,
    # Every crashed node restarted, and the join storm is absorbed: the
    # overlay ends connected.
    claims=(
        Claim("faults", "*", "final.alive", "==", Ref(None, "n"), ANY),
        Claim("faults", "hyparview", "final.largest_component", ">", 0.9),
    ),
)


# ----------------------------------------------------------------------
# Misbehaving peers
# ----------------------------------------------------------------------
ADVERSARY = FaultPlan(
    events=(
        AdversaryEvent(
            at=0.1,
            fraction=0.25,
            # Each protocol family's repair/membership vocabulary; an
            # adversary only matches the types its overlay actually
            # speaks (the rest are inert).
            drop_types=(
                "ForwardJoin", "Neighbor", "Shuffle", "ShuffleReply",
                "CyclonJoinWalk", "CyclonShuffleRequest", "CyclonShuffleReply",
            ),
            until=0.6,
        ),
        # Crashes force repair traffic exactly while adversaries are
        # silently eating it.
        CrashEvent(at=0.25, fraction=0.25),
        RestartEvent(at=0.25 + 0.15, fraction=1.0),
    ),
    label="adversary",
    phases=(
        Phase("honest", 0.0, 0.1),
        Phase("sabotaged", 0.1, 0.6),
        Phase("recovered", 0.6, 0.9 + 1e-6),
    ),
    end=0.9,
)


_register_fault_scenario(
    scenario_id="faults_adversary",
    title="Faults — misbehaving peers",
    description="A quarter of the nodes silently drop FORWARDJOIN / "
    "NEIGHBOR / SHUFFLE traffic while crashes force repairs through them.",
    plan=ADVERSARY,
    # The sabotage was real: repair traffic was silently dropped (crash
    # repair guarantees NEIGHBOR/FORWARDJOIN flows through the adversaries;
    # baseline protocols only shuffle on cycles, which the paced
    # measurement never runs).
    claims=(Claim("faults", "hyparview", "fault_stats.dropped_adversary", ">", 0),),
    columns=(Column("adversary drops", "fault_stats.dropped_adversary", ""),),
)


# ----------------------------------------------------------------------
# Reliable-delivery workloads (ack + retransmit stacks; timer heavy)
# ----------------------------------------------------------------------
#: The ack/retransmit stacks the ``reliable_*`` scenarios compare:
#: HyParView's flood discipline and Cyclon's fanout gossip, both over
#: datagrams with per-copy acks.
RELIABLE_PROTOCOLS = ("hyparview-reliable", "cyclon-reliable")

#: No jitter: loss and duplication stress acks, not timestamps.
RELIABLE_LOSS = _lossy_links(0.25, 0.0, "lossy", "reliable-loss")


#: The ack layer's counters in a ``reliable_*`` report.
_ACK_COLUMNS = (
    Column("retransmissions", "reliable.retransmissions", ""),
    Column("give-ups", "reliable.give_ups", ""),
)


_register_fault_scenario(
    scenario_id="reliable_loss",
    title="Reliable gossip — correlated datagram loss",
    description="A window of per-link datagram loss and duplication on "
    "half the links; per-copy acks and retransmit timers repair the "
    "stream the transport no longer does.",
    plan=RELIABLE_LOSS,
    claims=(
        # The stream was acked at any scale; loss and retransmissions need
        # traffic inside the degradation window.
        Claim("reliable", "*", "reliable.acks_received", ">", 0, ANY),
        Claim("reliable", "*", "fault_stats.dropped_fault", ">", 0, _DENSE),
        Claim("reliable", "*", "reliable.retransmissions", ">", 0, _DENSE),
        # Retransmissions carry the flood through the loss window.
        Claim("reliable", "hyparview-reliable", "phases.lossy.average", ">", 0.9),
    ),
    protocols=RELIABLE_PROTOCOLS,
    columns=_ACK_COLUMNS,
)


_register_fault_scenario(
    scenario_id="reliable_churn",
    title="Reliable gossip — churn bursts",
    description="Crash/restart bursts mid-stream; retransmit give-ups "
    "(ack silence), not TCP resets, feed the membership repair.",
    plan=lambda ctx: churn_trace(3, _burst_size(ctx, 4), 0.2, label="reliable-churn"),
    claims=(
        # Every crashed node restarted, and the ack machinery ran.
        Claim("reliable", "*", "final.alive", "==", Ref(None, "n"), ANY),
        Claim("reliable", "*", "reliable.acks_received", ">", 0, ANY),
        # Ack silence (give-ups) is the failure detector here; modest
        # churn must not dent the stream much.
        Claim("reliable", "hyparview-reliable", "average", ">", 0.85),
        Claim("reliable", "hyparview-reliable", "final.largest_component", ">", 0.9),
    ),
    options={"paper": {"burst_size": 150}},  # 150 of 10 000 nodes a burst
    protocols=RELIABLE_PROTOCOLS,
    phases=CHURN_PHASES,
    columns=_ACK_COLUMNS,
)


RELIABLE_STRESS = FaultPlan(
    events=(
        DegradeEvent(
            at=0.1,
            until=0.6,
            loss_rate=0.35,
            jitter=(0.0, 0.0),
            duplicate_rate=0.05,
            retransmit_delay=0.03,
            link_fraction=0.6,
        ),
        CrashEvent(at=0.3, fraction=0.2),
    ),
    label="reliable-stress",
    phases=(
        Phase("clean", 0.0, 0.1),
        Phase("lossy", 0.1, 0.3),
        Phase("lossy+dead", 0.3, 0.6),
        Phase("aftermath", 0.6, 0.9 + 1e-6),
    ),
    end=0.9,
)


_register_fault_scenario(
    scenario_id="reliable_stress",
    title="Reliable gossip — loss window plus crash wave",
    description="Heavy correlated datagram loss with a crash wave in the "
    "middle of it: retransmit budgets, give-up failure reports and view "
    "repair all under fire at once.",
    plan=RELIABLE_STRESS,
    claims=(
        # Retries burned budget inside the window, the crash wave happened,
        # and retries plus view repair pull the tail back up after it.
        Claim("reliable", "*", "reliable.retransmissions", ">", 0, _DENSE),
        Claim("reliable", "*", "final.alive", "<", Ref(None, "n"), ANY),
        Claim("reliable", "hyparview-reliable", "phases.aftermath.average", ">", 0.7),
    ),
    protocols=RELIABLE_PROTOCOLS,
    columns=_ACK_COLUMNS,
)


__all__ = [
    "FAULT_PROTOCOLS",
    "RELIABLE_PROTOCOLS",
    "WAN_JITTER",
    "churn_trace",
]
