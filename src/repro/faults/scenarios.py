"""The ``faults_*`` scenario family: chaos experiments from fault plans.

Every scenario here is one :class:`~repro.faults.plan.FaultPlan` factory
measured through :func:`~repro.faults.measure.measure_fault_plan` on a
stabilised overlay, registered in the tiered registry as a one-axis
``protocols`` grid (so the orchestrator shards them and serves bases from
the snapshot cache like any grid scenario):

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

Timeline times are seconds of simulated time (network delay is 0.01 s at
every tier), so plans transfer unchanged to the live runtime via
:class:`~repro.faults.chaos.ChaosController`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..experiments.registry import (
    SHAPE_CHECK_MIN_N,
    Axis,
    CellKey,
    RunContext,
    ScenarioSpec,
    TierConfig,
    _tiers,
    register,
)
from ..experiments.reporting import format_phases, json_safe, sparkline
from .measure import measure_fault_plan
from .plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultPlan,
    PartitionEvent,
    Phase,
    RestartEvent,
)

#: A fault-plan factory: (plan, phases, stream end time) from the context.
PlanFactory = Callable[[RunContext], tuple[FaultPlan, tuple[Phase, ...], float]]

#: Protocols the fault scenarios compare by default: the paper's subject
#: and its strongest baseline.
FAULT_PROTOCOLS = ("hyparview", "cyclon-acked")


def _run_fault_cell(ctx: RunContext, key: CellKey, factory: PlanFactory) -> dict:
    scenario = ctx.stabilized(key[0])
    plan, phases, end = factory(ctx)
    interval = end / (ctx.config.messages - 1) if ctx.config.messages > 1 else None
    result = measure_fault_plan(
        scenario, plan,
        messages=ctx.config.messages, interval=interval, phases=phases,
    )
    return json_safe(result)  # type: ignore[return-value]


def _render_fault(result: dict, n: int, *, title: str) -> str:
    blocks = [f"{title} (n={n})"]
    for protocol, cell in result.items():
        stats = cell["fault_stats"]
        blocks.append("")
        blocks.append(
            format_phases(cell["phases"], title=f"{protocol} — plan: "
                          f"{'; '.join(cell['plan']) or '(none)'}")
        )
        blocks.append(
            f"{protocol:13s} avg={cell['average']:.3f}  "
            f"{sparkline(cell['series'])}"
        )
        blocks.append(
            f"  faults: rule-drops={stats['dropped_fault']} "
            f"dups={stats['duplicated_fault']} "
            f"adversary-drops={stats['dropped_adversary']} "
            f"send-failures={stats['send_failures']}  "
            f"final: alive={cell['final']['alive']} "
            f"component={cell['final']['largest_component']:.3f}"
        )
        reliable = cell.get("reliable")
        if reliable is not None:
            blocks.append(
                f"  ack layer: acks={reliable['acks_received']} "
                f"retransmissions={reliable['retransmissions']} "
                f"give-ups={reliable['give_ups']}"
            )
    return "\n".join(blocks)


def _sanity(result: dict) -> None:
    for cell in result.values():
        assert len(cell["series"]) == cell["messages"]
        for value in cell["series"]:
            assert 0.0 <= value <= 1.0
        assert 0.0 <= cell["final"]["largest_component"] <= 1.0


def _phase(cell: dict, name: str) -> dict:
    return next(row for row in cell["phases"] if row["phase"] == name)


def _register_fault_scenario(
    *,
    scenario_id: str,
    title: str,
    description: str,
    factory: PlanFactory,
    smoke: TierConfig,
    paper: TierConfig,
    check: Optional[Callable[[dict, int], None]] = None,
    default_protocols: tuple[str, ...] = FAULT_PROTOCOLS,
) -> None:
    register(
        ScenarioSpec(
            id=scenario_id,
            group="faults",
            title=title,
            description=description,
            tiers=_tiers(smoke=smoke, paper=paper),
            axes=(Axis("protocols", default_protocols),),
            run_cell=lambda ctx, key: _run_fault_cell(ctx, key, factory),
            render=lambda result, n: _render_fault(result, n, title=title),
            check=check,
        )
    )


# ----------------------------------------------------------------------
# Partition and heal
# ----------------------------------------------------------------------
def _partition_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    split_at = float(ctx.option("split_at", 0.2))    # type: ignore[arg-type]
    heal_at = float(ctx.option("heal_at", 0.5))      # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))              # type: ignore[arg-type]
    rejoin = int(ctx.option("rejoin", 4))            # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            PartitionEvent(
                at=split_at, weights=(0.5, 0.5), heal_at=heal_at, rejoin=rejoin
            ),
        ),
        label="partition-heal",
    )
    phases = (
        Phase("before", 0.0, split_at),
        Phase("partitioned", split_at, heal_at),
        Phase("healed", heal_at, end + 1e-6),
    )
    return plan, phases, end


def _check_partition(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        # The cut is real: mid-partition broadcasts cannot be atomic.
        during = _phase(cell, "partitioned")
        if during["messages"]:
            assert during["min"] < 1.0
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        before = _phase(hv, "before")
        healed = _phase(hv, "healed")
        # Stable-overlay flood is atomic before the cut, and the assisted
        # remerge restores most of the reach after healing.
        assert before["average"] is None or before["average"] > 0.99
        assert healed["average"] is not None and healed["average"] > 0.6


_register_fault_scenario(
    scenario_id="faults_partition_heal",
    title="Faults — partition and heal",
    description="Split-brain 50/50 partition with later heal and an "
    "operator-assisted remerge; reliability per fault phase.",
    factory=_partition_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_partition,
)


# ----------------------------------------------------------------------
# Correlated cascading failures
# ----------------------------------------------------------------------
def _cascade_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    wave = float(ctx.option("wave_fraction", 0.15))  # type: ignore[arg-type]
    waves = tuple(ctx.option("waves", (0.2, 0.35, 0.5)))  # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))              # type: ignore[arg-type]
    plan = FaultPlan(
        events=tuple(CrashEvent(at=float(at), fraction=wave) for at in waves),
        label="cascade",
    )
    phases = (
        Phase("stable", 0.0, waves[0]),
        Phase("cascading", waves[0], waves[-1] + 0.1),
        Phase("aftermath", waves[-1] + 0.1, end + 1e-6),
    )
    return plan, phases, end


def _check_cascade(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        # The waves actually happened: survivors < starting population.
        assert cell["final"]["alive"] < cell["n"]
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        aftermath = _phase(hv, "aftermath")
        # HyParView's claim under correlated waves: the tail recovers.
        assert aftermath["average"] is not None and aftermath["average"] > 0.7


_register_fault_scenario(
    scenario_id="faults_cascade",
    title="Faults — correlated cascading failures",
    description="Three correlated crash waves mid-stream; per-wave-phase "
    "reliability and post-cascade recovery.",
    factory=_cascade_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_cascade,
)


# ----------------------------------------------------------------------
# WAN jitter / lossy links
# ----------------------------------------------------------------------
def _wan_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    degrade_at = float(ctx.option("degrade_at", 0.1))    # type: ignore[arg-type]
    recover_at = float(ctx.option("recover_at", 0.5))    # type: ignore[arg-type]
    end = float(ctx.option("end", 0.8))                  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            DegradeEvent(
                at=degrade_at,
                until=recover_at,
                loss_rate=float(ctx.option("loss", 0.1)),       # type: ignore[arg-type]
                jitter=(0.0, float(ctx.option("jitter", 0.05))),  # type: ignore[arg-type]
                duplicate_rate=float(ctx.option("dup", 0.05)),  # type: ignore[arg-type]
                retransmit_delay=0.03,
                link_fraction=float(ctx.option("links", 0.5)),  # type: ignore[arg-type]
            ),
        ),
        label="wan-jitter",
    )
    phases = (
        Phase("clean", 0.0, degrade_at),
        Phase("degraded", degrade_at, recover_at),
        Phase("recovered", recover_at, end + 1e-6),
    )
    return plan, phases, end


def _check_wan(result: dict, n: int) -> None:
    _sanity(result)
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        # TCP-modelled links mask loss as latency: the flood stays near
        # atomic straight through the degradation window.
        assert hv["average"] > 0.9


_register_fault_scenario(
    scenario_id="faults_wan_jitter",
    title="Faults — WAN jitter and lossy links",
    description="A window of per-link loss, jitter and duplication on half "
    "the links; TCP-modelled flood vs datagram gossip.",
    factory=_wan_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_wan,
    default_protocols=("hyparview", "cyclon"),
)


# ----------------------------------------------------------------------
# Churn-trace replay
# ----------------------------------------------------------------------
def _churn_trace_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    bursts = int(ctx.option("bursts", 4))            # type: ignore[arg-type]
    burst_size = int(ctx.option("burst_size", 3))    # type: ignore[arg-type]
    period = float(ctx.option("period", 0.15))       # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))              # type: ignore[arg-type]
    trace = []
    for burst in range(bursts):
        at = 0.1 + burst * period
        trace.append((at, "crash", burst_size))
        trace.append((at + period / 2, "restart", burst_size))
    plan = FaultPlan.churn_trace(trace)
    third = end / 3
    phases = (
        Phase("early", 0.0, third),
        Phase("mid", third, 2 * third),
        Phase("late", 2 * third, end + 1e-6),
    )
    return plan, phases, end


def _check_churn_trace(result: dict, n: int) -> None:
    _sanity(result)
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        # Continuous churn at this rate barely dents HyParView.
        assert hv["average"] > 0.9
        assert hv["final"]["largest_component"] > 0.9


_register_fault_scenario(
    scenario_id="faults_churn_trace",
    title="Faults — churn-trace replay",
    description="Deterministic crash/restart burst trace replayed against "
    "the overlay while the broadcast stream runs.",
    factory=_churn_trace_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True,
                     extra={"burst_size": 150}),
    check=_check_churn_trace,
)


# ----------------------------------------------------------------------
# Flash-crowd join
# ----------------------------------------------------------------------
def _flash_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    crash_at = float(ctx.option("crash_at", 0.05))   # type: ignore[arg-type]
    flash_at = float(ctx.option("flash_at", 0.45))   # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))              # type: ignore[arg-type]
    fraction = float(ctx.option("crash_fraction", 0.4))  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            CrashEvent(at=crash_at, fraction=fraction),
            RestartEvent(at=flash_at, fraction=1.0),
        ),
        label="flash-crowd",
    )
    phases = (
        Phase("depleted", 0.0, flash_at),
        Phase("flash", flash_at, end + 1e-6),
    )
    return plan, phases, end


def _check_flash(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        # Every crashed node restarted: the full population is back.
        assert cell["final"]["alive"] == cell["n"]
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        # The join storm is absorbed: the overlay ends connected.
        assert hv["final"]["largest_component"] > 0.9


_register_fault_scenario(
    scenario_id="faults_flash_crowd",
    title="Faults — flash-crowd join",
    description="40% of the population crashes, then every dead node "
    "rejoins at the same instant — a join storm through few contacts.",
    factory=_flash_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_flash,
)


# ----------------------------------------------------------------------
# Misbehaving peers
# ----------------------------------------------------------------------
def _adversary_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    corrupt_at = float(ctx.option("corrupt_at", 0.1))    # type: ignore[arg-type]
    honest_at = float(ctx.option("honest_at", 0.6))      # type: ignore[arg-type]
    crash_at = float(ctx.option("crash_at", 0.25))       # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))                  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            AdversaryEvent(
                at=corrupt_at,
                fraction=float(ctx.option("adversary_fraction", 0.25)),  # type: ignore[arg-type]
                # Each protocol family's repair/membership vocabulary; an
                # adversary only matches the types its overlay actually
                # speaks (the rest are inert).
                drop_types=(
                    "ForwardJoin", "Neighbor", "Shuffle", "ShuffleReply",
                    "CyclonJoinWalk", "CyclonShuffleRequest", "CyclonShuffleReply",
                ),
                until=honest_at,
            ),
            # Crashes force repair traffic exactly while adversaries are
            # silently eating it.
            CrashEvent(
                at=crash_at,
                fraction=float(ctx.option("crash_fraction", 0.25)),  # type: ignore[arg-type]
            ),
            RestartEvent(at=crash_at + 0.15, fraction=1.0),
        ),
        label="adversary",
    )
    phases = (
        Phase("honest", 0.0, corrupt_at),
        Phase("sabotaged", corrupt_at, honest_at),
        Phase("recovered", honest_at, end + 1e-6),
    )
    return plan, phases, end


def _check_adversary(result: dict, n: int) -> None:
    _sanity(result)
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview")
    if hv:
        # The sabotage was real: repair traffic was silently dropped
        # (crash repair guarantees NEIGHBOR/FORWARDJOIN flows through the
        # adversaries; baseline protocols only shuffle on cycles, which
        # the paced measurement never runs).
        assert hv["fault_stats"]["dropped_adversary"] > 0


_register_fault_scenario(
    scenario_id="faults_adversary",
    title="Faults — misbehaving peers",
    description="A quarter of the nodes silently drop FORWARDJOIN / "
    "NEIGHBOR / SHUFFLE traffic while crashes force repairs through them.",
    factory=_adversary_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_adversary,
)


# ----------------------------------------------------------------------
# Reliable-delivery workloads (ack + retransmit stacks; timer heavy)
# ----------------------------------------------------------------------
#: The ack/retransmit stacks the ``reliable_*`` scenarios compare:
#: HyParView's flood discipline and Cyclon's fanout gossip, both over
#: datagrams with per-copy acks.
RELIABLE_PROTOCOLS = ("hyparview-reliable", "cyclon-reliable")


def _reliable_loss_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    degrade_at = float(ctx.option("degrade_at", 0.1))    # type: ignore[arg-type]
    recover_at = float(ctx.option("recover_at", 0.5))    # type: ignore[arg-type]
    end = float(ctx.option("end", 0.8))                  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            DegradeEvent(
                at=degrade_at,
                until=recover_at,
                loss_rate=float(ctx.option("loss", 0.25)),      # type: ignore[arg-type]
                # No jitter: loss and duplication stress acks, not
                # timestamps.
                jitter=(0.0, 0.0),
                duplicate_rate=float(ctx.option("dup", 0.05)),  # type: ignore[arg-type]
                retransmit_delay=0.03,
                link_fraction=float(ctx.option("links", 0.5)),  # type: ignore[arg-type]
            ),
        ),
        label="reliable-loss",
    )
    phases = (
        Phase("clean", 0.0, degrade_at),
        Phase("lossy", degrade_at, recover_at),
        Phase("recovered", recover_at, end + 1e-6),
    )
    return plan, phases, end


def _check_reliable_loss(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        reliable = cell["reliable"]
        # The stream was acked at any scale; loss and retransmissions
        # require traffic *inside* the degradation window (thinned
        # message counts may put the whole stream outside it).
        assert reliable["acks_received"] > 0
        if _phase(cell, "lossy")["messages"]:
            assert cell["fault_stats"]["dropped_fault"] > 0
            assert reliable["retransmissions"] > 0
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview-reliable")
    if hv:
        # Retransmissions carry the flood through the loss window.
        lossy = _phase(hv, "lossy")
        assert lossy["average"] is not None and lossy["average"] > 0.9


_register_fault_scenario(
    scenario_id="reliable_loss",
    title="Reliable gossip — correlated datagram loss",
    description="A window of per-link datagram loss and duplication on "
    "half the links; per-copy acks and retransmit timers repair the "
    "stream the transport no longer does.",
    factory=_reliable_loss_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_reliable_loss,
    default_protocols=RELIABLE_PROTOCOLS,
)


def _reliable_churn_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    bursts = int(ctx.option("bursts", 3))            # type: ignore[arg-type]
    burst_size = int(ctx.option("burst_size", 4))    # type: ignore[arg-type]
    period = float(ctx.option("period", 0.2))        # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))              # type: ignore[arg-type]
    trace = []
    for burst in range(bursts):
        at = 0.1 + burst * period
        trace.append((at, "crash", burst_size))
        trace.append((at + period / 2, "restart", burst_size))
    plan = FaultPlan.churn_trace(trace, label="reliable-churn")
    third = end / 3
    phases = (
        Phase("early", 0.0, third),
        Phase("mid", third, 2 * third),
        Phase("late", 2 * third, end + 1e-6),
    )
    return plan, phases, end


def _check_reliable_churn(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        # Every crashed node restarted, and the ack machinery ran.
        assert cell["final"]["alive"] == cell["n"]
        assert cell["reliable"]["acks_received"] > 0
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview-reliable")
    if hv:
        # Ack silence (give-ups) is the failure detector here; modest
        # churn must not dent the stream much.
        assert hv["average"] > 0.85
        assert hv["final"]["largest_component"] > 0.9


_register_fault_scenario(
    scenario_id="reliable_churn",
    title="Reliable gossip — churn bursts",
    description="Crash/restart bursts mid-stream; retransmit give-ups "
    "(ack silence), not TCP resets, feed the membership repair.",
    factory=_reliable_churn_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True,
                     extra={"burst_size": 150}),
    check=_check_reliable_churn,
    default_protocols=RELIABLE_PROTOCOLS,
)


def _reliable_stress_factory(ctx: RunContext) -> tuple[FaultPlan, tuple[Phase, ...], float]:
    degrade_at = float(ctx.option("degrade_at", 0.1))    # type: ignore[arg-type]
    crash_at = float(ctx.option("crash_at", 0.3))        # type: ignore[arg-type]
    recover_at = float(ctx.option("recover_at", 0.6))    # type: ignore[arg-type]
    end = float(ctx.option("end", 0.9))                  # type: ignore[arg-type]
    plan = FaultPlan(
        events=(
            DegradeEvent(
                at=degrade_at,
                until=recover_at,
                loss_rate=float(ctx.option("loss", 0.35)),  # type: ignore[arg-type]
                jitter=(0.0, 0.0),
                duplicate_rate=0.05,
                retransmit_delay=0.03,
                link_fraction=float(ctx.option("links", 0.6)),  # type: ignore[arg-type]
            ),
            CrashEvent(
                at=crash_at,
                fraction=float(ctx.option("crash_fraction", 0.2)),  # type: ignore[arg-type]
            ),
        ),
        label="reliable-stress",
    )
    phases = (
        Phase("clean", 0.0, degrade_at),
        Phase("lossy", degrade_at, crash_at),
        Phase("lossy+dead", crash_at, recover_at),
        Phase("aftermath", recover_at, end + 1e-6),
    )
    return plan, phases, end


def _check_reliable_stress(result: dict, n: int) -> None:
    _sanity(result)
    for cell in result.values():
        reliable = cell["reliable"]
        if _phase(cell, "lossy")["messages"] or _phase(cell, "lossy+dead")["messages"]:
            assert reliable["retransmissions"] > 0
        # The crash wave happened while retries were burning budget.
        assert cell["final"]["alive"] < cell["n"]
    if n < SHAPE_CHECK_MIN_N:
        return
    hv = result.get("hyparview-reliable")
    if hv:
        # Retries plus view repair pull the tail back up after the window.
        aftermath = _phase(hv, "aftermath")
        assert aftermath["average"] is not None and aftermath["average"] > 0.7


_register_fault_scenario(
    scenario_id="reliable_stress",
    title="Reliable gossip — loss window plus crash wave",
    description="Heavy correlated datagram loss with a crash wave in the "
    "middle of it: retransmit budgets, give-up failure reports and view "
    "repair all under fire at once.",
    factory=_reliable_stress_factory,
    smoke=TierConfig(n=64, messages=12, stabilization_cycles=15),
    paper=TierConfig(n=10_000, messages=100, paper_params=True),
    check=_check_reliable_stress,
    default_protocols=RELIABLE_PROTOCOLS,
)


__all__ = ["FAULT_PROTOCOLS", "RELIABLE_PROTOCOLS"]
