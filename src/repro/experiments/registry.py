"""Tiered scenario registry — every experiment of the evaluation, by id.

One :class:`ScenarioSpec` per table/figure/ablation.  A scenario is a
**grid of cells** and nothing else: the spec names the experiment, sets
its messages and options per **tier**, declares the grid's **axes** once,
binds ``run_cell(ctx, key)`` — check out a stabilised base with
``ctx.stabilized``, measure one cell on it and return the row as a
JSON-safe dict; the paper family's cells sit beside their specs below —
and declares as data what is printed and what is checked:

* ``columns`` — the report's columns, one table row per cell;
* ``claims``  — what the paper (or this repo) says about the cells, each
  with its figure or section and the scale it holds at: sanity bounds at
  any size, the paper's qualitative shapes (protocol orderings,
  thresholds) at bench scale (``n >= SHAPE_CHECK_MIN_N``);
* ``invariant`` — the structural checks of one cell that are not a
  one-metric comparison, one function per result shape.

Tiers (:data:`TIER_SCALES`, one scale for every scenario):

* ``smoke`` — minutes on two CI cores; 64 nodes, 15 stabilisation cycles,
  thinned sweeps.  CI runs this on every push, so the benchmark trajectory
  is recorded from the first green commit.
* ``paper`` — the DSN'07 configuration (10 000 nodes, Section 5.1 view
  sizes, 50 cycles, full grids).  Hours of CPU; reproduces Figures 1–5
  and Table 1.

``repro bench --n / --messages / --replicates`` override a tier's scale
(``--tier paper --n 1000 --replicates 3``: a laptop sweep with error bars).

Adding a scenario is one :func:`register` call; the orchestrator
(:mod:`repro.experiments.runner`) and the ``repro bench`` CLI pick it up
from :data:`REGISTRY`.

**Cells.**  An :class:`Axis` is a tier-option key plus its default values
(the protocols x ``fractions`` for Figure 2, ``fanouts`` for Figure 1a, no
axis at all for the one-cell HyParView reference point); an axis no tier
resizes has key ``None``.  A scenario reads ``ctx.option`` only for
values some tier sets — everything else is a literal or a private
constant beside its spec.
:meth:`ScenarioSpec.cells` enumerates the product of the declared axes and
:meth:`ScenarioSpec.merge_cells` nests the per-cell results back along the
same axes — always in declared order, never in the order results arrived
— so the orchestrator can shard one replicate's grid across worker
processes.  A cell's result depends only on ``(scenario, tier config,
replicate seed, cell key)``, never on which worker runs it or which cells
ran before; artifacts are therefore byte-identical for any worker count,
with or without the snapshot cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from ..common.errors import ConfigurationError
from ..core.config import HyParViewConfig
from ..faults.measure import check_cell, measure_fault_plan
from ..faults.plan import CrashEvent, FaultPlan
from ..gossip.eager import EagerGossip
from ..gossip.flood import FloodBroadcast
from ..metrics.reliability import (
    atomic_fraction,
    average_reliability,
    healing_cycles,
    max_hops,
)
from ..metrics.stats import summarize
from .params import ExperimentParams
from .reporting import ANY, SHAPE_CHECK_MIN_N, Claim, Column, Ref, Scale, json_safe
from .scenario import Scenario
from .snapshots import SnapshotCache, stabilized_scenario

#: A cell's identity inside one replicate: a flat tuple of primitives
#: (protocol names, fractions, fanouts ...) — picklable, hashable, and
#: stable across processes.
CellKey = tuple

#: Each tier's ``(n, stabilization_cycles)``, the same for every scenario.
TIER_SCALES = {"smoke": (64, 15), "paper": (10_000, 50)}


@dataclass(frozen=True, slots=True)
class TierConfig:
    """How one scenario runs at one tier (see :meth:`ScenarioSpec.tier`)."""

    n: int
    messages: int
    stabilization_cycles: int
    replicates: int = 1
    #: scenario-specific knobs (sweep grids, step counts, ...).
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"system size must be >= 2: {self.n}")
        if self.messages < 1:
            raise ConfigurationError(f"messages must be >= 1: {self.messages}")
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1: {self.replicates}")

    def option(self, key: str, default: object) -> object:
        return self.extra.get(key, default)


@dataclass(frozen=True, slots=True)
class RunContext:
    """Everything one replicate needs: its resolved tier config and seed.

    The seed is derived by the orchestrator from
    ``SeedSequence(root_seed).derive_seed("bench/<scenario>/replicate/<i>")``
    so it depends only on ``(root_seed, scenario_id, replicate)`` — never on
    which worker process executes the replicate.
    """

    config: TierConfig
    seed: int
    #: per-worker cache of frozen stabilised bases; ``None`` disables
    #: caching (every base is rebuilt from scratch).  Never part of the
    #: replicate's identity — results are independent of cache occupancy.
    snapshots: Optional[SnapshotCache] = None

    def params(self) -> ExperimentParams:
        return ExperimentParams.scaled(
            self.config.n,
            seed=self.seed,
            stabilization_cycles=self.config.stabilization_cycles,
        )

    def option(self, key: str, default: object) -> object:
        return self.config.option(key, default)

    def stabilized(
        self, protocol: str, params: Optional[ExperimentParams] = None
    ) -> Scenario:
        """A private, ready-to-mutate stabilised scenario for ``protocol``.

        ``params`` overrides the tier-derived defaults — ablation cells
        use this to stabilise per-point configurations (e.g. a swept
        passive-view capacity) through the same cache.  Every checkout —
        served from the snapshot cache or built from scratch — passes
        through exactly one freeze/thaw round trip since stabilisation, so
        measured results never depend on where the base came from.
        """
        if params is None:
            params = self.params()
        if self.snapshots is None:
            return Scenario.thaw(stabilized_scenario(protocol, params).freeze())
        return self.snapshots.checkout(protocol, params)


@dataclass(frozen=True, slots=True)
class Axis:
    """One declared dimension of a scenario's cell grid.

    ``option`` is the tier-option key whose value replaces ``default``
    (``None``: the axis is fixed).  ``default`` is a tuple of values, or a
    function of the run context where the default depends on the tier's
    parameters.  ``kind`` canonicalises a value into its cell-key
    component; ``label`` spells it as a key of the merged grid.
    """

    option: Optional[str]
    default: object
    kind: Callable[[object], object] = str
    label: Callable[[object], str] = str

    def values(self, ctx: RunContext) -> tuple:
        raw = None if self.option is None else ctx.option(self.option, None)
        if raw is None:
            raw = self.default(ctx) if callable(self.default) else self.default
        return tuple(self.kind(value) for value in raw)  # type: ignore[union-attr]


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One registered experiment: a grid of independent cells."""

    id: str
    group: str
    title: str
    description: str
    #: Messages per measurement batch, per tier (every tier of TIER_SCALES).
    messages: Mapping[str, int]
    #: The grid's dimensions, outermost first; ``()`` is a one-cell grid.
    axes: tuple[Axis, ...]
    run_cell: Callable[[RunContext, CellKey], dict]
    #: The report's columns; it prints one row per cell.
    columns: tuple[Column, ...]
    #: Tier options (sweep grids, step counts ...) per tier; a tier not
    #: named sets none.
    options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: What holds of the cells, checked by ``repro bench --check``.
    claims: tuple[Claim, ...] = ()
    #: Structural checks of one cell's result that no claim can state.
    invariant: Optional[Callable[[dict], None]] = None
    #: Wraps the merged grid into the scenario's result shape (header
    #: fields, a ``points`` list ...); default: the nested grid itself.
    frame: Optional[Callable[[RunContext, dict], dict]] = None
    #: Where ``frame`` put the grid (a key of the result); ``""``: no frame.
    grid: str = ""
    #: Maps a cell key to the identity of the stabilised base it reuses
    #: (orchestrator scheduling hint; default: the key's first component).
    cell_affinity: Optional[Callable[[CellKey], object]] = None

    def cells(self, ctx: RunContext) -> tuple[CellKey, ...]:
        """One replicate's cell keys: the product of the declared axes."""
        return tuple(itertools.product(*(axis.values(ctx) for axis in self.axes)))

    def merge_cells(self, ctx: RunContext, results: Mapping[CellKey, dict]) -> dict:
        """Assemble the replicate result from its per-cell results.

        Nests along the declared axes in declared order — ``results`` is
        only ever indexed, never iterated, so the order cells completed in
        cannot show in the result.
        """

        def nest(prefix: CellKey, axes: tuple[Axis, ...]):
            if not axes:
                return results[prefix]
            return {
                axes[0].label(value): nest(prefix + (value,), axes[1:])
                for value in axes[0].values(ctx)
            }

        grid = nest((), self.axes)
        return grid if self.frame is None else self.frame(ctx, grid)

    def cell_rows(self, ctx: RunContext, result: dict) -> list[tuple[str, dict]]:
        """Each cell's label (``hyparview/0.70``) and result in a merged
        replicate result, in declared order: what claims select and the
        report's rows."""
        grid = result.get(self.grid) if self.grid else result
        rows = []
        for index, key in enumerate(self.cells(ctx)):
            labels = [axis.label(value) for axis, value in zip(self.axes, key)]
            cell = grid[index] if isinstance(grid, list) else grid
            if not isinstance(grid, list):
                for label in labels:
                    cell = cell[label]
            rows.append(("/".join(labels), cell))
        return rows

    def tier(self, name: str) -> TierConfig:
        """This scenario at tier ``name``: the tier's scale with the
        scenario's messages and options."""
        if name not in TIER_SCALES:
            raise ConfigurationError(
                f"scenario {self.id!r} has no {name!r} tier; available: {list(TIER_SCALES)}"
            )
        n, cycles = TIER_SCALES[name]
        return TierConfig(
            n=n,
            messages=self.messages[name],
            stabilization_cycles=cycles,
            extra=self.options.get(name, {}),
        )


REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.id in REGISTRY:
        raise ConfigurationError(f"duplicate scenario id: {spec.id}")
    if set(spec.messages) != set(TIER_SCALES) or not set(spec.options) <= set(TIER_SCALES):
        raise ConfigurationError(
            f"{spec.id!r} must set messages for exactly the tiers {list(TIER_SCALES)} "
            f"and options for no others: {sorted(spec.messages)}, {sorted(spec.options)}"
        )
    REGISTRY[spec.id] = spec
    return spec


def get_scenario(scenario_id: str) -> ScenarioSpec:
    try:
        return REGISTRY[scenario_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario_id!r}; run `repro bench --list` "
            f"(available: {', '.join(sorted(REGISTRY))})"
        ) from None


def scenario_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


# ----------------------------------------------------------------------
# Claims and invariants shared across result shapes
# ----------------------------------------------------------------------
def _unit(metric: str) -> tuple[Claim, Claim]:
    """Sanity at any scale: ``metric`` of every cell lies in [0, 1]."""
    return (
        Claim("sanity", "*", metric, ">=", 0.0, ANY),
        Claim("sanity", "*", metric, "<=", 1.0, ANY),
    )


#: The active view the paper sets (Section 5.1) and every tier keeps.
_CAPACITY = HyParViewConfig().active_view_capacity


# ----------------------------------------------------------------------
# Figure 1a/1b — fanout vs reliability (+ the HyParView reference point)
# ----------------------------------------------------------------------
def _fanout_point(protocol: str, fanout: int, summaries: list) -> dict:
    """One Figure 1 point: reliability of a failure-free message batch."""
    series = [summary.reliability for summary in summaries]
    return {
        "protocol": protocol,
        "fanout": fanout,
        "messages": len(summaries),
        "average_reliability": average_reliability(summaries),
        "atomic_fraction": atomic_fraction(series),
        "min_reliability": min(series),
    }


def _fanout_grid(protocol: str) -> dict:
    """Grid fields of a Figure 1 fanout sweep: one cell per fanout, every
    cell flooding the same stabilised ``protocol`` base.

    Section 3.1 motivates HyParView by how much fanout plain gossip needs:
    Cyclon needs 5-6 and Scamp 6 to cross 99 % on 10 000 nodes.  The
    membership structure does not depend on the gossip fanout, so every
    fanout rewires the gossip layer of the identical overlay, exactly like
    re-running the paper's dissemination over one stabilised PeerSim
    network.
    """

    def run_cell(ctx: RunContext, key: CellKey) -> dict:
        scenario = ctx.stabilized(protocol)
        for node_id in scenario.node_ids:
            layer = scenario.broadcast_layer(node_id)
            assert isinstance(layer, EagerGossip)
            layer.fanout = key[0]
        return _fanout_point(protocol, key[0], scenario.send_broadcasts(ctx.config.messages))

    return {
        "axes": (Axis("fanouts", (1, 2, 3, 4, 5, 6, 7, 8), int),),
        "run_cell": run_cell,
        "frame": lambda ctx, grid: {"protocol": protocol, "points": list(grid.values())},
        "grid": "points",
        "cell_affinity": lambda key: "base",
        "columns": (
            Column("avg reliability", "average_reliability"),
            Column("min reliability", "min_reliability"),
            Column("atomic fraction", "atomic_fraction"),
        ),
    }


def _fanout_claims(ref: str, threshold: float) -> tuple[Claim, ...]:
    """Reliability grows with fanout and is high by fanout 6."""
    return (
        *_unit("average_reliability"),
        Claim(ref, "1", "average_reliability", "<", Ref("4", "average_reliability")),
        Claim(ref, "6", "average_reliability", ">", threshold),
    )


register(
    ScenarioSpec(
        id="fig1a_cyclon_fanout",
        group="figure1",
        title="Figure 1a — Cyclon fanout sweep",
        description="Reliability vs gossip fanout for Cyclon (no failures).",
        messages={"smoke": 6, "paper": 50},
        options={"smoke": {"fanouts": (1, 4, 6)}},
        claims=_fanout_claims("Fig. 1a", 0.99),
        **_fanout_grid("cyclon"),
    )
)

register(
    ScenarioSpec(
        id="fig1b_scamp_fanout",
        group="figure1",
        title="Figure 1b — Scamp fanout sweep",
        description="Reliability vs gossip fanout for Scamp (no failures).",
        messages={"smoke": 6, "paper": 50},
        options={"smoke": {"fanouts": (1, 4, 6)}},
        claims=_fanout_claims("Fig. 1b", 0.95),
        **_fanout_grid("scamp"),
    )
)


def _run_hyparview_reference(ctx: RunContext, key: CellKey) -> dict:
    """HyParView floods its ``fanout + 1`` active view: on a stable
    overlay that delivers atomically."""
    scenario = ctx.stabilized("hyparview")
    summaries = scenario.send_broadcasts(ctx.config.messages)
    return {"point": _fanout_point("hyparview", scenario.params.hyparview.fanout, summaries)}


register(
    ScenarioSpec(
        id="fig1_hyparview_reference",
        group="figure1",
        title="Figure 1 — HyParView reference point",
        description="HyParView's flood delivers atomically on a stable overlay.",
        messages={"smoke": 6, "paper": 50},
        axes=(),  # a single point: the one-cell grid
        run_cell=_run_hyparview_reference,
        columns=(
            Column("protocol", "point.protocol", ""),
            Column("fanout", "point.fanout", ""),
            Column("avg reliability", "point.average_reliability"),
            Column("atomic fraction", "point.atomic_fraction"),
        ),
        # The headline holds at any scale: deterministic flooding of a
        # stable, connected overlay is atomic.
        claims=(
            Claim("Fig. 1", "*", "point.average_reliability", "==", 1.0, ANY),
            Claim("Fig. 1", "*", "point.atomic_fraction", "==", 1.0, ANY),
        ),
    )
)


# ----------------------------------------------------------------------
# Figure 1c — baselines after 50% failures
# ----------------------------------------------------------------------
def _crash_then_stream(ctx: RunContext, scenario: Scenario, fraction: float) -> dict:
    """Section 5.2's procedure as a one-event fault plan: crash a random
    ``fraction`` of the nodes (drawn from the plan's ``"crash"`` stream),
    then send the tier's paced batch from random correct nodes *before any
    further membership cycle* — reactive steps (failure detection,
    passive-view promotion) still run, concurrently with the stream.  The
    row is :func:`~repro.faults.measure.measure_fault_plan`'s (``series``
    for Figures 1c / 3, ``average`` for Figure 2, ``final.alive`` the
    correct nodes).  ``fraction`` is in [0, 1); at 0 the plan is empty and
    draws nothing."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"failure fraction must be in [0, 1): {fraction}")
    plan = (
        FaultPlan((CrashEvent(at=0.0, fraction=fraction),), label="crash")
        if fraction
        else FaultPlan.empty()
    )
    result = measure_fault_plan(scenario, plan, messages=ctx.config.messages)
    return json_safe(result)  # type: ignore[return-value]


def _run_failure_cell(ctx: RunContext, key: CellKey) -> dict:
    """One (protocol, failure fraction) cell of Figures 1c, 2 and 3."""
    protocol, fraction = key
    return _crash_then_stream(ctx, ctx.stabilized(protocol), fraction)


register(
    ScenarioSpec(
        id="fig1c_failure50",
        group="figure1",
        title="Figure 1c — baselines after 50% failures",
        description="Per-message reliability of Cyclon/Scamp right after a "
        "50% simultaneous crash, without membership cycles.",
        messages={"smoke": 10, "paper": 100},
        columns=(
            Column("avg reliability", "average"),
            Column("max msg reliability", "series|max"),
            Column("atomic fraction", "series|atomic"),
            Column("series", "series", "spark"),
        ),
        # Reliability is lost: neither baseline approaches 1.0.
        claims=(
            *_unit("average"),
            Claim("Fig. 1c", "*", "series|max", "<", 0.999),
            Claim("Fig. 1c", "*", "series|atomic", "==", 0.0),
            Claim("Fig. 1c", "*", "series|min", "<", 0.5),
        ),
        invariant=check_cell,
        axes=(Axis(None, ("cyclon", "scamp")),),
        run_cell=lambda ctx, key: _run_failure_cell(ctx, (key[0], 0.5)),
    )
)


# ----------------------------------------------------------------------
# Figure 2 — average reliability vs failure percentage (the headline)
# ----------------------------------------------------------------------
def _failure_grid(protocols, fractions, header=lambda ctx: {}) -> dict:
    """Grid fields of a protocol x failure-fraction sweep (Figures 2-4)."""
    axes = (
        Axis(None, protocols),
        Axis("fractions", fractions, float, "{:.2f}".format),
    )

    def frame(ctx: RunContext, grid: dict) -> dict:
        return {
            "protocols": list(axes[0].values(ctx)),
            "fractions": list(axes[1].values(ctx)),
            **header(ctx),
            "cells": grid,
        }

    return {"axes": axes, "frame": frame, "grid": "cells"}


#: The protocols compared throughout Section 5.
PAPER_PROTOCOLS = ("hyparview", "cyclon-acked", "cyclon", "scamp")

#: Figure 2's shapes hold on the sweep through 50-90 %, not a thinned one.
_FIG2 = Scale(
    min_n=SHAPE_CHECK_MIN_N,
    grid=tuple(f"hyparview/{fraction:.2f}" for fraction in (0.5, 0.7, 0.8, 0.9)),
)

register(
    ScenarioSpec(
        id="fig2_reliability",
        group="figure2",
        title="Figure 2 — reliability vs failure percentage",
        description="Average reliability of a message batch sent right "
        "after simultaneous crashes, for every protocol and failure level.",
        messages={"smoke": 6, "paper": 1_000},
        options={"smoke": {"fractions": (0.3, 0.7)}},
        run_cell=_run_failure_cell,
        columns=(Column("avg reliability", "average"), Column("atomic fraction", "series|atomic")),
        claims=(
            *_unit("average"),
            # HyParView is essentially unaffected below 90 %...
            *(
                Claim("Fig. 2", f"hyparview/{fraction}", "average", ">", 0.95, _FIG2)
                for fraction in ("0.50", "0.70", "0.80")
            ),
            Claim("Fig. 2", "hyparview/0.90", "average", ">", 0.8, _FIG2),
            # ...the protocols order after heavy failures...
            Claim("Fig. 2", "hyparview/0.70", "average", ">=",
                  Ref("cyclon-acked/0.70", "average", slack=-0.02), _FIG2),
            Claim("Fig. 2", "cyclon-acked/0.70", "average", ">",
                  Ref("cyclon/0.70", "average"), _FIG2),
            # ...and the baselines collapse above 50 % while HyParView holds.
            Claim("Fig. 2", "cyclon/0.70", "average", "<", 0.5, _FIG2),
            Claim("Fig. 2", "scamp/0.70", "average", "<", 0.5, _FIG2),
            Claim("Fig. 2", "hyparview/0.80", "average", ">",
                  Ref("cyclon-acked/0.80", "average", slack=0.2), _FIG2),
        ),
        invariant=check_cell,
        **_failure_grid(
            PAPER_PROTOCOLS, (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95)
        ),
    )
)


# ----------------------------------------------------------------------
# Figure 3 — per-message recovery curves
# ----------------------------------------------------------------------
register(
    ScenarioSpec(
        id="fig3_recovery",
        group="figure3",
        title="Figure 3 — post-failure recovery curves",
        description="Per-message reliability evolution after massive "
        "failures; HyParView recovers within a handful of broadcasts.",
        messages={"smoke": 10, "paper": 1_000},
        options={"smoke": {"fractions": (0.4, 0.7)}},
        run_cell=_run_failure_cell,
        columns=(
            Column("avg reliability", "average"),
            Column("last-10 avg", "series|tail"),
            Column("series", "series", "spark"),
        ),
        claims=(
            # HyParView's healed tail is ~100 % for panels up to 80 %...
            *(
                Claim("Fig. 3", f"hyparview/{fraction}", "series|tail", ">", 0.95)
                for fraction in ("0.60", "0.70", "0.80")
            ),
            # ...while plain Cyclon does not recover within the batch at 60 %.
            Claim("Fig. 3", "cyclon/0.60", "series|tail", "<", 0.9),
        ),
        invariant=check_cell,
        **_failure_grid(PAPER_PROTOCOLS, (0.20, 0.40, 0.60, 0.70, 0.80, 0.95)),
    )
)


# ----------------------------------------------------------------------
# Figure 4 — healing time in membership cycles
# ----------------------------------------------------------------------
def _max_cycles(ctx: RunContext) -> int:
    return int(ctx.option("max_cycles", 30))  # type: ignore[arg-type]


#: Broadcasts behind the baseline and behind each cycle's reliability.
_HEALING_PROBES = 10

#: The failure levels plotted in Figure 4.
_FIG4_FRACTIONS = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)


def _run_fig4_cell(ctx: RunContext, key: CellKey) -> dict:
    """Section 5.3's procedure: measure the protocol's own pre-failure
    reliability baseline on the stabilised overlay, induce failures, then
    run membership cycles; after each cycle random correct nodes
    broadcast, and the cycle count at which average reliability returns to
    the baseline is the healing time."""
    protocol, fraction = key
    max_cycles = _max_cycles(ctx)
    scenario = ctx.stabilized(protocol)
    # At laptop scale a couple of orphaned survivors would dominate
    # a strict tolerance; allow two stragglers (see bench history).
    survivors = max(1, round(scenario.params.n * (1 - fraction)))
    tolerance = max(0.01, 2.0 / survivors)
    baseline = average_reliability(scenario.send_broadcasts(_HEALING_PROBES))
    scenario.fail_fraction(fraction)
    per_cycle: list[float] = []
    for _cycle in range(max_cycles):
        scenario.run_cycles(1)
        per_cycle.append(average_reliability(scenario.send_broadcasts(_HEALING_PROBES)))
        if per_cycle[-1] >= baseline - tolerance:
            break
    return {
        "protocol": protocol,
        "n": scenario.params.n,
        "failure_fraction": fraction,
        "baseline_reliability": baseline,
        # average probe reliability after each membership cycle
        "per_cycle": per_cycle,
        # 1-based cycle count to regain the baseline, None if not within budget
        "cycles_to_heal": healing_cycles(baseline, per_cycle, tolerance=tolerance),
        "max_cycles": max_cycles,
    }


def _healing_invariant(cell: dict) -> None:
    healed = cell["cycles_to_heal"]
    assert healed is None or 1 <= healed <= cell["max_cycles"], "healed within the budget"


register(
    ScenarioSpec(
        id="fig4_healing",
        group="figure4",
        title="Figure 4 — healing time",
        description="Membership cycles until reliability returns to the "
        "protocol's own pre-failure baseline.",
        messages={"smoke": 6, "paper": 10},
        options={"smoke": {"fractions": (0.3, 0.6), "max_cycles": 10}},
        run_cell=_run_fig4_cell,
        columns=(
            Column("cycles to heal", "cycles_to_heal", ""),
            Column("baseline reliability", "baseline_reliability"),
        ),
        # HyParView heals, and in a few cycles, below 80 % failures; never
        # healing (a missing value) is the regression to catch.
        claims=tuple(
            Claim("Fig. 4", f"hyparview/{fraction:.2f}", "cycles_to_heal", "<=", 5)
            for fraction in _FIG4_FRACTIONS
            if fraction <= 0.8
        ),
        invariant=_healing_invariant,
        # Scamp is left out: its healing hinges on the (long) lease time.
        **_failure_grid(
            ("hyparview", "cyclon-acked", "cyclon"), _FIG4_FRACTIONS,
            header=lambda ctx: {"max_cycles": _max_cycles(ctx)},
        ),
    )
)


# ----------------------------------------------------------------------
# Figure 5 / Table 1 — overlay graph properties
# ----------------------------------------------------------------------
def _run_graphprops_cell(ctx: RunContext, key: CellKey) -> dict:
    """One protocol's Table 1 row and Figure 5 in-degree distribution,
    measured on the stabilised overlay (HyParView's numbers concern its
    active view, footnote 5 of the paper)."""
    sources = ctx.option("path_sample_sources", 100)
    scenario = ctx.stabilized(key[0])
    snapshot = scenario.snapshot()
    summaries = scenario.send_broadcasts(ctx.config.messages)
    return json_safe({  # type: ignore[return-value]
        "protocol": key[0],
        "n": scenario.params.n,
        "average_clustering": snapshot.average_clustering(),
        "path_stats": snapshot.shortest_paths(
            sample_sources=None if sources is None else int(sources)  # type: ignore[arg-type]
        ),
        # mean over messages of the per-message maximum delivery hop count
        "max_hops_to_delivery": max_hops(summaries),
        "in_degree_histogram": snapshot.in_degree_histogram(),
        "in_degree_stats": summarize(float(v) for v in snapshot.in_degrees().values()),
        "out_degree_stats": summarize(float(v) for v in snapshot.out_degrees().values()),
        "symmetry_fraction": snapshot.symmetry_fraction(),
        "connected": snapshot.is_connected(),
    })


def _graph_invariant(cell: dict) -> None:
    assert sum(cell["in_degree_histogram"].values()) <= cell["n"], "at most n nodes counted"
    assert cell["connected"] in (True, False), "connectivity is a boolean"


_GRAPHPROPS_GRID = {
    "axes": (Axis(None, ("cyclon", "scamp", "hyparview")),),
    "run_cell": _run_graphprops_cell,
    "frame": lambda ctx, grid: {
        "active_view_capacity": ctx.params().hyparview.active_view_capacity,
        "protocols": grid,
    },
    "grid": "protocols",
    "invariant": _graph_invariant,
}

register(
    ScenarioSpec(
        id="fig5_indegree",
        group="figure5",
        title="Figure 5 — in-degree distribution",
        description="In-degree histograms of the stabilised overlays; "
        "HyParView concentrates at the active-view size.",
        messages={"smoke": 3, "paper": 5},
        options={"smoke": {"path_sample_sources": 20}},
        columns=(
            Column(f"nodes at in-degree {_CAPACITY}", f"in_degree_histogram.{_CAPACITY}", ""),
            Column("in-degree mean", "in_degree_stats.mean"),
            Column("in-degree stddev", "in_degree_stats.stddev"),
            Column("max in-degree", "in_degree_stats.maximum", ".0f"),
        ),
        claims=(
            # Symmetric active views bound the in-degree at any scale...
            Claim("§4.1", "hyparview", "in_degree_stats.maximum", "<=", _CAPACITY, ANY),
            # ...and HyParView concentrates there while the baselines spread.
            Claim("Fig. 5", "hyparview", f"in_degree_histogram.{_CAPACITY}", ">",
                  Ref(None, "n", factor=0.75)),
            *(
                Claim("Fig. 5", baseline, "in_degree_stats.stddev", ">",
                      Ref("hyparview", "in_degree_stats.stddev", factor=3.0))
                for baseline in ("cyclon", "scamp")
            ),
        ),
        **_GRAPHPROPS_GRID,
    )
)

register(
    ScenarioSpec(
        id="table1_graph",
        group="table1",
        title="Table 1 — overlay graph properties",
        description="Clustering coefficient, shortest path and delivery "
        "hop count of the stabilised overlays.",
        messages={"smoke": 3, "paper": 50},
        options={"smoke": {"path_sample_sources": 20}},
        columns=(
            Column("avg clustering", "average_clustering", ".6f"),
            Column("avg shortest path", "path_stats.average", ".5f"),
            Column("max hops", "max_hops_to_delivery", ".1f"),
        ),
        claims=(
            *_unit("average_clustering"),
            Claim("§4.1", "hyparview", "symmetry_fraction", "==", 1.0, ANY),
            # HyParView's clustering is far below the baselines', its
            # shortest path the longest (tiny active view), yet its
            # delivery hop count the smallest.
            *(
                Claim("Table 1", "hyparview", metric, op, Ref(baseline, metric))
                for baseline in ("cyclon", "scamp")
                for metric, op in (
                    ("average_clustering", "<"),
                    ("path_stats.average", ">"),
                    ("max_hops_to_delivery", "<"),
                )
            ),
        ),
        **_GRAPHPROPS_GRID,
    )
)


# ----------------------------------------------------------------------
# Extension — overhead accounting
# ----------------------------------------------------------------------
#: Message types that carry broadcast payloads; everything else is control.
_DATA_TYPES = frozenset({"GossipData", "PlumtreeGossip"})


def _run_overhead_cell(ctx: RunContext, key: CellKey) -> dict:
    """Control vs data messages of one protocol on a stable overlay.

    The paper planned to measure the packet overhead of its approach on
    PlanetLab (Section 6); the simulator's per-type counters give the
    protocol-level half of that answer: membership maintenance messages
    per node per cycle, and payload copies per broadcast.
    """
    cycles = int(ctx.option("cycles", 10))  # type: ignore[arg-type]
    messages = ctx.config.messages
    scenario = ctx.stabilized(key[0])
    n = scenario.params.n
    counts = scenario.network.stats.messages_by_type

    before = dict(counts)
    scenario.run_cycles(cycles)
    after_cycles = dict(counts)
    cycle_delta = {
        name: count - before.get(name, 0)
        for name, count in after_cycles.items()
        if count != before.get(name, 0)
    }
    control_total = sum(
        count for name, count in cycle_delta.items() if name not in _DATA_TYPES
    )

    scenario.send_broadcasts(messages)
    broadcast_delta = {
        name: count - after_cycles.get(name, 0) for name, count in counts.items()
    }
    data_total = sum(broadcast_delta.get(name, 0) for name in _DATA_TYPES)
    broadcast_control = sum(
        count for name, count in broadcast_delta.items() if name not in _DATA_TYPES
    )
    return {
        "protocol": key[0],
        "n": n,
        "cycles": cycles,
        "messages": messages,
        # membership maintenance messages per node per cycle
        "control_per_node_cycle": control_total / (n * cycles),
        # payload-carrying copies per broadcast
        "data_per_broadcast": data_total / messages,
        # non-payload messages sent during the broadcast batch (acks,
        # IHAVEs, repair traffic; ~0 for a stable flood)
        "broadcast_control_per_broadcast": broadcast_control / messages,
        # full per-type breakdown of the cycle phase
        "control_breakdown": cycle_delta,
    }


register(
    ScenarioSpec(
        id="overhead",
        group="extension",
        title="Extension — message overhead accounting",
        description="Control vs payload traffic per protocol on identical "
        "stable overlays (the paper's Section 6 future-work question).",
        messages={"smoke": 5, "paper": 20},
        options={"smoke": {"cycles": 3}},
        columns=(
            Column("control msgs/node/cycle", "control_per_node_cycle"),
            Column("data msgs/broadcast", "data_per_broadcast"),
            Column("control msgs/broadcast", "broadcast_control_per_broadcast"),
        ),
        claims=(
            Claim("sanity", "*", "control_per_node_cycle", ">=", 0.0, ANY),
            Claim("sanity", "*", "data_per_broadcast", ">=", 0.0, ANY),
            # Cyclon's cycle is one request and one reply, at any scale.
            Claim("Cyclon", "cyclon", "control_per_node_cycle", "<=", 2.5, ANY),
        ),
        axes=(Axis(None, ("hyparview", "plumtree", "cyclon", "cyclon-acked", "scamp")),),
        run_cell=_run_overhead_cell,
    )
)


# ----------------------------------------------------------------------
# Ablations — every sweep point is one cell
# ----------------------------------------------------------------------
def _points(failure: Callable[[RunContext], float]) -> dict:
    """The ablations' result shape: the failure level the sweep ran at
    and the grid's cells as an ordered list."""
    return {
        "frame": lambda ctx, grid: {"failure": failure(ctx), "points": list(grid.values())},
        "grid": "points",
    }


def _failure(ctx: RunContext) -> float:
    """The passive-size and resend sweeps' failure level (tier option)."""
    return float(ctx.option("failure", 0.8))  # type: ignore[arg-type]


#: The shuffle-TTL sweep's failure level.
_SHUFFLE_TTL_FAILURE = 0.6


def _hyparview_params(ctx: RunContext, **changes: object) -> ExperimentParams:
    """The tier params with some HyParView settings replaced (one sweep
    point, stabilised through the cache like any other base)."""
    params = ctx.params()
    return replace(params, hyparview=replace(params.hyparview, **changes))


def _passive_sizes(ctx: RunContext) -> tuple[int, ...]:
    """A sweep bracketing the configured passive capacity."""
    anchor = ctx.params().hyparview.passive_view_capacity
    return tuple(sorted({max(2, anchor // 4), max(3, anchor // 2), anchor, anchor * 2}))


def _run_passive_cell(ctx: RunContext, key: CellKey) -> dict:
    """The paper's future-work item (Section 6): the passive view size vs
    the resilience level — crash, stream, and measure the recovery."""
    scenario = ctx.stabilized("hyparview", _hyparview_params(ctx, passive_view_capacity=key[0]))
    return {"passive_capacity": key[0], **_crash_then_stream(ctx, scenario, _failure(ctx))}


register(
    ScenarioSpec(
        id="ablation_passive_size",
        group="ablation",
        title="Ablation — passive view size vs resilience",
        description="The paper's future-work sweep: passive capacity vs "
        "recovered reliability and connectivity at heavy failure levels.",
        messages={"smoke": 6, "paper": 50},
        options={"smoke": {"passive_sizes": (3, 8), "failure": 0.6}},
        columns=(
            Column("avg reliability", "average"),
            Column("tail reliability", "series|tail"),
            Column("largest component", "final.largest_component"),
        ),
        claims=(
            # The sweep runs smallest to largest, and larger passive views
            # must not hurt resilience.
            Claim("sanity", -1, "passive_capacity", ">=", Ref(0, "passive_capacity"), ANY),
            Claim("ablation", -1, "series|tail", ">=", Ref(0, "series|tail", slack=-0.02)),
        ),
        axes=(Axis("passive_sizes", _passive_sizes, int),),
        run_cell=_run_passive_cell,
        invariant=check_cell,
        **_points(_failure),
    )
)


def _run_shuffle_ttl_cell(ctx: RunContext, key: CellKey) -> dict:
    """Overlay quality and recovery at one shuffle walk TTL (the paper
    leaves it unspecified).

    ``passive_balance`` is the coefficient of variation of the passive
    in-degree (how many passive views each node appears in): short walks
    exchange views with nearby nodes only, concentrating representation;
    longer walks mix the system and flatten it (lower is more uniform).
    """
    scenario = ctx.stabilized("hyparview", _hyparview_params(ctx, shuffle_ttl=key[0]))
    snapshot = scenario.snapshot()
    passive_in_degree: dict = {}
    for node_id in scenario.node_ids:
        for peer in scenario.membership(node_id).passive_members():
            passive_in_degree[peer] = passive_in_degree.get(peer, 0) + 1
    degrees = [float(passive_in_degree.get(n, 0)) for n in scenario.node_ids]
    mean_count = sum(degrees) / len(degrees) if degrees else 0.0
    if mean_count > 0:
        variance = sum((c - mean_count) ** 2 for c in degrees) / len(degrees)
        balance = variance**0.5 / mean_count
    else:
        balance = 0.0
    row = _crash_then_stream(ctx, scenario, _SHUFFLE_TTL_FAILURE)
    return {
        "shuffle_ttl": key[0],
        **row,
        "average_clustering": snapshot.average_clustering(),
        "passive_balance": balance,
    }


register(
    ScenarioSpec(
        id="ablation_shuffle_ttl",
        group="ablation",
        title="Ablation — shuffle walk TTL",
        description="The unspecified shuffle TTL: walk length vs passive "
        "view balance, clustering and recovery.",
        messages={"smoke": 6, "paper": 30},
        options={"smoke": {"ttls": (1, 6)}},
        columns=(
            Column("avg clustering", "average_clustering"),
            Column("passive in-degree CV", "passive_balance"),
            Column("recovery avg", "average"),
        ),
        claims=(
            *_unit("average"),
            Claim("ablation", "*", "average", ">", 0.5),
            Claim("ablation", "*", "passive_balance", "<", 2.0),
        ),
        axes=(Axis("ttls", (1, 3, 6, 9), int),),
        run_cell=_run_shuffle_ttl_cell,
        invariant=check_cell,
        **_points(lambda ctx: _SHUFFLE_TTL_FAILURE),
    )
)


def _run_resend_cell(ctx: RunContext, key: CellKey) -> dict:
    """One arm of the flood resend-on-repair extension: a failed flood
    copy is retransmitted towards the repaired active view, trading extra
    traffic for reliability during the repair transient."""
    scenario = ctx.stabilized("hyparview")
    for node_id in scenario.node_ids:
        layer = scenario.broadcast_layer(node_id)
        assert isinstance(layer, FloodBroadcast)
        layer.resend_on_repair = key[0]
    counts = scenario.network.stats.messages_by_type
    before = counts.get("GossipData", 0)
    row = _crash_then_stream(ctx, scenario, _failure(ctx))
    return {
        "resend_on_repair": key[0],
        **row,
        "data_transmissions": counts.get("GossipData", 0) - before,
    }


register(
    ScenarioSpec(
        id="ablation_flood_resend",
        group="ablation",
        title="Ablation — flood resend-on-repair",
        description="Retransmitting failed flood copies towards the "
        "repaired active view: reliability gained vs extra traffic.",
        messages={"smoke": 8, "paper": 50},
        options={"smoke": {"failure": 0.6}},
        columns=(
            Column("resend on repair", "resend_on_repair", ""),
            Column("avg reliability", "average"),
            Column("first-10 avg", "series|head"),
            Column("payload transmissions", "data_transmissions", ""),
        ),
        # The extension trades extra payload traffic for early reliability.
        claims=(
            Claim("sanity", "*", "data_transmissions", ">=", 0, ANY),
            Claim("ablation", "True", "average", ">=", Ref("False", "average", slack=-0.02)),
            Claim("ablation", "True", "data_transmissions", ">=",
                  Ref("False", "data_transmissions")),
        ),
        # Both arms fork one stabilised HyParView base: the paper's flood,
        # then the extension.
        cell_affinity=lambda key: "base",
        axes=(Axis(None, (False, True), bool),),
        run_cell=_run_resend_cell,
        invariant=check_cell,
        **_points(_failure),
    )
)


#: The payload message class each broadcast layer of the Plumtree study
#: counts (tree dissemination vs flood over the same overlay).
_PLUMTREE_PAYLOADS = {"hyparview": "GossipData", "plumtree": "PlumtreeGossip"}


def _run_plumtree_cell(ctx: RunContext, key: CellKey) -> dict:
    """Payload traffic and reliability of one broadcast layer.

    ``warmup`` broadcasts converge Plumtree's tree (a no-op for the flood)
    before the measured batch, mirroring a long-running deployment.
    """
    warmup = int(ctx.option("warmup", 5))  # type: ignore[arg-type]
    messages = ctx.config.messages
    payload_type = _PLUMTREE_PAYLOADS[key[0]]
    scenario = ctx.stabilized(key[0])
    scenario.send_broadcasts(warmup)
    counts = scenario.network.stats.messages_by_type
    before = counts.get(payload_type, 0)
    summaries = scenario.send_broadcasts(messages)
    return {
        "reliability": average_reliability(summaries),
        "payloads_per_broadcast": (counts.get(payload_type, 0) - before) / messages,
    }


register(
    ScenarioSpec(
        id="ablation_plumtree",
        group="ablation",
        title="Ablation — Plumtree vs flood",
        description="Payload copies per broadcast for tree dissemination "
        "vs flooding over the same HyParView overlay.",
        messages={"smoke": 5, "paper": 20},
        options={"smoke": {"warmup": 3}},
        columns=(
            Column("avg reliability", "reliability"),
            Column("payload msgs / broadcast", "payloads_per_broadcast"),
        ),
        claims=(
            # Both layers are atomic on a stable overlay at any scale, and
            # the tree never sends more payloads than the flood...
            Claim("ablation", "*", "reliability", "==", 1.0, ANY),
            Claim("ablation", "plumtree", "payloads_per_broadcast", "<=",
                  Ref("hyparview", "payloads_per_broadcast"), ANY),
            # ...and a converged tree (~n-1 payloads vs the flood's
            # ~n*(capacity-1)) saves materially.
            Claim("ablation", "plumtree", "payloads_per_broadcast", "<",
                  Ref("hyparview", "payloads_per_broadcast", factor=0.6)),
        ),
        axes=(Axis(None, tuple(_PLUMTREE_PAYLOADS)),),
        run_cell=_run_plumtree_cell,
    )
)


# ----------------------------------------------------------------------
# Fault-injection scenario family (repro.faults) — registered on import
# so the CLI, the orchestrator and CI pick the ``faults_*`` scenarios up
# from REGISTRY like any other experiment.  Imported last: the module
# registers through the machinery defined above.
# ----------------------------------------------------------------------
from ..faults import scenarios as _fault_scenarios  # noqa: E402,F401  (registration side effect)
from ..faults import byzantine as _byz_scenarios  # noqa: E402,F401  (registration side effect)
from . import topology as _topo_scenarios  # noqa: E402,F401  (registration side effect)
