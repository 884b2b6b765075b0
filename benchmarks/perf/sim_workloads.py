"""The three simulator workloads, driven through ``Scenario`` only.

The benchmark's own RNG (seeded from ``--seed``) picks every broadcast origin
and every crash victim and hands them in.  The scenario keeps the repository's
default seed, so every run works on the same overlay: another overlay costs up
to 15 % more or less per broadcast (zoned latency), which between seeds would
read as noise.  Host time is what is measured; simulated time appears only
inside ``sim_digest``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.experiments import ExperimentParams, Scenario
from repro.gossip.tracker import BroadcastSummary
from repro.sim.engine import events_fired_total

from harness import Calibration, ReferenceClock, Stage, Tracer, peak_rss_mib

#: Crash fractions of one heal round (paper Fig. 2–4).  They stop at 0.7: at
#: n=256, 0.8 leaves 51 survivors and one draw in ~40 strands a node for good
#: (seed 7, draw 19), and a workload's operations must never fail.  0.7 held
#: on 168 draws over 12 overlays.
HEAL_FRACTIONS = (0.3, 0.4, 0.5, 0.6, 0.7)
HEAL_PACED = 20
HEAL_CYCLES = 3
HEAL_POST = 10
#: Fig. 3 shape: a batch sent while the overlay is still repairing.
HEAL_MID_REPAIR_FLOOR = 0.75


@dataclass(frozen=True)
class SimSpec:
    name: str
    why: str
    protocol: str
    n: int
    warmup: int
    #: The fixed prefix of measured operations every run completes: exact
    #: counters, ``sim_digest`` and the traced run cover exactly these.
    exact_ops: int
    zoned: bool = False
    loss_rate: float = 0.0
    heal: bool = False
    live = False

    def toy(self) -> "SimSpec":
        """Self-test size: the same code paths in a second or two."""
        return replace(self, n=64, warmup=1, exact_ops=1 if self.heal else 4)

    def params(self) -> ExperimentParams:
        params = ExperimentParams.scaled(self.n)
        if self.zoned:
            params = replace(params, latency_model="zoned")
        return params


SIM_WORKLOADS = (
    SimSpec(
        name="sim_flood_stable",
        why="paper 5.2: floods on a stable overlay; network, gossip and node dispatch do the work, timers are bypassed",
        protocol="hyparview",
        n=256,
        warmup=20,
        exact_ops=192,
    ),
    SimSpec(
        name="sim_heal_episodes",
        why="paper Fig. 2-4: thaw, an episode per crash fraction 30-70%: crash, broadcast while repairing, heal; membership handlers and rng do the work",
        protocol="hyparview",
        n=256,
        warmup=1,
        exact_ops=1,
        heal=True,
    ),
    SimSpec(
        name="sim_reliable_zoned",
        why="ack+retransmit gossip over zoned latency with 5% loss: distinct timestamps and a cancellable timer per copy load the kernel",
        protocol="hyparview-reliable",
        n=256,
        warmup=4,
        exact_ops=24,
        zoned=True,
        loss_rate=0.05,
    ),
)


def set_up(spec: SimSpec, tracer: Tracer) -> tuple[bytes, Scenario, float]:
    """The cold path a worker pays once per base: build, stabilise, freeze,
    first thaw.  Returns the blob, the thawed copy and the set-up's seconds on
    the reference host (calibrated between the phases only: each is one call
    into the program)."""
    calibration = Calibration()
    with tracer.span("setup"):
        with tracer.span("construct"):
            scenario = Scenario(spec.protocol, spec.params())
        calibration.sample()
        with tracer.span("build_overlay"):
            scenario.build_overlay()
        calibration.sample()
        with tracer.span("stabilize"):
            scenario.stabilize()
        calibration.sample()
        # Loss starts once the overlay is stable: built under loss, four
        # overlays in five kept a node that no later broadcast reached, and
        # a workload's operations must never fail.
        scenario.network.loss_rate = spec.loss_rate
        with tracer.span("freeze"):
            blob = scenario.freeze()
        calibration.sample()
        with tracer.span("thaw"):
            thawed = Scenario.thaw(blob)
        calibration.sample()
    return blob, thawed, ReferenceClock(calibration).total()


class BroadcastOps:
    """One operation = one ``send_broadcast`` drained and finalised."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.ids = scenario.alive_ids()
        layers = [scenario.broadcast_layer(node_id) for node_id in self.ids]
        self.reliable = [layer for layer in layers if hasattr(layer, "reliability_stats")]

    def run(
        self, rng: random.Random, _pause: Callable[[], None]
    ) -> tuple[list[BroadcastSummary], bool]:
        summary = self.scenario.send_broadcast(rng.choice(self.ids))
        return [summary], summary.reliability == 1.0

    def counters(self) -> dict[str, int]:
        stats = self.scenario.network.stats
        totals = {
            "events": events_fired_total(),
            "sends": stats.sent,
            "delivered": stats.delivered,
            "dropped_loss": stats.dropped_loss,
            "dropped_dead": stats.dropped_dead,
            "send_failures": stats.send_failures,
            "acks_received": 0,
            "retransmissions": 0,
            "give_ups": 0,
        }
        for layer in self.reliable:
            for key, value in layer.reliability_stats().items():
                totals[key] += value
        return totals


class HealOps:
    """One operation = one heal round: an episode per crash fraction, each on
    a fresh thaw of the base.  A round, not an episode, so that operations are
    alike: an episode at 0.3 takes three times one at 0.7, and the median of
    such a mix lands on whichever fraction the count of episodes favours."""

    def __init__(self, blob: bytes, tracer: Tracer) -> None:
        self.blob = blob
        self.tracer = tracer
        self.totals = dict.fromkeys(
            ("sends", "delivered", "dropped_loss", "dropped_dead", "send_failures"), 0
        )

    def run(
        self, rng: random.Random, pause: Callable[[], None]
    ) -> tuple[list[BroadcastSummary], bool]:
        summaries, ok = [], True
        for fraction in HEAL_FRACTIONS:
            episode, healed = self.episode(rng, fraction, pause)
            summaries += episode
            ok = ok and healed
        return summaries, ok

    def episode(
        self, rng: random.Random, fraction: float, pause: Callable[[], None]
    ) -> tuple[list[BroadcastSummary], bool]:
        """``pause`` is called between the calls into the program: a round is
        over a second, too long to calibrate only at its ends."""
        with self.tracer.span("thaw"):
            scenario = Scenario.thaw(self.blob)
        stats = scenario.network.stats
        before = (stats.sent, stats.delivered, stats.dropped_loss,
                  stats.dropped_dead, stats.send_failures)
        alive = scenario.alive_ids()
        scenario.fail_nodes(rng.sample(alive, int(round(fraction * len(alive)))))
        pause()
        mid_repair = scenario.send_paced_broadcasts(HEAL_PACED)
        pause()
        for _ in range(HEAL_CYCLES):
            scenario.run_cycles(1)
            pause()
        survivors = scenario.alive_ids()
        healed = []
        for _ in range(HEAL_POST):
            healed.append(scenario.send_broadcast(rng.choice(survivors)))
            pause()
        after = (stats.sent, stats.delivered, stats.dropped_loss,
                 stats.dropped_dead, stats.send_failures)
        for key, old, new in zip(self.totals, before, after):
            self.totals[key] += new - old
        ok = (
            all(summary.reliability == 1.0 for summary in healed)
            and statistics.fmean(s.reliability for s in mid_repair) >= HEAL_MID_REPAIR_FLOOR
        )
        return mid_repair + healed, ok

    def counters(self) -> dict[str, int]:
        return {
            "events": events_fired_total(),
            **self.totals,
            "acks_received": 0,
            "retransmissions": 0,
            "give_ups": 0,
        }


@dataclass
class SimAttempt:
    """What one pass over warm-up + measured operations produced."""

    #: The first ``exact_ops`` operations are the exact prefix.
    stage: Stage
    attempted: int
    failed: int
    rss_mib: float
    #: Cumulative program counters over the exact prefix, not yet per op.
    exact: dict[str, int]
    summaries: list[BroadcastSummary]
    digest: str


def digest_of(summaries: list[BroadcastSummary]) -> str:
    """sha256 over the simulated outcome of the exact prefix.  Identical
    across runs of one commit and seed; a simulator-only speed-up must leave
    it untouched."""
    rows = [
        (s.delivered, s.max_hops, s.transmissions, s.redundant, s.last_delivery_at)
        for s in summaries
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def measure(
    spec: SimSpec,
    blob: bytes,
    seed: int,
    tracer: Tracer,
    *,
    seconds: Optional[float],
    scenario: Optional[Scenario] = None,
    profile: Optional[cProfile.Profile] = None,
) -> SimAttempt:
    """Warm up, run the exact prefix (under ``profile`` when given), then keep
    going until ``seconds`` have passed since the prefix began.
    ``seconds=None`` stops after the prefix and does not calibrate:
    that is the traced run, which reports no timing."""
    if spec.heal:
        ops = HealOps(blob, tracer)
    else:
        if scenario is None:
            with tracer.span("thaw"):
                scenario = Scenario.thaw(blob)
        ops = BroadcastOps(scenario)
    warm_rng = random.Random(f"{seed}/warmup")
    rng = random.Random(f"{seed}/ops")
    attempted = failed = 0
    for _ in range(spec.warmup):
        attempted += 1
        failed += not ops.run(warm_rng, lambda: None)[1]
    gc.collect()
    rss = peak_rss_mib()

    clock = time.perf_counter
    stage = Stage(calibration=Calibration() if seconds is not None else None)
    calibration = stage.calibration
    summaries: list[BroadcastSummary] = []
    index = 0

    def pause() -> None:
        if calibration is not None and calibration.due():
            calibration.sample()

    def run_op(parent: int, keep: bool) -> None:
        nonlocal index, attempted, failed
        issued = clock()
        results, ok = ops.run(rng, pause)
        done = clock()
        stage.ops.append((issued, done))
        tracer.add(f"op[{index}]", issued, done, parent)
        index += 1
        attempted += 1
        failed += not ok
        if keep:
            summaries.extend(results)
        pause()

    before = ops.counters()
    began = clock()
    with tracer.span("measure.exact") as parent:
        if profile is not None:
            profile.enable()
        while index < spec.exact_ops:
            run_op(parent, keep=True)
        if profile is not None:
            profile.disable()
    after = ops.counters()
    if seconds is not None:
        with tracer.span("measure.timed") as parent:
            while clock() < began + seconds:
                run_op(parent, keep=False)
        calibration.sample()
    return SimAttempt(
        stage=stage,
        attempted=attempted,
        failed=failed,
        rss_mib=rss,
        exact={key: after[key] - before[key] for key in after},
        summaries=summaries,
        digest=digest_of(summaries),
    )
