"""The repository's layered end-to-end benchmark.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --collect OUT.json [--runs 10]
    python3 benchmarks/perf/run.py --compare A.json B.json

One run drives one workload through the public API of ``repro``, checks its
outputs, prints every metric by name with its unit, and ends with one JSON
line.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer table from a run under ``cProfile``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import hashlib
import json
import math
import pathlib
import statistics
import sys
from dataclasses import dataclass, field
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics."""

    spec: object
    #: Seconds of each set-up (sim: on the reference host; live: as timed).
    setup_s: list[float]
    #: The exact prefix comes first.
    stages: list[harness.Stage]
    attempted: int
    failed: int
    rss_mib: float
    #: Program counters over the exact prefix, per operation.
    per_op: dict[str, float]
    #: Other per-layer values known without a profile (spans, totals).
    layer_values: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: Optional[str] = None
    #: Traced runs only: the profile table and the seconds the exact prefix
    #: took with and without the profiler.
    profile: Optional[dict] = None
    traced_seconds: float = 0.0
    untraced_seconds: float = 0.0
    #: Traced runs only: the spin rate before and after the profiled pass.
    spins: tuple[float, float] = (0.0, 0.0)


def workloads() -> dict:
    from live_workloads import LIVE_WORKLOADS
    from sim_workloads import SIM_WORKLOADS

    return {spec.name: spec for spec in SIM_WORKLOADS + LIVE_WORKLOADS}


def prefix_seconds(spec, stage: harness.Stage) -> float:
    """Wall seconds the exact prefix took (first issue to last completion)."""
    return max(end for _start, end in stage.ops[: spec.exact_ops]) - stage.ops[0][0]


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def run_sim(spec, seed: int, seconds: float, trace: bool, tracer: harness.Tracer) -> Outcome:
    import probes
    import sim_workloads as sim

    setup_s, blob_hashes = [], set()
    for _ in range(1 if trace else SETUPS):
        blob = scenario = None
        gc.collect()
        blob, scenario, normalised = sim.set_up(spec, tracer)
        setup_s.append(normalised)
        blob_hashes.add(hashlib.sha256(blob).hexdigest())
    problems = []
    if len(blob_hashes) != 1:
        problems.append("set-up is not deterministic: frozen blobs differ between repeats")

    attempt = sim.measure(
        spec, blob, seed, tracer, seconds=None if trace else seconds, scenario=scenario
    )
    del scenario
    attempted, failed = attempt.attempted, attempt.failed
    profile = None
    traced_seconds = 0.0
    spins = (0.0, 0.0)
    if trace:
        profile = cProfile.Profile()
        spin_before = harness.spin_ops_per_s()
        traced = sim.measure(spec, blob, seed, tracer, seconds=None, profile=profile)
        spins = (spin_before, harness.spin_ops_per_s())
        attempted += traced.attempted
        failed += traced.failed
        traced_seconds = prefix_seconds(spec, traced.stage)
        if traced.digest != attempt.digest or traced.exact != attempt.exact:
            problems.append("traced and untraced passes of the same operations disagree")

    ops = spec.exact_ops
    exact = attempt.exact
    untraced_seconds = prefix_seconds(spec, attempt.stage)
    delivered = sum(s.delivered for s in attempt.summaries)
    transmissions = sum(s.transmissions for s in attempt.summaries)
    per_op = {
        "sim.engine.events_per_op": exact["events"] / ops,
        "sim.network.sends_per_op": exact["sends"] / ops,
        "sim.network.delivered_per_op": exact["delivered"] / ops,
        "sim.network.dropped_loss_per_op": exact["dropped_loss"] / ops,
        "sim.network.dropped_dead_per_op": exact["dropped_dead"] / ops,
        "sim.network.send_failures_per_op": exact["send_failures"] / ops,
        "gossip.transmissions_per_op": transmissions / ops,
        "gossip.redundant_per_op": sum(s.redundant for s in attempt.summaries) / ops,
        "gossip.useful_ratio": delivered / transmissions if transmissions else 0.0,
        "gossip.reliable.acks_per_op": exact["acks_received"] / ops,
        "gossip.reliable.retransmissions_per_op": exact["retransmissions"] / ops,
        "gossip.reliable.give_ups_per_op": exact["give_ups"] / ops,
    }
    layer_values = {
        f"experiments.{phase}_s": statistics.median(tracer.durations(phase))
        for phase in ("construct", "build_overlay", "stabilize", "freeze", "thaw")
    }
    layer_values["experiments.snapshot_bytes"] = len(blob)
    layer_values["sim.engine.events_per_s"] = exact["events"] / untraced_seconds
    if trace:
        layer_values["sim.engine.probe_events_per_s"] = probes.engine_events_per_s(
            min(exact["events"], 400_000)
        )
        layer_values["sim.network.probe_sends_per_s"] = probes.network_sends_per_s(
            min(exact["sends"], 200_000)
        )
    return Outcome(
        spec=spec,
        setup_s=setup_s,
        stages=[attempt.stage],
        attempted=attempted,
        failed=failed,
        rss_mib=attempt.rss_mib,
        per_op=per_op,
        layer_values=layer_values,
        problems=problems,
        digest=attempt.digest,
        profile=layers.table(profile) if profile is not None else None,
        traced_seconds=traced_seconds,
        untraced_seconds=untraced_seconds,
        spins=spins,
    )


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
async def run_live(spec, seed: int, seconds: float, trace: bool, tracer: harness.Tracer) -> Outcome:
    import live_workloads as live
    import probes

    deployment = await live.deploy(spec, seed, tracer, 1 if trace else SETUPS)
    generator = live.LoadGenerator(deployment, seed, tracer)
    profile = None
    traced_seconds = 0.0
    spins = (0.0, 0.0)
    try:
        rss = await live.warm_up(generator)
        attempt = await live.measure(generator, seconds=None if trace else seconds)
        if trace:
            profile = cProfile.Profile()
            spin_before = harness.spin_ops_per_s()
            traced = await live.measure(generator, seconds=None, profile=profile)
            spins = (spin_before, harness.spin_ops_per_s())
            traced_seconds = prefix_seconds(spec, traced.stages[0])
        await live.quiesce()
        totals = deployment.counters()
    finally:
        await generator.close()
        await deployment.stop()

    problems = [
        f"{name} = {totals[name]} (must be 0)"
        for name in ("dropped", "rate_limited", "frames_overflow", "frames_rejected", "unhandled")
        if totals[name]
    ]
    ops = spec.exact_ops
    per_op = {
        "runtime.transport.frames_per_op": attempt.exact["frames_sent"] / ops,
        "service.client_deliveries_per_op": attempt.exact["client_deliveries"] / ops,
    }
    layer_values = {
        "runtime.cluster_start_s": statistics.median(tracer.durations("cluster_start")),
        "service.subscribe_s": statistics.median(tracer.durations("subscribe")),
        "service.dropped": totals["dropped"],
        "service.rate_limited": totals["rate_limited"],
        "runtime.node.unhandled": totals["unhandled"],
        "runtime.transport.frames_overflow": totals["frames_overflow"],
        "runtime.transport.frames_rejected": totals["frames_rejected"],
    }
    if trace:
        text = "x" * spec.payload_bytes
        encode_us, decode_us = probes.codec_us(text)
        layer_values["common.messages.probe_encode_us"] = encode_us
        layer_values["common.messages.probe_decode_us"] = decode_us
        layer_values["runtime.transport.probe_frames_per_s"] = (
            await probes.transport_frames_per_s(text, frames=20 * ops)
        )
    return Outcome(
        spec=spec,
        setup_s=tracer.durations("setup"),
        stages=attempt.stages,
        attempted=generator.attempted,
        failed=generator.failed,
        rss_mib=rss,
        per_op=per_op,
        layer_values=layer_values,
        problems=problems,
        profile=layers.table(profile) if profile is not None else None,
        traced_seconds=traced_seconds,
        untraced_seconds=prefix_seconds(spec, attempt.stages[0]),
        spins=spins,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> dict[str, float]:
    """Timings are seconds on the reference host (see ``harness.Calibration``):
    throughput over all calibrated time, latency per operation."""
    seconds = 0.0
    latencies = []
    for stage in outcome.stages:
        clock = harness.ReferenceClock(stage.calibration)
        seconds += clock.total()
        latencies += [clock.between(start, end) for start, end in stage.ops]
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "ops_per_s": len(latencies) / seconds,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": outcome.rss_mib,
    }


def per_layer(outcome: Outcome) -> dict[str, float]:
    stats = outcome.profile
    ops = outcome.spec.exact_ops
    values = dict.fromkeys((name for name, _unit, _better in metrics.PER_LAYER), 0.0)
    values.update(outcome.per_op)
    values.update(outcome.layer_values)
    for layer, seconds in layers.fold(stats).items():
        values[f"{layer}.self_us_per_op"] = seconds / ops * 1e6

    def per_op(count: int) -> float:
        return count / ops

    engine = "repro/sim/engine.py"
    values.update({
        "sim.engine.drains_per_op": per_op(layers.function_calls(stats, engine, "run_until_idle")),
        "sim.engine.timers_scheduled_per_op": per_op(
            layers.function_calls(stats, engine, "schedule", "schedule_at")
        ),
        "sim.engine.timers_cancelled_per_op": per_op(
            layers.function_calls(stats, engine, "cancel")
        ),
        "sim.node.deliver_calls_per_op": per_op(
            layers.function_calls(stats, "repro/sim/node.py", "deliver")
        ),
        "core.protocol.calls_per_op": per_op(layers.module_calls(stats, "repro/core/protocol.py")),
        "core.views.random_member_calls_per_op": per_op(
            layers.function_calls(stats, "repro/core/views.py", "random_member")
        ),
        "common.rng.draw_calls_per_op": per_op(
            layers.module_calls(stats, "repro/common/rng.py", "/random.py")
        ),
        "common.messages.encode_calls_per_op": per_op(
            layers.function_calls(stats, "repro/common/messages.py", "encode_message")
        ),
        "common.messages.decode_calls_per_op": per_op(
            layers.function_calls(stats, "repro/common/messages.py", "decode_message")
        ),
        "stdlib.asyncio.drain_calls_per_op": per_op(
            layers.function_calls(stats, "/asyncio/streams.py", "drain")
        ),
        "stdlib.asyncio.socket_send_calls_per_op": per_op(
            layers.calls(stats, lambda _f, name: name == "<method 'send' of '_socket.socket' objects>")
        ),
        "trace.overhead_ratio": outcome.traced_seconds / outcome.untraced_seconds,
        "trace.profile_us_per_op": layers.total_self_time(stats) / ops * 1e6,
        "trace.profiled_ops": ops,
        "host.spin_ops_per_s_before": outcome.spins[0],
        "host.spin_ops_per_s_after": outcome.spins[1],
    })
    return values


def execute(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, detail)`` — the contract line and
    the rest of what the run knows."""
    tracer = harness.Tracer()
    if spec.live:
        outcome = asyncio.run(run_live(spec, seed, seconds, trace, tracer))
    else:
        outcome = run_sim(spec, seed, seconds, trace, tracer)
    if trace:
        table, values = metrics.PER_LAYER, per_layer(outcome)
        tracer.write(spec.name)
    else:
        table, values = metrics.END_TO_END, end_to_end(outcome)
    for name, value in values.items():
        if not math.isfinite(value):
            outcome.problems.append(f"{name} is not finite: {value}")
    ops = [op for stage in outcome.stages for op in stage.ops]
    latencies = sorted(end - start for start, end in ops)
    speeds = [
        speed for stage in outcome.stages if stage.calibration for speed in stage.calibration.speeds()
    ] or [spin / harness.SPIN_REFERENCE for spin in outcome.spins]
    detail = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "noisy": min(speeds) < (1.0 - harness.NOISE_LIMIT) * max(speeds),
        "host_speed": [min(speeds), statistics.median(speeds), max(speeds)],
        "measured_ops": len(ops),
        # As timed on this host (calibration spins included), not normalised:
        "wall_ops_per_s": len(ops) / sum(stage.wall_seconds() for stage in outcome.stages),
        "wall_op_p50_ms": harness.percentile(latencies, 0.50) * 1e3,
        "wall_op_p99_ms": harness.percentile(latencies, 0.99) * 1e3,
        "samples_beyond_p99": len(latencies) - int(0.99 * len(latencies)) - 1,
        "sim_digest": outcome.digest,
        "exact": {name: outcome.per_op[name] for name in sorted(outcome.per_op)},
        "snapshot_bytes": outcome.layer_values.get("experiments.snapshot_bytes"),
        "problems": outcome.problems,
    }
    units = metrics.units(table)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name, _u, *_rest in table
        },
    }
    return result, detail


def report(spec, result: dict, detail: dict) -> None:
    print(f"workload {spec.name}: {spec.why}")
    if spec.live:
        print("load: one process, one thread, one event loop; closed loop, "
              f"{spec.window} publish(es) in flight; traffic crosses the host's "
              "loopback interface, never a real link")
    else:
        print("load: one process, one thread; host time is measured, simulated time is not")
    for name, entry in result["metrics"].items():
        print(f"  {name:<46} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  as timed on this host: {detail['wall_ops_per_s']:.5g} ops/s over "
          f"{detail['measured_ops']} ops, p50 {detail['wall_op_p50_ms']:.4g} ms, "
          f"p99 {detail['wall_op_p99_ms']:.4g} ms ({detail['samples_beyond_p99']} samples beyond it)")
    low, middle, high = detail["host_speed"]
    print(f"  host speed during the run: {low:.2f}..{high:.2f} of the reference, median "
          f"{middle:.2f}{'  (noisy)' if detail['noisy'] else ''}")
    print(f"  ops_attempted = {result['attempted']}  ops_failed = {result['failed']}")
    if detail["sim_digest"]:
        print(f"  sim_digest = {detail['sim_digest']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", metavar="OUT.json",
                        help="run every workload --runs times (other seeds) and save the results")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        print(compare.compare_files(*args.compare))
        return 0
    try:
        known = workloads()
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.collect:
        import compare
        names = [args.workload] if args.workload else list(known)
        return compare.collect(args.collect, names, args.runs, args.seconds, args.seed)
    if args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    result, detail = execute(known[args.workload], args.seed, args.seconds, bool(args.trace))
    report(known[args.workload], result, detail)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
