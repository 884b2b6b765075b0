"""The benchmark's metric names, units and bounds — the one place they are
defined.  ``BENCHMARK.json`` at the repository root repeats them for the
driver; ``test_perf_bench.py`` asserts the two agree.

``us`` is microseconds.  ``_per_op`` is per broadcast on the four broadcast
workloads and per heal round (five episodes) on ``sim_heal_episodes``.  A per-layer metric
of a layer that is not on a workload's path reads 0 there.
"""

from __future__ import annotations

#: (name, unit, better, bound) — printed by every untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Layers whose traced self-time is reported as ``<layer>.self_us_per_op``.
SELF_TIME_LAYERS = (
    "experiments",
    "sim.engine",
    "sim.network",
    "sim.node",
    "core.protocol",
    "core.views",
    "common.rng",
    "common.messages",
    "common.other",
    "gossip",
    "gossip.reliable",
    "gossip.tracker",
    "service",
    "runtime.node",
    "runtime.transport",
    "runtime.delivery",
    "stdlib.json",
    "stdlib.asyncio.queues",
    "stdlib.asyncio.streams",
    "stdlib.asyncio.loop",
    "bench",
    "other",
)

#: (name, unit, better) — printed by every traced run, besides the self-times.
_COUNTERS = (
    # harness spans (host seconds of one set-up)
    ("experiments.construct_s", "s", "lower"),
    ("experiments.build_overlay_s", "s", "lower"),
    ("experiments.stabilize_s", "s", "lower"),
    ("experiments.freeze_s", "s", "lower"),
    ("experiments.thaw_s", "s", "lower"),
    ("experiments.snapshot_bytes", "B", "lower"),
    ("runtime.cluster_start_s", "s", "lower"),
    ("service.subscribe_s", "s", "lower"),
    # kernel
    ("sim.engine.events_per_op", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("sim.engine.drains_per_op", "count", "lower"),
    ("sim.engine.timers_scheduled_per_op", "count", "lower"),
    ("sim.engine.timers_cancelled_per_op", "count", "lower"),
    ("sim.engine.probe_events_per_s", "1/s", "higher"),
    # simulated network
    ("sim.network.sends_per_op", "count", "lower"),
    ("sim.network.delivered_per_op", "count", "lower"),
    ("sim.network.dropped_loss_per_op", "count", "lower"),
    ("sim.network.dropped_dead_per_op", "count", "lower"),
    ("sim.network.send_failures_per_op", "count", "lower"),
    ("sim.network.probe_sends_per_s", "1/s", "higher"),
    ("sim.node.deliver_calls_per_op", "count", "lower"),
    # membership
    ("core.protocol.calls_per_op", "count", "lower"),
    ("core.views.random_member_calls_per_op", "count", "lower"),
    ("common.rng.draw_calls_per_op", "count", "lower"),
    # broadcast layers
    ("gossip.transmissions_per_op", "count", "lower"),
    ("gossip.redundant_per_op", "count", "lower"),
    ("gossip.useful_ratio", "ratio", "higher"),
    ("gossip.reliable.acks_per_op", "count", "lower"),
    ("gossip.reliable.retransmissions_per_op", "count", "lower"),
    ("gossip.reliable.give_ups_per_op", "count", "lower"),
    # live service
    ("service.client_deliveries_per_op", "count", "higher"),
    ("service.dropped", "count", "lower"),
    ("service.rate_limited", "count", "lower"),
    ("runtime.node.unhandled", "count", "lower"),
    ("runtime.transport.frames_per_op", "count", "lower"),
    ("runtime.transport.frames_overflow", "count", "lower"),
    ("runtime.transport.frames_rejected", "count", "lower"),
    ("runtime.transport.probe_frames_per_s", "1/s", "higher"),
    ("common.messages.encode_calls_per_op", "count", "lower"),
    ("common.messages.decode_calls_per_op", "count", "lower"),
    ("common.messages.probe_encode_us", "us", "lower"),
    ("common.messages.probe_decode_us", "us", "lower"),
    ("stdlib.asyncio.drain_calls_per_op", "count", "lower"),
    ("stdlib.asyncio.socket_send_calls_per_op", "count", "lower"),
    # qualifiers of the other numbers
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.profile_us_per_op", "us", "lower"),
    ("trace.profiled_ops", "count", "higher"),
    ("host.spin_ops_per_s_before", "1/s", "higher"),
    ("host.spin_ops_per_s_after", "1/s", "higher"),
)

PER_LAYER = tuple(
    (f"{layer}.self_us_per_op", "us", "lower") for layer in SELF_TIME_LAYERS
) + _COUNTERS


def units(table) -> dict[str, str]:
    return {row[0]: row[1] for row in table}
