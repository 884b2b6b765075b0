"""The layered benchmark's simulated outcome, pinned.

``benchmarks/perf`` prints a ``sim_digest`` (sha256 over every broadcast
summary of the exact prefix) and exact work counters; "a simulator-only
speed-up must leave them untouched" was until now a sentence in CHANGES.md
that a reviewer checked by hand.  Here it fails in CI.  The benchmark is
imported read-only, as its own self-test does; full size, seed 1, so slow.

A PR that *means* to change the simulation (a protocol fix, another default)
re-pins these with the reason, exactly as for the sha256 artifact pins.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

#: workload -> (sim_digest, counters summed over the exact prefix)
PINNED = {
    "sim_flood_stable": (
        # Re-pinned when a cycle or a shuffle reply began to make one
        # promotion pass: the stabilised base ends with one node at 3 of 5
        # active slots (all full before), so a flood is 1 023 frames, not
        # 1 025.
        "e50027af07752b39766c2e9309d1757bdfd95a4e4c15abed3d59e27a32b0f409",
        {
            # One kernel event per flood fan-out, not per copy (was 196 800,
            # the frame count): the same frames, handlers and digest.
            "sim.engine.events_per_op": 49_152,
            "sim.network.sends_per_op": 196_416,
            "sim.network.delivered_per_op": 196_416,
            "sim.network.send_failures_per_op": 0,
            "gossip.transmissions_per_op": 196_416,
            "gossip.redundant_per_op": 147_456,
        },
    ),
    "sim_heal_episodes": (
        # Re-pinned when a cycle or a shuffle reply began to make one
        # promotion pass instead of ten timer-paced ones: events
        # 100 355 -> 56 288, frames 126 923 -> 98 344, and the same
        # dissemination (transmissions 72 148 -> 72 360).
        "2c9672742fc5cecbc0c19ba987b0604284d8231b577df5db26a3e00e3d77f6f4",
        {
            "sim.engine.events_per_op": 56_288,
            "sim.network.sends_per_op": 98_344,
            "sim.network.delivered_per_op": 98_330,
            "sim.network.send_failures_per_op": 14,
            "gossip.transmissions_per_op": 72_360,
            "gossip.redundant_per_op": 53_377,
        },
    ),
    "sim_reliable_zoned": (
        # Re-pinned for a learned per-peer retransmit timeout (RFC 6298 +
        # Karn) instead of a constant shorter than a cross-zone round trip:
        # retransmissions 35 614 -> 2 742 over the 24-op prefix.  Re-pinned
        # again when a rejecting NeighborReply became a reliable send, so 5 %
        # loss can no longer leave a promotion open forever: frames
        # 53 386 -> 54 069, retransmissions 2 742 -> 2 723, give-ups 1 -> 2;
        # the same 256 deliveries per op.  Re-pinned when a cycle or a
        # shuffle reply began to make one promotion pass: another stabilised
        # base, frames 54 069 -> 54 686, retransmissions 2 723 -> 2 686,
        # give-ups 2 -> 5.
        "26790c3ae337e3a666cbffe20b9116d20b2e62dffe90ca595a03040f8f859d03",
        {
            "sim.engine.events_per_op": 55_569,
            "sim.network.sends_per_op": 54_686,
            "sim.network.delivered_per_op": 52_039,
            "sim.network.dropped_loss_per_op": 2_647,
            "gossip.transmissions_per_op": 27_236,
            "gossip.redundant_per_op": 19_732,
            "gossip.reliable.acks_per_op": 24_545,
            "gossip.reliable.retransmissions_per_op": 2_686,
            "gossip.reliable.give_ups_per_op": 5,
        },
    ),
}


@pytest.fixture(scope="module")
def run():
    sys.path.insert(0, str(PERF))
    return importlib.import_module("run")


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed_1_simulates_exactly_what_it_did(run, name):
    spec = run.workloads()[name]
    result, detail = run.execute(spec, 1, 0.1, False)
    assert result["correct"] and result["failed"] == 0 and detail["problems"] == []
    digest, counters = PINNED[name]
    totals = {key: round(detail["exact"][key] * spec.exact_ops) for key in counters}
    assert totals == counters
    assert detail["sim_digest"] == digest


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_does_not_depend_on_the_hash_seed(name):
    """Each sim workload once more, in a fresh interpreter under another
    ``PYTHONHASHSEED``: set or dict order leaking into the simulation
    would move its digest off the pin."""
    foreign = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "spec = run.workloads()[sys.argv[2]]; "
        "_, detail = run.execute(spec, 1, 0.1, False); "
        "print(detail['sim_digest'])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(PERF), name],
        env={**os.environ, "PYTHONHASHSEED": foreign},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split()[-1] == PINNED[name][0]
