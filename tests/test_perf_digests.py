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
import pathlib
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

#: workload -> (sim_digest, counters summed over the exact prefix)
PINNED = {
    "sim_flood_stable": (
        "0f9949073c8468fa55cc42975dd3c3574d717bc32711627dbfbe367868f2ef1e",
        {
            "sim.engine.events_per_op": 196_800,
            "sim.network.sends_per_op": 196_800,
            "sim.network.delivered_per_op": 196_800,
            "sim.network.send_failures_per_op": 0,
            "gossip.transmissions_per_op": 196_800,
            "gossip.redundant_per_op": 147_840,
        },
    ),
    "sim_heal_episodes": (
        "9faaa6d3b18273655e4852af8de13d649a8b7832a5f87364f86325dd1423af42",
        {
            "sim.engine.events_per_op": 153_559,
            "sim.network.sends_per_op": 126_923,
            "sim.network.delivered_per_op": 126_909,
            "sim.network.send_failures_per_op": 14,
            "gossip.transmissions_per_op": 72_148,
            "gossip.redundant_per_op": 53_243,
        },
    ),
    "sim_reliable_zoned": (
        # Re-pinned in PR 22: the parent's timer wheel dropped roughly one
        # live retransmit timer per op (35 593 retransmissions then).
        "287e132b6f985adeb98d9a5c79df6b2bc39e09aa1206549e2d0fdaad4c920a41",
        {
            "sim.engine.events_per_op": 147_121,
            "sim.network.sends_per_op": 117_340,
            "sim.network.delivered_per_op": 111_501,
            "sim.network.dropped_loss_per_op": 5_839,
            "gossip.transmissions_per_op": 60_185,
            "gossip.redundant_per_op": 51_025,
            "gossip.reliable.acks_per_op": 24_570,
            # 1 484 spurious copies per broadcast: ROADMAP item 1.
            "gossip.reliable.retransmissions_per_op": 35_614,
            "gossip.reliable.give_ups_per_op": 1,
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
