"""Pinned SHA-256 hashes of the smoke-tier ``BENCH_*.json`` artifacts.

These hashes were recorded from the PR-2 codebase (mixed-tuple heapq
kernel, full pickled ``random.Random`` snapshot state) and pin the
byte-identity acceptance criterion of the bucket-queue/compact-RNG
rework: the simulation substrate may change, the measured artifacts may
not — ever, by a single byte.

A cheap three-scenario subset runs in the regular suite; the full
fourteen-scenario paper-family sweep is slow-marked (a few minutes) and
runs with the slow tier of CI.

All 28 were re-pinned when the artifact's ``config.paper_params`` key
(false in every smoke artifact) was dropped: every other byte is unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.reporting import encode_artifact
from repro.experiments.runner import run_scenarios

#: sha256 of every smoke-tier artifact at root seed 42, recorded at PR 2.
PR2_SMOKE_SHA256 = {
    # One promotion pass per cycle or shuffle reply: flood reliability at 60 %
    # crashed: 0.947 -> 0.990 without resend, 1.000 -> 0.990 with it.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): average
    # 0.990 -> 0.870 without resend, 0.990 -> 0.875 with it.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive),
    # and average_reliability and first10_average (read as average and
    # series|head); no value moves.
    "ablation_flood_resend": "d91ccda78f98ef9d220f309e3ee77fd33be92786e06f1fa02aef4ec07f6d1e41",
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): average
    # at capacity 3 0.936 -> 0.840, at capacity 8 0.974 -> 0.840.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive),
    # and average_reliability, tail_reliability and
    # largest_component_fraction (read as average, series|tail and
    # final.largest_component); no value moves.
    "ablation_passive_size": "5aec7ed5f4e0c4e160a89ef677aea59d5c706250ae4416951b2dfb6ac762e7bf",
    "ablation_plumtree": "d5c6c65e2d5ab7bd256cad9cae2244539c5e95ca85262efa5182093404e26971",
    # One promotion pass per cycle or shuffle reply: recovery at shuffle TTL 1:
    # 1.000 -> 0.795; at TTL 6: 1.000 -> 0.987.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): recovery
    # at TTL 1 0.795 -> 1.000, at TTL 6 0.987 -> 0.994.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive),
    # and recovery_average (read as average); no value moves.
    "ablation_shuffle_ttl": "1bc670b68dc5d43786efa6584dce6563bb1b182cbf3658b7aa5ff0c02f90b371",
    "fig1_hyparview_reference": "0913e098136c416e14d80c3328b27fd3ba63ed49fd8adc41cce1ddf10be2d1bf",
    "fig1a_cyclon_fanout": "bfb3522cc70d02ce648ce5c9751d5f62b28560cad81876912cac2d09d54f3e39",
    "fig1b_scamp_fanout": "0384056d3302dfdae52b3eafc848b363cdbfdcf8a2883195234c03deb938a522",
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): average
    # cyclon 0.656 -> 0.700, scamp 0.478 -> 0.528.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig1c_failure50": "b536c622336e2837ccf8775900973224d696c212dec5378a839083fe904f165e",
    # One promotion pass per cycle or shuffle reply: hyparview/0.70 average
    # 0.719 -> 0.868; every other cell unchanged.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): hyparview/0.70
    # average 0.868 -> 1.000, cyclon/0.70 0.281 -> 0.149.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig2_reliability": "393f41f500506e4407180bb43de02d32d68fb4cb1af46224761a6e8ac0f5d7e9",
    # One promotion pass per cycle or shuffle reply: hyparview/0.70 average
    # 0.900 -> 0.884; every other cell unchanged.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): hyparview/0.70
    # average 0.884 -> 0.811, cyclon-acked/0.70 0.605 -> 0.711.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig3_recovery": "6e498476a9bad1813beba3eb108b699c8f5118574b25c8f5db2c0048c1d40798",
    "fig4_healing": "fc67ba1e174f230c87b126c374f641ee0eedfa45235705574da5e76adf7c1fbe",
    "fig5_indegree": "ff2c3ab2219c65f9d19e306df58ff97916ce5a1a45f1f57a6e174521506d7587",
    "overhead": "d251ff3bb52b7c08d53d01a51eebdeaef7b74018862da59a4d5d9476fa464cdc",
    # One promotion pass per cycle or shuffle reply: hyparview in-degree
    # minimum 3 -> 5 (every view full), clustering 0.052 -> 0.056.
    "table1_graph": "f4dde3300c81d16e4dd438e00db33a7e9e13ce865718fee8b5d65b7f16083466",
}

#: sha256 of the fault-injection family's smoke artifacts at root seed 42,
#: recorded when the ``repro.faults`` subsystem landed (PR 4).  These pin
#: the fault scenarios' determinism the same way the PR-2 hashes pin the
#: figure scenarios: any behavioural drift in the fault drivers, the link
#: rules or the adversary filters shows up here.
PR4_FAULT_SMOKE_SHA256 = {
    # One promotion pass per cycle or shuffle reply: hyparview frames dropped
    # by the adversary 68 -> 66.
    "faults_adversary": "e1a3ef7c15def43f6548179c6466c910ca78dbea7e9700b550d681c8dad27203",
    # One promotion pass per cycle or shuffle reply: hyparview send failures 57
    # -> 49.
    "faults_cascade": "aeeb25adf3dd4c9be271bda45ae0a2585511322c44bef246dbdb92de6502afbf",
    # Re-pinned when a rejecting NeighborReply became a reliable send: two
    # rejections to dead requesters are send failures (13 -> 15) instead of
    # silent drops (dropped_dead 3 -> 1).
    # One promotion pass per cycle or shuffle reply: hyparview send failures 15
    # -> 9.
    "faults_churn_trace": "ea779bd54b1ac36e79e33ca9b85ed518ed9248635ce2d07b9368447426bc128f",
    # One promotion pass per cycle or shuffle reply: hyparview average 0.831 ->
    # 0.829, send failures 3 -> 0.
    "faults_flash_crowd": "3dae01fb6f5dddfa251a9508ebc98220edf6a5cf36161515e46c1d2320b6f213",
    # One promotion pass per cycle or shuffle reply: hyparview healed 0.966 ->
    # 0.938, symmetry 0.956 -> 0.929.
    "faults_partition_heal": "6d72b15fa80d45f4b9ee8b4a53ca3b2dc1fae19b9a919b6092b79f8e3c0d2db2",
    # Re-pinned in PR 22: exact timestamps, the quantised tick was deleted.
    "faults_wan_jitter": "313e8ef68de021c9c181cda8364df4474b39e468bfbfece740fdbc962b052ce5",
}

#: sha256 of the reliable-delivery family's smoke artifacts at root seed
#: 42, recorded when the ack+retransmit stacks landed (PR 5).  They pin
#: the reliable gossip layer, the firing order of timers against message
#: events, and the fault plans the scenarios replay.
#: All three re-pinned in PR 24: the retransmit timeout is learned per
#: peer (RFC 6298 + Karn's rule, ``ack_timeout`` the floor) instead of a
#: constant.  On these constant-latency scenarios a first clean sample puts
#: a peer's timeout at 0.06 s before it settles back on the 0.05 s floor,
#: and a lossy link keeps its backed-off timeout until a clean ack.
PR5_RELIABLE_SMOKE_SHA256 = {
    # retransmissions 107 -> 106, give-ups 0 -> 0
    # One promotion pass per cycle or shuffle reply: hyparview-reliable average
    # 0.986 -> 0.982.
    "reliable_churn": "f4c6c5bbc500e834165315795e62652f5e0b53ee5a5fd051cbc266aa95f49659",
    # retransmissions 948 -> 927, give-ups 4 -> 1
    # One promotion pass per cycle or shuffle reply: hyparview-reliable give-
    # ups 1 -> 0, symmetry 0.997 -> 1.000.
    "reliable_loss": "85ebe0c1374dedc8a2671169c87fbf71cbcc02ecdfaa886ae74dc59c81ac6e34",
    # retransmissions 2 402 -> 2 292, give-ups 424 -> 428.  Re-pinned again
    # when a rejecting NeighborReply became a reliable send (loss no longer
    # drops it): retransmissions 655 -> 659, give-ups 43 -> 47 in the
    # hyparview-reliable cell, symmetry 0.959 -> 0.957.
    # One promotion pass per cycle or shuffle reply: hyparview-reliable give-
    # ups 47 -> 31, symmetry 0.957 -> 0.968.
    "reliable_stress": "ac26d764df68f936749c968b1ae494fdb7d60b9eb5f9f8f6cce60e5a0ebee2da",
}

#: sha256 of the Byzantine-broadcast family's smoke artifacts at root
#: seed 42, recorded when the BRB layer landed (PR 7).  They pin the
#: SEND→ECHO→READY quorum machinery, the sampled-mode RNG draws, the
#: Byzantine sender hooks (mutation/equivocation) and the value-judged
#: measurement pipeline.
PR7_BYZ_SMOKE_SHA256 = {
    # All three re-pinned when the unused colluding-set fault kind was
    # deleted: ``fault_stats`` lost its always-zero ``dropped_*`` key for
    # it.  Every other byte is unchanged.
    # One promotion pass per cycle or shuffle reply: hyparview-reliable
    # validated average at 30 % Byzantine 0.638 -> 0.624.
    "byz_adversary_fraction": "eadcbcd8f0f7531344ff5b6e7ed49b6fe20677b5bc7fca1f3f008a9a4013d310",
    # Re-pinned in PR 24 (learned retransmit timeout under the BRB phases):
    # retransmissions 836 -> 644, give-ups 0 -> 0.  The other two retransmit
    # nothing before or after and did not move.
    "byz_churn": "e4ea20b7def3be3e408dfad8931e10320fbde3681349c0c0b5d1095851a3b2a2",
    # One promotion pass per cycle or shuffle reply: hyparview-reliable
    # validated average 0.708 -> 0.707.
    "byz_equivocation": "f9f9e7b354daea3264ea5812c59d4eec412be4474227a5e921c96a54773d1d56",
}

#: sha256 of the topology family's smoke artifacts at root seed 42,
#: recorded when X-BOT and the zoned RTT world model landed (PR 10).
#: They pin the zone assignment and pair-base RTT draws, the oracle's
#: jitter-free link pricing and the 4-node swap state machine's message
#: order under continuous per-hop jitter.  Both re-pinned in PR 22: exact
#: timestamps, the quantised tick they ran on was deleted.
PR10_TOPO_SMOKE_SHA256 = {
    # One promotion pass per cycle or shuffle reply: final link cost hyparview
    # 0.0692 -> 0.0685, hyparview-xbot 0.0396 -> 0.0395.
    "topo_convergence": "de34c8cd3a2da2ba237c9e3467f6912ea328b92f7185a21d526c4c1909ef80e9",
    # Re-pinned when a rejecting NeighborReply became a reliable send: in
    # each churn cell one rejection to a dead requester is a send failure
    # instead of a silent drop.
    # One promotion pass per cycle or shuffle reply: churn average hyparview
    # 0.978 -> 0.981, hyparview-xbot 0.973 -> 0.979.
    "topo_latency": "3540c9a47cdc6ae1efa6af082a424685ecbbc7414026d8b27dbd9118c5d9f473",
}

#: Scenarios cheap enough to pin on every test run (seconds, not minutes).
FAST_SUBSET = ("fig1_hyparview_reference", "fig1c_failure50", "ablation_flood_resend")

#: The cheap fault-scenario pins that run in the regular suite.
FAST_FAULT_SUBSET = ("faults_partition_heal", "faults_wan_jitter")

#: The reliable-delivery pin that runs in the regular suite.
FAST_RELIABLE_SUBSET = ("reliable_loss",)

#: The cheap Byzantine pin that runs in the regular suite (two cells).
FAST_BYZ_SUBSET = ("byz_equivocation",)

#: The cheap topology pin that runs in the regular suite (two cells).
FAST_TOPO_SUBSET = ("topo_convergence",)


def _hashes(scenario_ids, **overrides) -> dict[str, str]:
    runs = run_scenarios(list(scenario_ids), "smoke", workers=1, **overrides)
    return {
        scenario_id: hashlib.sha256(encode_artifact(run.artifact()).encode()).hexdigest()
        for scenario_id, run in runs.items()
    }


def test_fast_subset_matches_pr2_artifacts():
    assert _hashes(FAST_SUBSET) == {k: PR2_SMOKE_SHA256[k] for k in FAST_SUBSET}


def test_fast_fault_subset_matches_pr4_artifacts():
    assert _hashes(FAST_FAULT_SUBSET) == {
        k: PR4_FAULT_SMOKE_SHA256[k] for k in FAST_FAULT_SUBSET
    }


def test_fast_reliable_subset_matches_pr5_artifacts():
    assert _hashes(FAST_RELIABLE_SUBSET) == {
        k: PR5_RELIABLE_SMOKE_SHA256[k] for k in FAST_RELIABLE_SUBSET
    }


def test_fast_byz_subset_matches_pr7_artifacts():
    assert _hashes(FAST_BYZ_SUBSET) == {
        k: PR7_BYZ_SMOKE_SHA256[k] for k in FAST_BYZ_SUBSET
    }


def test_fast_topo_subset_matches_pr10_artifacts():
    assert _hashes(FAST_TOPO_SUBSET) == {
        k: PR10_TOPO_SMOKE_SHA256[k] for k in FAST_TOPO_SUBSET
    }


def test_tracing_on_fig2_matches_pin():
    # Dissemination tracing (PR 9) is a pure observer: running fig2 with
    # the collector active must hash to the same PR-2 value — tracing can
    # never perturb a benchmark artifact byte or an RNG draw.
    traces: dict[str, list] = {}
    assert _hashes(("fig2_reliability",), trace_sink=traces.__setitem__) == {
        "fig2_reliability": PR2_SMOKE_SHA256["fig2_reliability"]
    }
    assert any(entry["segments"] for entry in traces["fig2_reliability"])


@pytest.mark.slow
def test_all_paper_family_smoke_artifacts_match_pr2():
    assert _hashes(PR2_SMOKE_SHA256) == PR2_SMOKE_SHA256


@pytest.mark.slow
def test_all_fault_smoke_artifacts_match_pr4():
    assert _hashes(PR4_FAULT_SMOKE_SHA256) == PR4_FAULT_SMOKE_SHA256


@pytest.mark.slow
def test_all_reliable_smoke_artifacts_match_pr5():
    assert _hashes(PR5_RELIABLE_SMOKE_SHA256) == PR5_RELIABLE_SMOKE_SHA256


@pytest.mark.slow
def test_all_byz_smoke_artifacts_match_pr7():
    assert _hashes(PR7_BYZ_SMOKE_SHA256) == PR7_BYZ_SMOKE_SHA256


@pytest.mark.slow
def test_all_topo_smoke_artifacts_match_pr10():
    assert _hashes(PR10_TOPO_SMOKE_SHA256) == PR10_TOPO_SMOKE_SHA256
