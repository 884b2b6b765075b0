"""Pinned SHA-256 hashes of the smoke-tier ``BENCH_*.json`` artifacts.

These hashes were recorded from the PR-2 codebase (mixed-tuple heapq
kernel, full pickled ``random.Random`` snapshot state) and pin the
byte-identity acceptance criterion of the bucket-queue/compact-RNG
rework: the simulation substrate may change, the measured artifacts may
not — ever, by a single byte.

A cheap three-scenario subset runs in the regular suite; the full
fourteen-scenario paper-family sweep is slow-marked (a few minutes) and
runs with the slow tier of CI.
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
    "ablation_flood_resend": "0616d1c3325324cbc57254576a1df11331ac8ecd1290ec72deda9c2f3e2b5cc6",
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): average
    # at capacity 3 0.936 -> 0.840, at capacity 8 0.974 -> 0.840.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive),
    # and average_reliability, tail_reliability and
    # largest_component_fraction (read as average, series|tail and
    # final.largest_component); no value moves.
    "ablation_passive_size": "d5c4145480656528c32d777aa0000346499899c285111a1e68531df0f22803ad",
    "ablation_plumtree": "29ad4100ee07b4495e96f62528b909bdfed5db68d7052d4d128d982f667d8f5c",
    # One promotion pass per cycle or shuffle reply: recovery at shuffle TTL 1:
    # 1.000 -> 0.795; at TTL 6: 1.000 -> 0.987.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): recovery
    # at TTL 1 0.795 -> 1.000, at TTL 6 0.987 -> 0.994.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive),
    # and recovery_average (read as average); no value moves.
    "ablation_shuffle_ttl": "ae65d485150d263fa7e520422681d4f6dbaffd24f99f7729648a4c55695c5fc5",
    "fig1_hyparview_reference": "c8d7e26bcce14fe1b5ba2807334d2b5f547e78bc2988fcf0b5ea0ea680d9c928",
    "fig1a_cyclon_fanout": "ecd2e364928a0ebf6b4a7aad8857bf82e81934ad82aa62222b8338ef404f5333",
    "fig1b_scamp_fanout": "652cc0e5030789b9cb958a4bd7b0f4df9b3d20befbfc087547d89bfb2638487e",
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): average
    # cyclon 0.656 -> 0.700, scamp 0.478 -> 0.528.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig1c_failure50": "bace4e8c956f6387437da52502c36a5b299af72d35dc9e3deb66b34182f9bc1f",
    # One promotion pass per cycle or shuffle reply: hyparview/0.70 average
    # 0.719 -> 0.868; every other cell unchanged.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): hyparview/0.70
    # average 0.868 -> 1.000, cyclon/0.70 0.281 -> 0.149.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig2_reliability": "885803cca33a450dda8612b5d9c8c27c359aade65b693039237f53ee00a99824",
    # One promotion pass per cycle or shuffle reply: hyparview/0.70 average
    # 0.900 -> 0.884; every other cell unchanged.
    # Section 5.2 as a one-event fault plan (the plan's "crash" stream draws
    # the victims; the row gains phases, fault_stats, final, applied): hyparview/0.70
    # average 0.884 -> 0.811, cyclon-acked/0.70 0.605 -> 0.711.
    # One name per metric: the row drops failure_fraction (the cell key),
    # atomic (read as series|atomic) and correct_nodes (final.alive); no value moves.
    "fig3_recovery": "a8b11b091409e65b25f2a819125485609cb47f130e87808fe81e0d76ca3a0e5b",
    "fig4_healing": "5d915cce24b53bcc7caad3d881acc17a838253ced679ed91d59b5fb5808f98e2",
    "fig5_indegree": "34bda314256aa0b0667445eefbf7a0ac18dd924a91596d0eb7445ca66aaa1ce3",
    "overhead": "bdce9df4930b2b56d5e32b65d3c37345af1189f1ef1e880d005bf41453fb7a3b",
    # One promotion pass per cycle or shuffle reply: hyparview in-degree
    # minimum 3 -> 5 (every view full), clustering 0.052 -> 0.056.
    "table1_graph": "fca80442a76f70608288ab4d1a1e480b4a7311da81d02c7a2dc29d0510b7065d",
}

#: sha256 of the fault-injection family's smoke artifacts at root seed 42,
#: recorded when the ``repro.faults`` subsystem landed (PR 4).  These pin
#: the fault scenarios' determinism the same way the PR-2 hashes pin the
#: figure scenarios: any behavioural drift in the fault drivers, the link
#: rules or the adversary filters shows up here.
PR4_FAULT_SMOKE_SHA256 = {
    # One promotion pass per cycle or shuffle reply: hyparview frames dropped
    # by the adversary 68 -> 66.
    "faults_adversary": "1cff07fa2fc184b3dd053fa76fb9bbe9a280c43449e77c69535427d92fd3679a",
    # One promotion pass per cycle or shuffle reply: hyparview send failures 57
    # -> 49.
    "faults_cascade": "dc64351fab0454cab95ab4be035b7904cdeeb0243889fb924214f325aab6f834",
    # Re-pinned when a rejecting NeighborReply became a reliable send: two
    # rejections to dead requesters are send failures (13 -> 15) instead of
    # silent drops (dropped_dead 3 -> 1).
    # One promotion pass per cycle or shuffle reply: hyparview send failures 15
    # -> 9.
    "faults_churn_trace": "89d5f3669236265e63354a246524432acd6c9b9c5c33a6c1cdfd257741658bf3",
    # One promotion pass per cycle or shuffle reply: hyparview average 0.831 ->
    # 0.829, send failures 3 -> 0.
    "faults_flash_crowd": "11ffcead29d3df16ef26f67a2ea38a2f183d49ec287be875f3c55c8fccb63b45",
    # One promotion pass per cycle or shuffle reply: hyparview healed 0.966 ->
    # 0.938, symmetry 0.956 -> 0.929.
    "faults_partition_heal": "a4a8443f330871c87010ba7618f07d30690993de067bc42fdc67674610bc5b77",
    # Re-pinned in PR 22: exact timestamps, the quantised tick was deleted.
    "faults_wan_jitter": "cb6b5108db4b67201153898b3ac2a2eeb2f93e55c0616abfa9327f4f5980c12e",
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
    "reliable_churn": "b7545afb72a648ac5f1a05d35a1e300b805a0f21b63df761e2db512d6ae29e54",
    # retransmissions 948 -> 927, give-ups 4 -> 1
    # One promotion pass per cycle or shuffle reply: hyparview-reliable give-
    # ups 1 -> 0, symmetry 0.997 -> 1.000.
    "reliable_loss": "5c022cf3c35d281ceb06686120494b2201b9f91a6d828f37bfafd6d2fc27d6fb",
    # retransmissions 2 402 -> 2 292, give-ups 424 -> 428.  Re-pinned again
    # when a rejecting NeighborReply became a reliable send (loss no longer
    # drops it): retransmissions 655 -> 659, give-ups 43 -> 47 in the
    # hyparview-reliable cell, symmetry 0.959 -> 0.957.
    # One promotion pass per cycle or shuffle reply: hyparview-reliable give-
    # ups 47 -> 31, symmetry 0.957 -> 0.968.
    "reliable_stress": "c442e9917739022e367e06edd5813df33c520c3d68960b647826535030989829",
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
    "byz_adversary_fraction": "a1b8ec0319a4fcf1eca8659aa0da8e24198f251f098b57cbf9c1827fcdd4c4e3",
    # Re-pinned in PR 24 (learned retransmit timeout under the BRB phases):
    # retransmissions 836 -> 644, give-ups 0 -> 0.  The other two retransmit
    # nothing before or after and did not move.
    "byz_churn": "6eb34a8b03fd075949e8776bb0cdfa0a201e83167783b12af8f457a6d573607a",
    # One promotion pass per cycle or shuffle reply: hyparview-reliable
    # validated average 0.708 -> 0.707.
    "byz_equivocation": "1fe3c5e69eb22f918b5670218ab79ec2d693d00366013fae1293dde7293018d3",
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
    "topo_convergence": "9a13aea13333d8225d8f9f80181cefc83a62389ba21ed7add7bf7ad1f871c8ed",
    # Re-pinned when a rejecting NeighborReply became a reliable send: in
    # each churn cell one rejection to a dead requester is a send failure
    # instead of a silent drop.
    # One promotion pass per cycle or shuffle reply: churn average hyparview
    # 0.978 -> 0.981, hyparview-xbot 0.973 -> 0.979.
    "topo_latency": "dfe8fb4aaf64876634b2a6d1f90309108b53c8849a4dbcfd72deb83234d6662c",
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
    assert _hashes(("fig2_reliability",), traces=traces) == {
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
