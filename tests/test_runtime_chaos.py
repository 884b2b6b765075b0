"""ChaosController over real loopback TCP: the live half of the fault
vocabulary.

One time-bounded scenario per fault class: partitions block and heal,
crashes+restarts churn the cluster, adversaries silently drop repair
traffic, Byzantine senders corrupt payloads, degradation drops frames.
Small clusters, generous timeouts — these run in the 3.10-3.12 CI matrix,
so they must be robust on loaded runners, not statistically sharp.
"""

from __future__ import annotations

import asyncio

import pytest
from conftest import FrameLog, ignored_types

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.faults.adversary import LiveMisbehaviour
from repro.experiments.params import ExperimentParams
from repro.experiments.snapshots import stabilized_scenario
from repro.faults.chaos import ChaosController
from repro.faults.plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultPlan,
    MutationEvent,
    PartitionEvent,
    RestartEvent,
)
from repro.faults.sim import SimFaultDriver
from repro.runtime.cluster import LocalCluster
from repro.sim.network import LinkFaultRule

CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    neighbor_request_timeout=1.0,
    promotion_retry_delay=0.1,
    promotion_max_passes=10,
)


def run(coroutine, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


class TestControllerValidation:
    def test_time_scale_must_be_positive(self):
        cluster = LocalCluster(2, config=CONFIG)
        with pytest.raises(ConfigurationError, match="time_scale"):
            ChaosController(cluster, FaultPlan.empty(), time_scale=0)

    def test_duplicate_rate_is_refused(self):
        """The live transport cannot duplicate a frame, so a plan asking
        for it is refused rather than run weaker than it reads."""
        cluster = LocalCluster(2, config=CONFIG)
        plan = FaultPlan(events=(DegradeEvent(at=0.0, until=1.0, duplicate_rate=0.1),))
        with pytest.raises(ConfigurationError, match="duplicate"):
            ChaosController(cluster, plan)

    def test_empty_plan_is_a_noop(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            await cluster.start()
            try:
                controller = ChaosController(cluster, FaultPlan.empty())
                await controller.run()
                assert controller.applied == []
                message_id = cluster.nodes[0].broadcast()
                await asyncio.sleep(0.4)
                assert cluster.delivery_log.count(message_id) == 3
            finally:
                await cluster.stop()

        run(scenario())


class TestPartitionLive:
    def test_partition_blocks_and_heal_restores_delivery(self):
        async def scenario():
            cluster = LocalCluster(6, config=CONFIG, base_seed=11)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(
                        PartitionEvent(
                            at=0.0, weights=(0.5, 0.5), heal_at=0.8, rejoin=3
                        ),
                    ),
                    label="live-partition",
                )
                controller = ChaosController(cluster, plan, seed=3)
                chaos = asyncio.create_task(controller.run())
                await asyncio.sleep(0.3)  # mid-partition
                origin = cluster.alive_nodes()[0]
                mid_partition = origin.broadcast("split")
                await asyncio.sleep(0.4)
                partitioned_count = cluster.delivery_log.count(mid_partition)
                assert partitioned_count < 6  # the cut blocked someone
                await chaos
                await asyncio.sleep(1.0)  # let rejoin + repair settle
                origin = cluster.alive_nodes()[0]
                healed = origin.broadcast("healed")
                count = await cluster.wait_for_delivery(healed, 6, timeout=8.0)
                assert count == 6
                applied = [d for _t, d in controller.applied]
                assert any("heal" in d for d in applied)
            finally:
                await cluster.stop()

        run(scenario())


class TestChurnLive:
    def test_crash_and_flash_restart_recovers(self):
        async def scenario():
            cluster = LocalCluster(5, config=CONFIG, base_seed=21)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(
                        CrashEvent(at=0.0, fraction=0.4),
                        RestartEvent(at=0.6, fraction=1.0),
                    ),
                    label="live-churn",
                )
                ids = [node.node_id for node in cluster.nodes]
                controller = ChaosController(cluster, plan, seed=5)
                await controller.run()
                # Everyone is back: fresh processes on their predecessors'
                # ports, so the same NodeIds at the next incarnation.
                assert len(cluster.alive_nodes()) == 5
                assert [node.node_id for node in cluster.nodes] == ids
                assert sorted(node.incarnation for node in cluster.nodes) == [0, 0, 0, 1, 1]
                assert await cluster.wait_for_views(minimum=1, timeout=8.0)
                # Recovery, not instant convergence: repair may still be
                # stitching views, so probe until a flood reaches everyone.
                count = 0
                for _attempt in range(5):
                    origin = cluster.alive_nodes()[0]
                    message_id = origin.broadcast("recovered")
                    count = await cluster.wait_for_delivery(
                        message_id, 5, timeout=4.0
                    )
                    if count == 5:
                        break
                    await asyncio.sleep(0.5)
                assert count == 5
            finally:
                await cluster.stop()

        run(scenario())


class TestSamePortRestart:
    def test_restart_on_same_port_exercises_stale_identity(self):
        """A crashed node's replacement binds the *same* address, so
        peers still holding the old NodeId in their views dial a fresh
        incarnation with none of the old protocol state — the path the
        simulator models via SimNode.reset but the live runtime never
        saw before reuse_port."""

        async def scenario():
            cluster = LocalCluster(4, config=CONFIG, base_seed=61)
            await cluster.start()
            try:
                victim = cluster.nodes[2]
                old_id = victim.node_id
                # Make sure somebody actually holds the victim in a view.
                assert any(
                    old_id in node.active_view()
                    for node in cluster.nodes
                    if node is not victim
                )
                await cluster.nodes[2].crash()
                await asyncio.sleep(0.2)
                reborn = await cluster.restart_node(2, reuse_port=True)
                # Same identity, fresh process: no delivered history, no
                # protocol state inherited from the predecessor.
                assert reborn.node_id == old_id
                assert reborn is not victim
                assert reborn.delivered == []
                # Old peers (stale views) plus the rejoin stitch the new
                # incarnation back in; a flood must reach all four nodes.
                assert await cluster.wait_for_views(minimum=1, timeout=8.0)
                count = 0
                for _attempt in range(5):
                    origin = cluster.alive_nodes()[0]
                    message_id = origin.broadcast("stale-identity")
                    count = await cluster.wait_for_delivery(
                        message_id, 4, timeout=4.0
                    )
                    if count == 4:
                        break
                    await asyncio.sleep(0.5)
                assert count == 4
            finally:
                await cluster.stop()

        run(scenario())

    def test_reuse_port_requires_a_previously_bound_node(self):
        cluster = LocalCluster(2, config=CONFIG)

        async def scenario():
            with pytest.raises(ConfigurationError, match="never bound"):
                await cluster.restart_node(0, reuse_port=True)

        run(scenario())


class TestAdversaryAndDegradeLive:
    def test_adversary_nodes_drop_shuffles_then_recover(self):
        async def scenario():
            cluster = LocalCluster(4, config=CONFIG, base_seed=31)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(
                        AdversaryEvent(
                            at=0.0, fraction=0.5,
                            drop_types=("Shuffle", "ShuffleReply"),
                            until=0.5,
                        ),
                    ),
                    label="live-adversary",
                )
                controller = ChaosController(cluster, plan, seed=9)
                await controller.run()
                # Honesty restored on every node after `until`.
                assert all(not ignored_types(node) for node in cluster.alive_nodes())
                # Broadcast traffic still flows (GossipData is not dropped).
                message_id = cluster.nodes[0].broadcast()
                await asyncio.sleep(0.5)
                assert cluster.delivery_log.count(message_id) == 4
            finally:
                await cluster.stop()

        run(scenario())

    def test_overlapping_adversary_windows_are_independent(self):
        """One window expiring must not end another still-open window
        early: going honest reverts only that event's victims/types."""

        async def scenario():
            cluster = LocalCluster(4, config=CONFIG, base_seed=51)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(
                        AdversaryEvent(
                            at=0.0, fraction=1.0,
                            drop_types=("Shuffle",), until=0.3,
                        ),
                        AdversaryEvent(
                            at=0.1, fraction=1.0,
                            drop_types=("ForwardJoin",), until=0.9,
                        ),
                    ),
                    label="live-overlap",
                )
                controller = ChaosController(cluster, plan, seed=17)
                chaos = asyncio.create_task(controller.run())
                await asyncio.sleep(0.6)  # first window over, second open
                drops = [ignored_types(node) for node in cluster.alive_nodes()]
                assert all("Shuffle" not in d for d in drops)
                assert any("ForwardJoin" in d for d in drops)
                await chaos
                assert all(not ignored_types(node) for node in cluster.alive_nodes())
            finally:
                await cluster.stop()

        run(scenario())

    def test_mutation_plan_corrupts_relayed_payloads(self):
        """Every node corrupts its GossipData sends: receivers log
        ``("byz", ...)`` payloads, and equivocation hands two destinations
        two different values."""

        async def scenario():
            cluster = LocalCluster(4, config=CONFIG, base_seed=71)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(MutationEvent(at=0.0, fraction=1.0, equivocate=True),),
                    label="live-equivocation",
                )
                controller = ChaosController(cluster, plan, seed=19)
                await controller.run()
                origin = cluster.nodes[0]
                message_id = origin.broadcast("clean")
                assert await cluster.wait_for_delivery(message_id, 4, timeout=8.0) == 4
                received = [
                    record.payload
                    for record in cluster.delivery_log.records
                    if record.message_id == message_id and record.node != origin.node_id
                ]
                assert len(received) == 3
                assert all(payload[0] == "byz" for payload in received)
                assert len(set(received)) > 1
                assert controller.misbehaviour.equivocated_byz >= 3
            finally:
                await cluster.stop()

        run(scenario())

    def test_traced_run_records_drops_and_corrupted_sends(self):
        """The live twin of the simulator's traced run: an ignored
        GossipData records ``drop-adversary``, a corrupted one ``send`` then
        ``mutate-byz``."""

        async def scenario():
            cluster = LocalCluster(3, config=CONFIG, base_seed=81)
            await cluster.start()
            try:
                log = FrameLog()
                for node in cluster.nodes:
                    node.transport.trace = log
                origin, deaf = cluster.nodes[0], cluster.nodes[1]
                hosts = LiveMisbehaviour(lambda: None)
                hosts.apply(MutationEvent(at=0.0, count=1, target_types=("GossipData",)), [origin])
                hosts.apply(AdversaryEvent(at=0.0, count=1, drop_types=("GossipData",)), [deaf])
                message_id = origin.broadcast("traced")
                await cluster.wait_for_delivery(message_id, 2, timeout=8.0)
                await asyncio.sleep(0.2)
                kinds = [frame.kind for frame in log if frame.message_type == "GossipData"]
                assert kinds[:2] == ["send", "mutate-byz"]
                assert kinds.count("mutate-byz") == hosts.mutated_byz > 0
                assert kinds.count("drop-adversary") == hosts.dropped_adversary > 0
                assert deaf.delivered == []
            finally:
                await cluster.stop()

        run(scenario())

    def test_degraded_links_drop_frames(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG, base_seed=41)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(DegradeEvent(at=0.0, until=0.6, loss_rate=0.9),),
                    label="live-degrade",
                )
                controller = ChaosController(cluster, plan, seed=13)
                chaos = asyncio.create_task(controller.run())
                await asyncio.sleep(0.1)
                for _ in range(5):
                    cluster.alive_nodes()[0].broadcast("lossy")
                    await asyncio.sleep(0.05)
                await chaos
                faulted = sum(
                    node.transport.frames_faulted for node in cluster.alive_nodes()
                )
                assert faulted > 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_degrade_selects_the_sim_rules_links(self):
        """A DegradeEvent is the simulator's own LinkFaultRule: only the
        links ``rule.applies`` selects are degraded."""

        async def scenario():
            cluster = LocalCluster(4, config=CONFIG, base_seed=91)
            await cluster.start()
            try:
                plan = FaultPlan(
                    events=(
                        DegradeEvent(
                            at=0.0, until=60.0, jitter=(0.01, 0.01), link_fraction=0.5
                        ),
                    ),
                    label="live-links",
                )
                controller = ChaosController(cluster, plan, seed=23)
                await controller.run()  # returns once the rule is open
                (rule,) = controller._rules
                assert isinstance(rule, LinkFaultRule)
                ids = [node.node_id for node in cluster.nodes]
                links = [(src, dst) for src in ids for dst in ids if src != dst]
                selected = [link for link in links if rule.applies(*link)]
                assert 0 < len(selected) < len(links)
                for link in links:
                    assert (controller._verdict(*link) is not None) == (link in selected)
            finally:
                await cluster.stop()

        run(scenario())


class TestSimLiveAgreement:
    def test_one_plan_logs_the_same_applied_lines_on_both_substrates(self):
        """The plan half of the sim<->live differential: one plan read by
        SimFaultDriver on an 8-node Scenario and by ChaosController on an
        8-node LocalCluster logs the same ``applied`` descriptions."""
        plan = FaultPlan(
            events=(
                CrashEvent(at=0.1, fraction=0.9),
                RestartEvent(at=0.3, fraction=1.0),
                PartitionEvent(at=0.5, weights=(0.5, 0.5), heal_at=0.7, rejoin=2),
                AdversaryEvent(at=0.8, fraction=0.5, until=1.0),
            ),
            label="agreement",
        )
        params = ExperimentParams.scaled(8, seed=5, stabilization_cycles=3)
        scenario = stabilized_scenario("hyparview", params)
        driver = SimFaultDriver(scenario, plan)
        driver.install()
        scenario.engine.run_until(scenario.engine.now + plan.horizon + 0.1)

        async def live():
            cluster = LocalCluster(8, config=CONFIG, base_seed=101)
            await cluster.start()
            try:
                controller = ChaosController(cluster, plan, time_scale=0.5, seed=7)
                await controller.run()
                return controller.applied
            finally:
                await cluster.stop()

        sim_lines = [description for _at, description in driver.applied]
        live_lines = [description for _at, description in run(live())]
        assert sim_lines == live_lines
        assert len(sim_lines) == 7
        assert sim_lines[0].endswith("-> 7 crashed")
        assert sim_lines[1].endswith("-> 7 restarted")
