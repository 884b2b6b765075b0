"""ChaosController over real loopback TCP: the live half of the fault
vocabulary.

One time-bounded scenario per fault class: partitions block and heal,
crashes+restarts churn the cluster, adversaries silently drop repair
traffic, degradation drops frames.  Small clusters, generous timeouts —
these run in the 3.10-3.12 CI matrix, so they must be robust on loaded
runners, not statistically sharp.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.faults.chaos import ChaosController
from repro.faults.plan import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultPlan,
    PartitionEvent,
    RestartEvent,
)
from repro.runtime.cluster import LocalCluster

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
                assert cluster.delivery_count(message_id) == 3
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
                partitioned_count = cluster.delivery_count(mid_partition)
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
                controller = ChaosController(cluster, plan, seed=5)
                await controller.run()
                # Everyone is back (fresh processes on fresh ports).
                assert len(cluster.alive_nodes()) == 5
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
                assert all(
                    not node.drop_message_types for node in cluster.alive_nodes()
                )
                # Broadcast traffic still flows (GossipData is not dropped).
                message_id = cluster.nodes[0].broadcast()
                await asyncio.sleep(0.5)
                assert cluster.delivery_count(message_id) == 4
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
                drops = [set(n.drop_message_types) for n in cluster.alive_nodes()]
                assert all("Shuffle" not in d for d in drops)
                assert any("ForwardJoin" in d for d in drops)
                await chaos
                assert all(
                    not node.drop_message_types for node in cluster.alive_nodes()
                )
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
