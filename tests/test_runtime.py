"""Integration tests for the asyncio TCP runtime.

These run real loopback sockets: a handful of nodes, generous timeouts.
The point is that the *identical* protocol code behaves over TCP as it
does in the simulator: joins build symmetric views, floods deliver to
everyone, crashed peers are detected through connection resets and
replaced from passive views.
"""

import asyncio

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import HyParViewConfig
from repro.protocols.registry import runtime_stack_names
from repro.runtime.cluster import QUIET_TIMEOUT, LocalCluster
from repro.runtime.node import RuntimeNode

CONFIG = HyParViewConfig(
    active_view_capacity=3,
    passive_view_capacity=8,
    arwl=3,
    prwl=2,
    neighbor_request_timeout=1.0,
    promotion_retry_delay=0.1,
    promotion_max_passes=10,
)


def run(coroutine, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


class TestNodeLifecycle:
    def test_start_assigns_real_port(self):
        async def scenario():
            node = RuntimeNode(config=CONFIG)
            identity = await node.start()
            assert identity.port != 0
            await node.stop()

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            node = RuntimeNode(config=CONFIG)
            await node.start()
            with pytest.raises(ConfigurationError):
                await node.start()
            await node.stop()

        run(scenario())

    def test_operations_before_start_rejected(self):
        node = RuntimeNode(config=CONFIG)
        with pytest.raises(ConfigurationError):
            node.broadcast("x")

    def test_unknown_broadcast_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeNode(protocol="smoke-signals")


class TestJoinAndViews:
    def test_pairwise_join_builds_symmetric_link(self):
        async def scenario():
            a = RuntimeNode(config=CONFIG, seed=1)
            b = RuntimeNode(config=CONFIG, seed=2)
            await a.start()
            await b.start()
            b.join(a.node_id)
            for _ in range(100):
                if a.node_id in b.active_view() and b.node_id in a.active_view():
                    break
                await asyncio.sleep(0.05)
            assert a.node_id in b.active_view()
            assert b.node_id in a.active_view()
            await a.stop()
            await b.stop()

        run(scenario())

    def test_cluster_views_populated(self):
        async def scenario():
            cluster = LocalCluster(6, config=CONFIG)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(minimum=1, timeout=10.0)
            finally:
                await cluster.stop()

        run(scenario())


class TestQuietStart:
    def test_start_returns_with_every_join_landed(self):
        async def scenario():
            cluster = LocalCluster(8, config=CONFIG)
            await cluster.start()
            try:
                transports = [node.transport for node in cluster.nodes]
                assert all(transport.idle for transport in transports)
                assert sum(t.frames_sent for t in transports) == sum(
                    t.frames_received for t in transports
                )
                assert all(node.active_view() for node in cluster.nodes)
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_frame_that_never_lands_ends_each_wait_at_its_cap(self):
        async def scenario():
            cluster = LocalCluster(3, config=CONFIG)
            held = cluster.nodes[1]
            join = held.join

            def join_held(contact):
                # Every frame node 1 sends is held far longer than the cap.
                held.transport.fault_injector = lambda dst, message: (
                    None if message is None else 60.0
                )
                join(contact)

            held.join = join_held
            loop = asyncio.get_running_loop()
            began = loop.time()
            await cluster.start()
            try:
                assert not held.transport.idle
                # One capped wait after each of the two joins.
                assert 2 * QUIET_TIMEOUT <= loop.time() - began < 2 * QUIET_TIMEOUT + 2.0
            finally:
                await cluster.stop()

        run(scenario())


class TestBroadcast:
    @pytest.mark.parametrize("protocol", runtime_stack_names())
    def test_flood_reaches_all_nodes(self, protocol):
        async def scenario():
            cluster = LocalCluster(5, config=CONFIG, protocol=protocol)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(minimum=1, timeout=10.0)
                message_id = cluster.nodes[1].broadcast({"value": 42})
                count = await cluster.wait_for_delivery(message_id, expected=5, timeout=10.0)
                assert count == 5
                payloads = {
                    tuple(sorted(p.items()))
                    for node in cluster.nodes
                    for mid, p in node.delivered
                    if mid == message_id
                }
                assert payloads == {(("value", 42),)}
            finally:
                await cluster.stop()

        run(scenario())


@pytest.mark.slow
class TestFailureDetectionOverTcp:
    def test_crash_detected_and_views_cleaned(self):
        async def scenario():
            cluster = LocalCluster(6, config=CONFIG)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(minimum=1, timeout=10.0)
                victim = cluster.nodes[3]
                victim_id = victim.node_id
                await victim.crash()  # abrupt: no DISCONNECTs sent
                deadline = asyncio.get_running_loop().time() + 10.0
                while asyncio.get_running_loop().time() < deadline:
                    holders = [
                        node
                        for node in cluster.nodes
                        if node is not victim and victim_id in node.active_view()
                    ]
                    if not holders:
                        break
                    await asyncio.sleep(0.1)
                assert not holders
                # The overlay still delivers after the repair.
                message_id = cluster.nodes[0].broadcast("post-crash")
                count = await cluster.wait_for_delivery(message_id, expected=5, timeout=10.0)
                assert count >= 5
            finally:
                for node in cluster.nodes:
                    await node.stop()

        run(scenario())

    def test_graceful_leave_sends_disconnects(self):
        async def scenario():
            cluster = LocalCluster(5, config=CONFIG)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(minimum=1, timeout=10.0)
                leaver = cluster.nodes[2]
                leaver_id = leaver.node_id
                await leaver.stop()
                await asyncio.sleep(1.0)
                for node in cluster.nodes:
                    if node is not leaver:
                        assert leaver_id not in node.active_view()
            finally:
                for node in cluster.nodes:
                    await node.stop()

        run(scenario())


@pytest.mark.slow
class TestSelfDrivenCycles:
    def test_periodic_shuffles_populate_passive_views_over_tcp(self):
        async def scenario():
            config = HyParViewConfig(
                active_view_capacity=3,
                passive_view_capacity=8,
                arwl=3,
                prwl=2,
                shuffle_period=0.3,
                neighbor_request_timeout=1.0,
                promotion_retry_delay=0.1,
                promotion_max_passes=5,
            )
            cluster = LocalCluster(6, config=config)
            await cluster.start()
            try:
                assert await cluster.wait_for_views(minimum=1, timeout=10.0)
                for node in cluster.nodes:
                    node.start_cycles()
                deadline = asyncio.get_running_loop().time() + 10.0
                while asyncio.get_running_loop().time() < deadline:
                    sizes = [len(node.passive_view()) for node in cluster.nodes]
                    if all(size >= 2 for size in sizes):
                        break
                    await asyncio.sleep(0.2)
                assert all(len(node.passive_view()) >= 2 for node in cluster.nodes)
            finally:
                await cluster.stop()

        run(scenario())
