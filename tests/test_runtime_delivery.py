"""The unified delivery surface: counters and event-driven waits."""

from __future__ import annotations

import asyncio

from repro.common.ids import MessageId, NodeId
from repro.runtime.delivery import DeliveryLog, DeliveryRecord


def run(coroutine, timeout=10.0):
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


def record(node_port: int, message_seq: int, *, incarnation: int = 0, at: float = 0.0):
    return DeliveryRecord(
        node=NodeId("127.0.0.1", node_port),
        incarnation=incarnation,
        message_id=MessageId(NodeId("127.0.0.1", 9000), message_seq),
        payload=f"m{message_seq}",
        at=at,
    )


class TestCounters:
    def test_count_is_distinct_nodes(self):
        log = DeliveryLog()
        log.append(record(1, 7))
        log.append(record(2, 7))
        log.append(record(2, 7))  # duplicate delivery on the same node
        assert log.count(record(1, 7).message_id) == 2
        assert log.total() == 3
        assert log.count(record(1, 99).message_id) == 0

    def test_records_for_filters_node_and_incarnation(self):
        log = DeliveryLog()
        log.append(record(1, 7, incarnation=0))
        log.append(record(1, 8, incarnation=1))
        log.append(record(2, 7, incarnation=0))
        node = NodeId("127.0.0.1", 1)
        assert len(log.records_for(node)) == 2
        assert [r.incarnation for r in log.records_for(node, incarnation=1)] == [1]
        assert len(log.records_for(incarnation=0)) == 2


class TestWaitCount:
    def test_resolves_immediately_when_already_met(self):
        async def scenario():
            log = DeliveryLog()
            log.append(record(1, 7))
            assert await log.wait_count(record(1, 7).message_id, 1) == 1

        run(scenario())

    def test_resolves_when_threshold_crossed(self):
        async def scenario():
            log = DeliveryLog()
            message_id = record(1, 7).message_id

            async def feed():
                await asyncio.sleep(0.01)
                log.append(record(1, 7))
                log.append(record(2, 7))

            feeder = asyncio.create_task(feed())
            assert await log.wait_count(message_id, 2, timeout=5.0) == 2
            await feeder

        run(scenario())

    def test_timeout_returns_current_count(self):
        async def scenario():
            log = DeliveryLog()
            log.append(record(1, 7))
            count = await log.wait_count(record(1, 7).message_id, 5, timeout=0.05)
            assert count == 1
            assert log._waiters == []  # no leaked waiters after timeout

        run(scenario())
