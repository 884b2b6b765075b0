"""The guarded-exchange slot under HyParView's promotion and X-BOT's swap
legs: open with a key, close on the reply, expire once on the timer."""

import pytest

from repro.common.errors import ProtocolError
from repro.core.exchange import Exchange
from repro.experiments import ExperimentParams, Scenario
from repro.testing import check_no_open_exchange


def slot(world, timeouts):
    host = world.new_node().host("membership")
    return Exchange("test", host, timeouts.append)


def test_expiry_fires_once_with_the_key(world):
    timeouts = []
    exchange = slot(world, timeouts)
    exchange.open(("a", "b"), 1.0)
    world.drain()
    assert timeouts == [("a", "b")]
    assert exchange.key is None
    world.drain()
    assert timeouts == [("a", "b")]


def test_close_after_expiry_is_a_no_op(world):
    timeouts = []
    exchange = slot(world, timeouts)
    exchange.open("peer", 1.0)
    world.drain()
    cancelled = world.engine.cancelled_pending
    exchange.close()
    assert exchange.key is None and timeouts == ["peer"]
    assert world.engine.cancelled_pending == cancelled


def test_close_cancels_the_timer(world):
    timeouts = []
    exchange = slot(world, timeouts)
    exchange.open("peer", 1.0)
    exchange.close()
    assert world.engine.live_pending == 0
    world.drain()
    assert timeouts == []


def test_opening_an_open_slot_is_refused(world):
    exchange = slot(world, [])
    exchange.open("first")
    with pytest.raises(ProtocolError, match="already open"):
        exchange.open("second")
    assert exchange.key == "first"


def test_no_timeout_arms_no_timer(world):
    timeouts = []
    exchange = slot(world, timeouts)
    exchange.open("peer")
    exchange.arm(None)
    assert world.engine.pending == 0
    exchange.close()
    assert exchange.key is None and timeouts == []


def test_timer_of_a_superseded_exchange_does_not_expire_the_new_one(world):
    timeouts = []
    exchange = slot(world, timeouts)
    exchange.open("old")
    exchange.arm(1.0)
    exchange.key = None  # as if closed without reaching the timer
    exchange.open("new")
    world.drain()
    assert timeouts == [] and exchange.key == "new"


def test_leave_closes_every_slot(world):
    (_, a), (_, b) = world.xbot(), world.xbot()
    a._neighbor.open(b.address, 1.0)
    a._opt.open((b.address, b.address), 1.0)
    a._switch.open((b.address, b.address, b.address), 1.0)
    assert [name for name, _ in a.open_exchanges()] == ["neighbor", "optimization", "switch"]
    a.leave()
    assert a.open_exchanges() == ()
    assert world.engine.live_pending == 0


def test_quiescence_invariant_sees_an_open_exchange():
    scenario = Scenario("hyparview", ExperimentParams.scaled(8))
    scenario.build_overlay()
    check_no_open_exchange(scenario)
    first, second = scenario.alive_ids()[:2]
    scenario.membership(first)._neighbor.open(second)
    with pytest.raises(AssertionError, match="open at quiescence"):
        check_no_open_exchange(scenario)
