"""Service-layer protection primitives: token bucket, breaker, peer guard.

All clock-agnostic — time is a hand-cranked float, no event loop needed.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import NodeId
from repro.service.limits import (
    CLOSED,
    HALF_OPEN,
    HALF_OPEN_MAX_PROBES,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    PeerGuard,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.denied == 1

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        assert bucket.allow(0.0) and bucket.allow(0.0)
        assert not bucket.allow(0.1)  # only 0.2 tokens back
        assert bucket.allow(0.6)  # 1.2 tokens accumulated
        assert not bucket.allow(0.6)  # 0.2 left
        assert bucket.allow(1.0)  # 0.2 + 0.8

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        bucket.allow(0.0)
        assert [bucket.allow(1000.0) for _ in range(4)] == [True, True, True, False]

    def test_time_going_backwards_is_tolerated(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.allow(5.0)
        assert not bucket.allow(1.0)  # no refill, but no crash either

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError, match="recovery"):
            BreakerConfig(recovery_timeout=0.0)
        with pytest.raises(ConfigurationError, match="successes"):
            BreakerConfig(half_open_successes=0)


class TestCircuitBreaker:
    CONFIG = BreakerConfig(
        failure_threshold=3,
        recovery_timeout=1.0,
        half_open_successes=2,
    )

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state == CLOSED
        breaker.record_failure(0.2)
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow(0.3)

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == CLOSED

    def test_half_open_after_recovery_timeout(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert not breaker.allow(1.0)  # 0.8s served of 1.0
        assert breaker.allow(1.3)  # first probe admitted
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_budget_is_bounded(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert HALF_OPEN_MAX_PROBES == 2
        assert breaker.allow(1.5)
        assert breaker.allow(1.5)  # second probe
        assert not breaker.allow(1.5)  # budget exhausted, undecided

    def test_half_open_successes_close(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.allow(1.5)
        breaker.record_success(1.6)
        assert breaker.state == HALF_OPEN  # needs 2 successes
        assert breaker.allow(1.6)
        breaker.record_success(1.7)
        assert breaker.state == CLOSED
        assert breaker.trips == 1

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.allow(1.5)
        breaker.record_failure(1.6)
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow(1.7)  # the sentence restarts

    def test_stray_failures_while_open_do_not_extend(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        breaker.record_failure(0.9)  # in-flight send racing the trip
        assert breaker.trips == 1
        assert breaker.allow(1.3)  # timeout measured from the first trip


class _StubTransport:
    """Just the surface PeerGuard touches."""

    def __init__(self) -> None:
        self.send_guard = None
        self.send_observer = None


class TestPeerGuard:
    def test_installs_and_detaches_hooks(self):
        transport = _StubTransport()
        guard = PeerGuard(transport, time_fn=lambda: 0.0)
        assert transport.send_guard is not None
        assert transport.send_observer is not None
        guard.detach()
        assert transport.send_guard is None
        assert transport.send_observer is None

    def test_detach_leaves_foreign_hooks_alone(self):
        transport = _StubTransport()
        guard = PeerGuard(transport, time_fn=lambda: 0.0)
        other = lambda dst: True  # noqa: E731
        transport.send_guard = other
        guard.detach()
        assert transport.send_guard is other

    def test_failures_trip_one_peer_only(self):
        transport = _StubTransport()
        clock = [0.0]
        guard = PeerGuard(
            transport,
            config=BreakerConfig(failure_threshold=2, recovery_timeout=1.0),
            time_fn=lambda: clock[0],
        )
        bad = NodeId("127.0.0.1", 1)
        good = NodeId("127.0.0.1", 2)
        transport.send_observer(bad, False)
        transport.send_observer(bad, False)
        transport.send_observer(good, True)
        assert not transport.send_guard(bad)
        assert transport.send_guard(good)
        assert guard.trips() == 1
        assert guard.open_peers() == [bad]
        assert guard.rejected == 1

    def test_open_peers_counts_only_breakers_that_refuse(self):
        transport = _StubTransport()
        clock = [0.0]
        guard = PeerGuard(
            transport,
            config=BreakerConfig(failure_threshold=1, recovery_timeout=0.5),
            time_fn=lambda: clock[0],
        )
        peer = NodeId("127.0.0.1", 1)
        transport.send_observer(peer, False)
        assert guard.open_peers() == [peer]
        clock[0] = 0.49
        assert guard.open_peers() == [peer]
        # Time served with nothing sent since the trip: the breaker still
        # reads OPEN but would admit the next send, and asking must not
        # move it to half-open.
        clock[0] = 0.5
        assert guard.open_peers() == []
        assert guard.breaker(peer).state == OPEN
        assert transport.send_guard(peer)  # the half-open probe
        assert guard.breaker(peer).state == HALF_OPEN
        assert guard.open_peers() == [peer]
        transport.send_observer(peer, False)  # the probe fails: re-trip
        assert guard.open_peers() == [peer]
        clock[0] = 1.0
        assert guard.open_peers() == []

    def test_recovery_through_half_open(self):
        transport = _StubTransport()
        clock = [0.0]
        guard = PeerGuard(
            transport,
            config=BreakerConfig(
                failure_threshold=1, recovery_timeout=0.5, half_open_successes=1
            ),
            time_fn=lambda: clock[0],
        )
        peer = NodeId("127.0.0.1", 1)
        transport.send_observer(peer, False)
        assert not transport.send_guard(peer)
        clock[0] = 1.0
        assert transport.send_guard(peer)  # half-open probe
        transport.send_observer(peer, True)
        assert guard.breaker(peer).state == CLOSED
        assert guard.open_peers() == []
