"""Per-client and per-peer protection primitives for the service layer.

Three classic patterns, each deliberately clock-agnostic (callers pass
``now`` in, so the same classes work under the event loop's clock in
production and a hand-cranked float in tests):

* :class:`TokenBucket` — per-client publish rate limiting.  A client gets
  ``burst`` tokens up front and refills at ``rate`` tokens/second; each
  publish spends one.  This is the SBRB-style per-subscriber cost
  discipline: no client can spend more than its budget no matter how hot
  its loop is.
* :class:`CircuitBreaker` — per-peer fail-fast.  After
  ``failure_threshold`` consecutive send failures the breaker *opens* and
  every send to that peer is rejected locally (no socket work, no timeout
  waits).  After ``recovery_timeout`` seconds it goes *half-open* and lets
  ``HALF_OPEN_MAX_PROBES`` probe sends through; ``half_open_successes``
  consecutive successes close it again, any failure re-opens it.
* :class:`PeerGuard` — wires one breaker per destination into an
  :class:`~repro.runtime.transport.AsyncioTransport` via its
  ``send_guard`` / ``send_observer`` hooks, so *every* frame the overlay
  sends (membership, gossip, service traffic alike) gets the fail-fast
  treatment without any protocol knowing the breaker exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..common.errors import ConfigurationError
from ..common.ids import NodeId

#: Breaker states (exposed as strings for cheap introspection/reporting).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Probe sends a half-open breaker lets through while undecided.
HALF_OPEN_MAX_PROBES = 2


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s."""

    __slots__ = ("rate", "burst", "_tokens", "_updated", "denied")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"token rate must be positive: {rate}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1 token: {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._updated: Optional[float] = None
        self.denied = 0

    def allow(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if the bucket holds them; ``False`` otherwise."""
        if self._updated is None:
            self._updated = now
        elif now > self._updated:
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        self.denied += 1
        return False


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Tuning for one :class:`CircuitBreaker`."""

    #: Consecutive send failures that trip the breaker open.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before probing (half-open).
    recovery_timeout: float = 1.0
    #: Consecutive half-open successes required to close again.
    half_open_successes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure threshold must be >= 1: {self.failure_threshold}"
            )
        if self.recovery_timeout <= 0:
            raise ConfigurationError(
                f"recovery timeout must be positive: {self.recovery_timeout}"
            )
        if self.half_open_successes < 1:
            raise ConfigurationError(
                f"half-open successes must be >= 1: {self.half_open_successes}"
            )


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN → (CLOSED | OPEN) per-peer state machine."""

    __slots__ = (
        "config",
        "state",
        "trips",
        "_failures",
        "_successes",
        "_opened_at",
        "_probes_in_flight",
    )

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.state = CLOSED
        self.trips = 0
        self._failures = 0
        self._successes = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    def allow(self, now: float) -> bool:
        """May a send proceed right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.config.recovery_timeout:
                return False
            # Time served: move to half-open and admit the first probe.
            self.state = HALF_OPEN
            self._successes = 0
            self._probes_in_flight = 1
            return True
        # HALF_OPEN: admit a bounded number of undecided probes.
        if self._probes_in_flight >= HALF_OPEN_MAX_PROBES:
            return False
        self._probes_in_flight += 1
        return True

    def refusing(self, now: float) -> bool:
        """Would a send be held off right now?  Open and still serving its
        recovery timeout, or half-open and undecided.  Reads the state
        without the half-open transition :meth:`allow` makes."""
        if self.state == OPEN:
            return now - self._opened_at < self.config.recovery_timeout
        return self.state == HALF_OPEN

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._successes += 1
            if self._successes >= self.config.half_open_successes:
                self.state = CLOSED
                self._failures = 0
                self._successes = 0
                self._probes_in_flight = 0
        elif self.state == CLOSED:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: the peer is still bad, go straight back.
            self._trip(now)
        elif self.state == CLOSED:
            self._failures += 1
            if self._failures >= self.config.failure_threshold:
                self._trip(now)
        # OPEN: stray failure reports (in-flight sends racing the trip)
        # don't extend the sentence.

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._opened_at = now
        self._failures = 0
        self._successes = 0
        self._probes_in_flight = 0


class PeerGuard:
    """One :class:`CircuitBreaker` per destination, wired into a transport.

    Installing the guard sets the transport's ``send_guard`` (breaker gate)
    and ``send_observer`` (breaker feed).  ``time_fn`` defaults to the
    event loop clock via the transport's loop; pass a callable in tests.
    """

    def __init__(
        self,
        transport,
        *,
        config: Optional[BreakerConfig] = None,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self._transport = transport
        self._config = config if config is not None else BreakerConfig()
        self._time_fn = time_fn if time_fn is not None else transport._loop.time
        self.breakers: dict[NodeId, CircuitBreaker] = {}
        self.rejected = 0
        # Pin the bound methods: every `self._allow` attribute access
        # creates a fresh bound-method object, so detach()'s identity
        # check needs the exact objects that were installed.
        self._allow_hook = self._allow
        self._observe_hook = self._observe
        transport.send_guard = self._allow_hook
        transport.send_observer = self._observe_hook

    def breaker(self, peer: NodeId) -> CircuitBreaker:
        breaker = self.breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(self._config)
            self.breakers[peer] = breaker
        return breaker

    def trips(self) -> int:
        """Total breaker trips across all peers."""
        return sum(breaker.trips for breaker in self.breakers.values())

    def open_peers(self) -> list[NodeId]:
        """Peers whose breaker refuses sends now.  A breaker left OPEN past
        its recovery timeout only because nothing was sent to the peer
        since the trip is not counted."""
        now = self._time_fn()
        return [peer for peer, b in self.breakers.items() if b.refusing(now)]

    def detach(self) -> None:
        """Remove the hooks (the transport reverts to unguarded sends)."""
        if self._transport.send_guard is self._allow_hook:
            self._transport.send_guard = None
        if self._transport.send_observer is self._observe_hook:
            self._transport.send_observer = None

    # -- transport hooks ------------------------------------------------
    def _allow(self, dst: NodeId) -> bool:
        allowed = self.breaker(dst).allow(self._time_fn())
        if not allowed:
            self.rejected += 1
        return allowed

    def _observe(self, dst: NodeId, ok: bool) -> None:
        breaker = self.breaker(dst)
        if ok:
            breaker.record_success(self._time_fn())
        else:
            breaker.record_failure(self._time_fn())


__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "PeerGuard",
    "TokenBucket",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
