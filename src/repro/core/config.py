"""HyParView configuration.

Defaults are the exact values from Section 5.1 of the paper: active view of
5 (= fanout 4 + 1), passive view of 30, ARWL 6, PRWL 3, shuffle samples
``ka = 3`` / ``kp = 4`` (8 identifiers per shuffle including the sender).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..common.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class HyParViewConfig:
    """Tuning knobs of the HyParView membership protocol.

    Attributes:
        active_view_capacity: Symmetric active view size.  The paper sets it
            to ``fanout + 1`` because a node never relays a message back to
            the peer it came from (Section 4.1).
        passive_view_capacity: Backup view size; the paper requires it to be
            larger than ``log(n)`` and uses 30 for 10 000 nodes.
        arwl: Active Random Walk Length — TTL of FORWARDJOIN walks.
        prwl: Passive Random Walk Length — the hop at which the walk inserts
            the joiner into a passive view.
        shuffle_ka: Active-view identifiers included in a shuffle (at most).
        shuffle_kp: Passive-view identifiers included in a shuffle (at most).
        shuffle_ttl: TTL of the shuffle random walk ("just like the
            FORWARDJOIN requests", Section 4.4; the paper does not print the
            value, so it defaults to ARWL and is exposed for ablations).
        shuffle_period: Seconds between self-driven shuffles when the
            protocol schedules its own cycles.  Experiment harnesses drive
            cycles manually and ignore this.
        neighbor_request_timeout: When set, a pending NEIGHBOR request that
            receives no reply within this many seconds is treated as a
            rejection and another candidate is tried.  The simulator's
            reliable transport always answers, so it is only needed on real
            networks (the asyncio runtime sets it).
        promotion_retry_delay: Section 4.3's repair loop never gives up: a
            rejected initiator "will select another node from its passive
            view and repeat the whole procedure (without removing q from
            its passive view)".  After a full pass of rejections in a
            repair episode started by a failure or a disconnect, the loop
            therefore starts over; this delay paces consecutive passes so
            the retries poll the (changing) global state instead of
            hammering it.  A cycle or a shuffle reply makes one pass and
            arms no such timer: the next cycle is its retry.
        promotion_max_passes: Retry passes a failure- or
            disconnect-triggered repair episode may make after its first,
            so simulations always quiesce; each new failure or disconnect
            renews the budget.  A cycle or a shuffle reply gets no retry
            passes and leaves a running episode's budget alone.  Repairs
            that face full views everywhere (a heal, a mass crash) do
            reach the bound.
    """

    active_view_capacity: int = 5
    passive_view_capacity: int = 30
    arwl: int = 6
    prwl: int = 3
    shuffle_ka: int = 3
    shuffle_kp: int = 4
    shuffle_ttl: Optional[int] = None
    shuffle_period: float = 10.0
    neighbor_request_timeout: Optional[float] = None
    promotion_retry_delay: float = 0.5
    promotion_max_passes: int = 10

    def __post_init__(self) -> None:
        if self.active_view_capacity < 1:
            raise ConfigurationError(f"active view capacity must be >= 1: {self.active_view_capacity}")
        if self.passive_view_capacity < 1:
            raise ConfigurationError(f"passive view capacity must be >= 1: {self.passive_view_capacity}")
        if self.arwl < 0:
            raise ConfigurationError(f"ARWL must be >= 0: {self.arwl}")
        if not 0 <= self.prwl <= self.arwl:
            raise ConfigurationError(f"PRWL must satisfy 0 <= PRWL <= ARWL: {self.prwl} vs {self.arwl}")
        if self.shuffle_ka < 0 or self.shuffle_kp < 0:
            raise ConfigurationError("shuffle sample sizes must be >= 0")
        if self.shuffle_ttl is not None and self.shuffle_ttl < 1:
            raise ConfigurationError(f"shuffle TTL must be >= 1: {self.shuffle_ttl}")
        if self.shuffle_period <= 0:
            raise ConfigurationError(f"shuffle period must be positive: {self.shuffle_period}")
        if self.neighbor_request_timeout is not None and self.neighbor_request_timeout <= 0:
            raise ConfigurationError("neighbor request timeout must be positive when set")
        if self.promotion_retry_delay <= 0:
            raise ConfigurationError("promotion retry delay must be positive")
        if self.promotion_max_passes < 0:
            raise ConfigurationError("promotion max passes must be >= 0")

    @property
    def fanout(self) -> int:
        """Broadcast fanout implied by the symmetric active view."""
        return self.active_view_capacity - 1

    @property
    def effective_shuffle_ttl(self) -> int:
        """Shuffle walk TTL (defaults to ARWL, see :attr:`shuffle_ttl`)."""
        return self.shuffle_ttl if self.shuffle_ttl is not None else max(self.arwl, 1)

    def scaled(self, n: int) -> "HyParViewConfig":
        """A configuration scaled for an ``n``-node system.

        Keeps the paper's active view (it depends on the target fanout, not
        on ``n``) and grows the passive view like ``6 * ln(n)`` with the
        paper's 30-at-10 000 as the anchor, honouring the "larger than
        log(n)" requirement from Section 4.1.
        """
        if n < 2:
            raise ConfigurationError(f"system size must be >= 2: {n}")
        passive = max(6, round(30 * math.log(n) / math.log(10_000)))
        return replace(self, passive_view_capacity=passive)
