"""Per-node view of the simulation clock.

A :class:`SimClock` adapts the global :class:`~repro.common.interfaces.
Kernel` to the sans-io :class:`~repro.common.interfaces.Clock` interface
with one crucial addition: timers belonging to a crashed node never fire.
Without the liveness guard a dead node's pending shuffle timer would
execute after the failure was injected, which no real crashed process
could do.

The clock goes through the ``Kernel`` interface rather than reaching into
engine internals: on a single-shard kernel it calls the concrete
``schedule`` method, and on a shard-routed kernel the owner-qualified
``schedule_for`` so the timer lands on the shard that owns this node.

The clock stores plain object references (no closures) so that a stabilised
scenario can be cloned with :func:`copy.deepcopy` — the experiment harness
relies on that to stabilise an overlay once and fork it per failure level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..common.ids import NodeId
from ..common.interfaces import Clock, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network


class SimClock(Clock):
    """Kernel-backed clock whose callbacks are suppressed once the owning
    node is declared failed."""

    __slots__ = ("_network", "_node_id", "_engine_schedule", "_schedule_for")

    def __init__(self, network: "Network", node_id: NodeId) -> None:
        self._network = network
        self._node_id = node_id
        # Timer scheduling is hot under ack/retransmit-heavy protocols (a
        # timer per copy), so the kernel's method is held pre-bound and the
        # routed variant is chosen here, once, not per timer.  The price is
        # a bound-method object per node, in memory and (by reference) in
        # every snapshot blob.
        engine = network.engine
        self._engine_schedule = engine.schedule
        self._schedule_for: Optional[Callable] = (
            engine.schedule_for if engine.routed else None
        )

    def now(self) -> float:
        return self._network.engine.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if self._schedule_for is None:
            return self._engine_schedule(delay, self._guarded, callback)
        return self._schedule_for(self._node_id, delay, self._guarded, callback)

    def _guarded(self, callback: Callable[[], None]) -> None:
        if self._network.is_alive(self._node_id):
            callback()
