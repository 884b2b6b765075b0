"""Per-node view of the simulation clock.

A :class:`SimClock` adapts the global :class:`~repro.sim.engine.Engine`
to the sans-io :class:`~repro.common.interfaces.Clock` interface with one
crucial addition: timers belonging to a crashed node never fire.
Without the liveness guard a dead node's pending shuffle timer would
execute after the failure was injected, which no real crashed process
could do.

The clock stores plain object references (no closures) so that a stabilised
scenario can be pickled (``Scenario.freeze``) — the experiment harness
relies on that to stabilise an overlay once and fork it per failure level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..common.ids import NodeId
from ..common.interfaces import Clock, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network


class SimClock(Clock):
    """Engine-backed clock whose callbacks are suppressed once the owning
    node is declared failed."""

    __slots__ = ("_network", "_node_id", "_engine_schedule")

    def __init__(self, network: "Network", node_id: NodeId) -> None:
        self._network = network
        self._node_id = node_id
        # Timer scheduling is hot under ack/retransmit-heavy protocols (a
        # timer per copy), so the engine's method is held pre-bound.  The
        # price is a bound-method object per node, in memory and (by
        # reference) in every snapshot blob.
        self._engine_schedule = network.engine.schedule

    def now(self) -> float:
        return self._network.engine.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self._engine_schedule(delay, self._guarded, callback)

    def _guarded(self, callback: Callable[[], None]) -> None:
        if self._network.is_alive(self._node_id):
            callback()
