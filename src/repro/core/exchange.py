"""One guarded request/reply exchange: a key, and an optional expiry timer.

HyParView repairs its active view with one NEIGHBOR request at a time
(Section 4.3), and each X-BOT swap role holds one open leg.  An
:class:`Exchange` is that slot: it opens with a key, a reply is matched
against :attr:`Exchange.key`, and :meth:`Exchange.close` forgets the key
and cancels the timer.  If the timer fires first, the slot clears itself
and calls ``on_expire(key)`` once.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..common.errors import ProtocolError
from ..common.interfaces import Host, TimerHandle


class Exchange:
    """At most one open exchange; ``key`` is ``None`` while closed."""

    __slots__ = ("name", "key", "_host", "_on_expire", "_timer")

    def __init__(self, name: str, host: Host, on_expire: Callable[[Any], None]) -> None:
        self.name = name
        self.key: Any = None
        self._host = host
        self._on_expire = on_expire
        self._timer: Optional[TimerHandle] = None

    def open(self, key: Any, timeout: Optional[float] = None) -> None:
        if self.key is not None:
            raise ProtocolError(f"{self.name} exchange already open for {self.key!r}")
        self.key = key
        self.arm(timeout)

    def arm(self, timeout: Optional[float]) -> None:
        """Start the open exchange's expiry timer (none when ``timeout`` is
        ``None``: the reply or a send failure must close it)."""
        if timeout is not None:
            self._timer = self._host.schedule(timeout, partial(self._expire, self.key))

    def close(self) -> None:
        """Forget the key and cancel the timer; a no-op on a closed slot."""
        self.key = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _expire(self, key: Any) -> None:
        if key != self.key:
            return  # the timer of an exchange that was closed and reopened
        self.key = None
        self._timer = None
        self._on_expire(key)
