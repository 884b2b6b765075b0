"""Discrete-event simulation kernel.

This is the substrate the paper gets from PeerSim [11]: a timestamp-ordered
event queue.  The kernel is deliberately minimal and fast because
reproduction experiments push millions of message events through it.

Two driving styles are supported, matching PeerSim's two modes:

* **event-driven** — schedule callbacks at arbitrary times and call
  :meth:`Engine.run_until_idle` / :meth:`Engine.run_until`;
* **cycle-driven** — the experiment harness invokes protocol cycles
  explicitly and drains the resulting event cascade between cycles, which is
  exactly how the paper alternates "membership cycles" and message batches.

**Queue layout (the bucket/calendar queue).**  Simulated latencies take few
distinct values, so at any instant the pending events cluster on a handful
of distinct timestamps.  The queue exploits that: events live in per-
timestamp FIFO *buckets* (``dict[float, list]``), and a small binary heap
indexes just the distinct timestamps.  Posting into an existing bucket is
an O(1) list append (the common case: every delivery of one broadcast hop
shares a timestamp); the heap is only touched when a *new* timestamp
appears — for far-future timers that overflow past the currently-active
times, and once per bucket on the drain side.  A one-entry *hot bucket*
cache short-circuits even the dict lookup for back-to-back posts at the
same instant.  Within a bucket events fire in insertion order, which is
exactly the global ``(time, insertion)`` order the previous heap-of-tuples
implementation guaranteed — event ordering is byte-identical, it just no
longer costs a heap push/pop per event.

Two scheduling APIs serve two traffic classes:

* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a cancellable
  :class:`EventHandle` — for timers, which protocols routinely cancel;
* :meth:`Engine.post` is the allocation-light fast path for events that
  are *never* cancelled (message deliveries, probe results): no handle
  object is created, the bucket holds the bare callback and argument tuple.

Cancellation stays O(1) and lazy, and the engine *counts* lazily cancelled
events and compacts the queue whenever they outnumber the live ones
(beyond a small floor), so a workload that cancels millions of timers —
e.g. per-message retransmit timers that are almost always acked — never
drags a dead queue behind it.  :attr:`Engine.live_pending` reports the true
outstanding-event count.

**One queue.**  Timers take the same path as posts: the ``(_HANDLE,
EventHandle)`` pair is appended to the bucket for its timestamp, so the
global ``(time, insertion)`` firing order is true by construction — one
FIFO per timestamp — for any mix of the two APIs.

**The dead-bucket clock rule.**  A bucket whose entries are all cancelled
does not move the clock: :meth:`Engine.run_until_idle` puts ``now`` back
when a bucket fired nothing, and :meth:`Engine.run_until` ends at its
deadline either way.  Otherwise ``now`` at idle would depend on whether compaction
happened to sweep a dead timer before the drain reached it — lazy-deletion
garbage would be observable.  For the same reason pickling sweeps
cancelled entries first: snapshot bytes hold live events only.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from ..common.errors import SimulationError
from ..common.interfaces import TimerHandle

#: Compaction never triggers below this many cancelled events: tiny queues
#: are cheap to carry and rebuilding them would cost more than it saves.
COMPACTION_FLOOR = 64

#: Marker stored in a bucket slot in place of a callback to flag that the
#: following slot holds a cancellable :class:`EventHandle` instead of a
#: plain argument tuple.  ``None`` can never be a callback.
_HANDLE = None

# Process-wide count of events fired by every engine in this process; the
# orchestrator samples it around each work unit for the stderr kernel
# events/s table (observability only, never in BENCH artifacts).
_fired_total = 0


def events_fired_total() -> int:
    """Events fired by all engines in this process since import."""
    return _fired_total


class EventHandle(TimerHandle):
    """Handle for a scheduled event; cancellation is O(1) (lazy removal)."""

    __slots__ = ("time", "_callback", "_args", "_cancelled", "_engine")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time = time
        self._callback: Optional[Callable[..., None]] = callback
        self._args = args
        self._cancelled = False
        # Back-reference while the event sits in the queue, so cancellation
        # can be counted; cleared when the event fires or is compacted away.
        self._engine = engine

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references so cancelled events pinned in the queue do not
        # keep large object graphs alive.
        self._callback = None
        self._args = ()
        engine = self._engine
        if engine is not None:
            self._engine = None
            # Inlined Engine._note_cancel: cancellation is the hot path of
            # ack/retransmit protocols (almost every timer is cancelled).
            cancelled = engine._cancelled + 1
            engine._cancelled = cancelled
            if cancelled > engine._compact_watermark and cancelled * 2 > engine._size:
                engine.compact()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Engine:
    """The simulation event loop — the one kernel every simulation runs on.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which makes runs fully deterministic given deterministic callbacks.
    Consumers may pre-bind its methods (``engine.post``) on their hot paths.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        # timestamp -> flat FIFO bucket [cb, args, cb, args, ...]; timer
        # entries use the (_HANDLE, EventHandle) slot pair instead.
        self._buckets: dict[float, list] = {}
        # Heap of the distinct pending timestamps (one entry per bucket).
        self._times: list[float] = []
        # Most recently appended-to bucket: posts during a drain almost
        # always target one future instant (now + the constant latency),
        # so this skips the dict lookup for all but the first of them.
        self._hot_time: Optional[float] = None
        self._hot_bucket: Optional[list] = None
        self._size = 0
        self._processed = 0
        self._cancelled = 0
        # Auto-compaction threshold.  Raised (exponential backoff) when a
        # compaction cannot reclaim anything — entries of a bucket that is
        # mid-drain have left the queue structures and are unreachable
        # until the drain loop skips them — so mass same-instant cancels
        # cost O(Q log N) in rebuilds, not a full scan per cancel.
        self._compact_watermark = COMPACTION_FLOOR

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued events, *including* lazily-cancelled ones.

        For "is there outstanding work?" checks use :attr:`live_pending`
        instead — a queue full of cancelled timers is not pending work.
        """
        return self._size

    @property
    def live_pending(self) -> int:
        """Number of queued events that will actually fire."""
        return self._size - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Number of lazily-cancelled events still occupying the queue."""
        return self._cancelled

    @property
    def processed(self) -> int:
        """Total events fired since the engine was created."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _append(self, when: float, first: Any, second: Any) -> None:
        """Append one two-slot entry to the bucket for ``when``."""
        if when == self._hot_time:
            bucket = self._hot_bucket
            bucket.append(first)
            bucket.append(second)
            return
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = [first, second]
            self._buckets[when] = bucket
            heappush(self._times, when)
        else:
            bucket.append(first)
            bucket.append(second)
        self._hot_time = when
        self._hot_bucket = bucket

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        handle = EventHandle(when, callback, args, self)
        self._append(when, _HANDLE, handle)
        self._size += 1
        return handle

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        handle = EventHandle(when, callback, args, self)
        self._append(when, _HANDLE, handle)
        self._size += 1
        return handle

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule a *non-cancellable* event after ``delay`` seconds.

        No handle is allocated; the bucket holds the bare callback and
        argument tuple.  Use for high-volume events nothing ever cancels
        (message deliveries).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        # Inlined _append: this is the hottest call in the simulator.
        if when == self._hot_time:
            bucket = self._hot_bucket
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                bucket = []
                self._buckets[when] = bucket
                heappush(self._times, when)
            self._hot_time = when
            self._hot_bucket = bucket
        bucket.append(callback)
        bucket.append(args)
        self._size += 1

    # ------------------------------------------------------------------
    # Compaction of lazily-cancelled events
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Physically remove lazily-cancelled events; returns how many.

        Buckets and the timestamp heap are rebuilt *in place* (both keep
        their identity) so run loops holding local references observe the
        compaction.  Entries of a bucket that is being drained right now
        have already left the queue structures and are skipped (and
        accounted) by the drain loops themselves.
        """
        if not self._cancelled:
            return 0
        buckets = self._buckets
        removed = 0
        for when in list(buckets):
            bucket = buckets[when]
            kept: list = []
            append = kept.append
            it = iter(bucket)
            for first in it:
                second = next(it)
                if first is _HANDLE and second._cancelled:
                    second._engine = None
                    removed += 1
                else:
                    append(first)
                    append(second)
            if kept:
                bucket[:] = kept
            else:
                del buckets[when]
        # Rebuild the timestamp index in place: one entry per surviving
        # bucket (drop times whose buckets emptied).
        self._times[:] = buckets
        heapify(self._times)
        self._hot_time = None
        self._hot_bucket = None
        self._size -= removed
        self._cancelled -= removed
        # Any remainder is pinned in a mid-drain bucket; back off so the
        # next few cancels do not rescan everything for nothing.  A clean
        # sweep resets the watermark to the floor.
        self._compact_watermark = max(COMPACTION_FLOOR, 2 * self._cancelled)
        return removed

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _salvage(self, when: float, remainder: list) -> None:
        """Re-queue the un-fired tail of a bucket whose drain raised.

        Keeps the queue consistent when a callback (or the runaway-cascade
        guard) raises mid-bucket: the remaining entries go back in front of
        anything posted at ``when`` during the partial drain.
        """
        if not remainder:
            return
        existing = self._buckets.get(when)
        if existing is None:
            self._buckets[when] = remainder
            heappush(self._times, when)
        else:
            existing[:0] = remainder  # older entries fire first
        self._hot_time = None
        self._hot_bucket = None

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; returns the number of events fired.

        ``max_events`` guards against runaway cascades (a protocol bug that
        schedules unboundedly); exceeding it raises :class:`SimulationError`
        instead of hanging the test suite.
        """
        # The drain loop is the hottest code in the simulator: take one
        # whole bucket at a time and dispatch its entries inline.  Posts
        # from callbacks at the *same* instant open a fresh bucket, which
        # the next iteration of the outer loop picks up — preserving the
        # global (time, insertion-order) firing order exactly.
        times = self._times
        buckets = self._buckets
        fired = 0
        cancelled_skipped = 0
        try:
            while times:
                when = heappop(times)
                bucket = buckets.pop(when)
                if when == self._hot_time:
                    self._hot_time = None
                    self._hot_bucket = None
                clock = self._now
                self._now = when
                mark = fired
                it = iter(bucket)
                try:
                    for first in it:
                        second = next(it)
                        if first is _HANDLE:
                            if second._cancelled:
                                cancelled_skipped += 1
                                continue
                            second._engine = None
                            first = second._callback
                            second = second._args
                        fired += 1
                        first(*second)
                        if max_events is not None and fired > max_events:
                            raise SimulationError(
                                f"run_until_idle exceeded {max_events} events — runaway cascade?"
                            )
                except BaseException:
                    self._salvage(when, list(it))
                    raise
                if fired == mark:
                    # Nothing but dead timers (so no callback saw the
                    # clock move): the dead-bucket rule puts it back.
                    self._now = clock
        finally:
            self._processed += fired
            self._size -= fired + cancelled_skipped
            self._cancelled -= cancelled_skipped
            global _fired_total
            _fired_total += fired
        return fired

    def run_until(self, deadline: float) -> int:
        """Fire every event with timestamp <= ``deadline``, then set the
        clock to ``deadline``.  Returns the number of events fired."""
        if deadline < self._now:
            raise SimulationError(f"deadline in the past: {deadline} < {self._now}")
        times = self._times
        buckets = self._buckets
        fired = 0
        cancelled_skipped = 0
        try:
            while times and times[0] <= deadline:
                when = heappop(times)
                bucket = buckets.pop(when)
                if when == self._hot_time:
                    self._hot_time = None
                    self._hot_bucket = None
                # A bucket of dead timers moves the clock unseen: no
                # callback runs in it and the drain ends at the deadline.
                self._now = when
                it = iter(bucket)
                try:
                    for first in it:
                        second = next(it)
                        if first is _HANDLE:
                            if second._cancelled:
                                cancelled_skipped += 1
                                continue
                            second._engine = None
                            first = second._callback
                            second = second._args
                        fired += 1
                        first(*second)
                except BaseException:
                    self._salvage(when, list(it))
                    raise
        finally:
            self._processed += fired
            self._size -= fired + cancelled_skipped
            self._cancelled -= cancelled_skipped
            global _fired_total
            _fired_total += fired
        self._now = deadline
        return fired

    # ------------------------------------------------------------------
    # Pickling (scenario snapshots)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Lazily-cancelled entries are unobservable: sweep them so
        # snapshots hold live events only.  The hot-bucket cache is a pure
        # accelerator and the heap's arrangement a trace of push history;
        # dropping the one and sorting the other keeps snapshots of
        # otherwise-identical engines byte-identical.
        self.compact()
        state = dict(self.__dict__)
        state["_hot_time"] = None
        state["_hot_bucket"] = None
        state["_times"] = sorted(self._times)
        return state

