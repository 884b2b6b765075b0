"""Discrete-event simulation kernel.

This is the substrate the paper gets from PeerSim [11]: a timestamp-ordered
event queue plus helpers for periodic (cycle-driven) behaviour.  The kernel
is deliberately minimal and fast because reproduction experiments push
millions of message events through it.

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
* :meth:`Engine.post` / :meth:`Engine.post_at` are the allocation-light fast
  path for events that are *never* cancelled (message deliveries, probe
  results): no handle object is created, the bucket holds the bare callback
  and argument tuple.

Cancellation stays O(1) and lazy, and the engine *counts* lazily cancelled
events and compacts the queue whenever they outnumber the live ones
(beyond a small floor), so a workload that cancels millions of timers —
e.g. per-message retransmit timers that are almost always acked — never
drags a dead queue behind it.  :attr:`Engine.live_pending` reports the true
outstanding-event count.

**The timer wheel.**  Cancellable timers land on scattered timestamps
(per-message per-peer retransmit deadlines, staggered backoffs), which is
the bucket queue's worst case: every timer opens its own bucket and pays a
heap push/pop.  Timers therefore live in a **hierarchical timing wheel**
instead: four power-of-two levels of 256 slots each, at a resolution of
2^-10 s per tick, covering 2^32 ticks (~48 simulated days) before handing
far-future timers to a small overflow heap.  Insertion picks the deepest
level whose lap contains both the timer and the wheel position — O(1)
integer arithmetic plus a list append and a bitmap bit.  On the drain
side the wheel advances lazily: per-level occupancy bitmaps jump straight
to the next populated slot, higher-level slots **cascade** one level down
when the position crosses their boundary, and the expiring slot is sorted
once into the *cursor* — the staging batch the run loops consume.

Merge order between wheel expiries and bucket events is **byte-identical**
to the single-queue layout, by construction rather than by bookkeeping:

* :meth:`Engine.schedule` appends to the existing bucket when one already
  holds events for that exact timestamp (so intra-bucket interleavings of
  posts and timers are preserved verbatim), and only otherwise inserts
  into the wheel;
* consequently a wheel entry at time ``t`` can only exist if no bucket for
  ``t`` existed when it was scheduled — every wheel entry at ``t``
  *predates* every current bucket entry at ``t`` — so the run loops break
  timestamp ties in favour of the wheel;
* inside the wheel, entries carry a monotonic sequence number and every
  expiry batch is sorted by ``(time, seq)``, which is exactly the global
  insertion order no matter which level an entry cascaded from.

The quantised-tick mode keeps timers on the bucket path: its in-bucket
stable sort by raw timestamp already interleaves posts and timers, and
that ordering is pinned by artifacts.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from ..common.errors import SimulationError
from ..common.interfaces import TimerHandle

#: Compaction never triggers below this many cancelled events: tiny queues
#: are cheap to carry and rebuilding them would cost more than it saves.
COMPACTION_FLOOR = 64

#: Timer-wheel geometry: four levels of 2^8 slots, 2^-10 s per tick.
WHEEL_BITS = 8
WHEEL_SLOTS = 1 << WHEEL_BITS
WHEEL_MASK = WHEEL_SLOTS - 1
WHEEL_LEVELS = 4
WHEEL_RESOLUTION = 2.0**-10
_TICKS_PER_SECOND = 1.0 / WHEEL_RESOLUTION
#: Timestamps past this are clamped to one far tick (ordering inside the
#: overflow heap is still exact — entries sort by (tick, time, seq), and
#: the clamp keeps ``int(when * ticks)`` from overflowing on inf).
_TICK_TIME_CAP = 2.0**52
_TICK_CAP = 1 << 63

#: Marker stored in a bucket slot in place of a callback to flag that the
#: following slot holds a cancellable :class:`EventHandle` instead of a
#: plain argument tuple.  ``None`` can never be a callback.
_HANDLE = None

# Process-wide count of events fired by every engine in this process; the
# orchestrator samples it around each work unit to report kernel events/s
# in the TIMINGS artifacts (observability only, never in BENCH artifacts).
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

    def _fire(self) -> None:
        if not self._cancelled and self._callback is not None:
            self._callback(*self._args)


class Engine:
    """The simulation event loop — the one kernel every simulation runs on.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which makes runs fully deterministic given deterministic callbacks.
    Consumers may pre-bind its methods (``engine.post``) on their hot paths.
    """

    def __init__(self, start_time: float = 0.0, *, tick: Optional[float] = None) -> None:
        if tick is not None and tick <= 0:
            raise SimulationError(f"tick must be positive: {tick}")
        self._now = start_time
        # Quantised-tick mode (off by default): event timestamps are rounded
        # *up* to a multiple of ``tick`` so latency models with continuous
        # jitter (UniformLatency, WAN fault rules) share buckets instead of
        # degenerating to one event per bucket.  Within a quantised bucket
        # events fire stable-sorted by their raw timestamps (``_raws`` holds
        # one raw time per entry, parallel to the bucket pairs), preserving
        # the global (time, insertion) order up to the tick resolution.
        self._tick = tick
        self._raws: dict[float, list[float]] = {}
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
        # --- timer wheel (exact mode only; see the module docstring) ---
        # Entries are (tick, time, seq, handle) tuples: tick is the wheel
        # coordinate, (time, seq) the exact global firing order.
        self._seq = 0
        self._wheel_slots: list[list[list]] = [
            [[] for _ in range(WHEEL_SLOTS)] for _ in range(WHEEL_LEVELS)
        ]
        self._wheel_bitmaps: list[int] = [0] * WHEEL_LEVELS
        self._wheel_overflow: list[tuple] = []
        # The cursor is the sorted expiry batch of the current tick; the
        # wheel position doubles as its admission bound: inserts at ticks
        # <= the position bisect straight into the cursor.
        self._wheel_cursor: list[tuple] = []
        self._wheel_cursor_pos = 0
        self._wheel_pos = int(start_time * _TICKS_PER_SECOND)
        # Entries held by the wheel (cursor tail + slots + overflow),
        # including lazily-cancelled ones; the run loops skip wheel work
        # entirely while this is zero.
        self._wheel_count = 0
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
    def tick(self) -> Optional[float]:
        """Quantisation step for event timestamps, or ``None`` (exact)."""
        return self._tick

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
    def _quantise(self, when: float) -> float:
        """Round ``when`` *up* to the next tick multiple (never earlier)."""
        tick = self._tick
        return math.ceil(when / tick) * tick

    def _append_quantised(self, when: float, first: Any, second: Any) -> None:
        """Quantised-mode append: pair into the tick bucket, raw time into
        the parallel ``_raws`` list (the in-bucket sort key)."""
        q = self._quantise(when)
        bucket = self._buckets.get(q)
        if bucket is None:
            self._buckets[q] = [first, second]
            self._raws[q] = [when]
            heappush(self._times, q)
        else:
            bucket.append(first)
            bucket.append(second)
            self._raws[q].append(when)

    def _take_quantised(self, when: float) -> tuple[list, list[float]]:
        """Stable-sort one quantised bucket by raw timestamp.

        Returns the re-ordered flat pair list and the matching sorted raw
        times; both have been removed from the queue structures (the heap
        entry for ``when`` is the caller's to keep or pop).
        """
        bucket = self._buckets.pop(when)
        raws = self._raws.pop(when)
        order = sorted(range(len(raws)), key=raws.__getitem__)
        flat: list = []
        append = flat.append
        for index in order:
            append(bucket[2 * index])
            append(bucket[2 * index + 1])
        return flat, [raws[index] for index in order]

    def _append(self, when: float, first: Any, second: Any) -> None:
        """Append one two-slot entry to the bucket for ``when``."""
        if self._tick is not None:
            self._append_quantised(when, first, second)
            return
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
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Exact mode routes timers through the timer wheel — unless a bucket
        already holds events for exactly ``when``, in which case the timer
        joins that bucket so same-instant interleavings of posts and
        timers fire in verbatim insertion order (the merge-order
        invariant; see the module docstring).  Quantised mode keeps the
        bucket path, whose raw-time stable sort already interleaves both.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        handle = EventHandle(when, callback, args, self)
        self._size += 1
        if self._tick is not None:
            self._append_quantised(when, _HANDLE, handle)
            return handle
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(_HANDLE)
            bucket.append(handle)
            return handle
        # Inlined wheel insert: this is the hottest call of timer-heavy
        # (ack/retransmit) protocols, the way `post` is for messages.
        tick = int(when * _TICKS_PER_SECOND) if when < _TICK_TIME_CAP else _TICK_CAP
        seq = self._seq
        self._seq = seq + 1
        entry = (tick, when, seq, handle)
        self._wheel_count += 1
        pos = self._wheel_pos
        if tick <= pos:
            # The wheel already advanced to (or past) this tick — a bucket
            # event running ahead of the wheel scheduled it.  The sequence
            # number keeps it in exact global order inside the cursor.
            insort(self._wheel_cursor, entry)
            return handle
        # The level is the deepest one whose lap holds both the timer and
        # the wheel position: the highest differing bit octet of the two
        # tick coordinates names it in O(1).
        level = ((tick ^ pos).bit_length() - 1) >> 3
        if level < WHEEL_LEVELS:
            slot = (tick >> (level << 3)) & WHEEL_MASK
            self._wheel_slots[level][slot].append(entry)
            self._wheel_bitmaps[level] |= 1 << slot
        else:
            heappush(self._wheel_overflow, entry)
        return handle

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        if self._tick is not None:
            handle = EventHandle(when, callback, args, self)
            self._size += 1
            self._append_quantised(when, _HANDLE, handle)
            return handle
        # Inlined schedule_at: one call frame fewer on the timer-heavy
        # hot path (protocols schedule relative delays via the clock).
        handle = EventHandle(when, callback, args, self)
        self._size += 1
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(_HANDLE)
            bucket.append(handle)
            return handle
        tick = int(when * _TICKS_PER_SECOND) if when < _TICK_TIME_CAP else _TICK_CAP
        seq = self._seq
        self._seq = seq + 1
        entry = (tick, when, seq, handle)
        self._wheel_count += 1
        pos = self._wheel_pos
        if tick <= pos:
            insort(self._wheel_cursor, entry)
            return handle
        # The level is the deepest one whose lap holds both the timer and
        # the wheel position: the highest differing bit octet of the two
        # tick coordinates names it in O(1).
        level = ((tick ^ pos).bit_length() - 1) >> 3
        if level < WHEEL_LEVELS:
            slot = (tick >> (level << 3)) & WHEEL_MASK
            self._wheel_slots[level][slot].append(entry)
            self._wheel_bitmaps[level] |= 1 << slot
        else:
            heappush(self._wheel_overflow, entry)
        return handle

    def post_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule a *non-cancellable* event at time ``when``.

        No handle is allocated; the bucket holds the bare callback and
        argument tuple.  Use for high-volume events nothing ever cancels
        (message deliveries).
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        self._append(when, callback, args)
        self._size += 1

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: :meth:`post_at` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        if self._tick is not None:
            self._append_quantised(when, callback, args)
            self._size += 1
            return
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
    # The timer wheel
    # ------------------------------------------------------------------
    def _wheel_peek(self) -> Optional[tuple]:
        """The next wheel entry (possibly a lazily-cancelled one), or
        ``None`` when the wheel is empty.  Advances the wheel as needed."""
        cursor = self._wheel_cursor
        pos = self._wheel_cursor_pos
        if pos < len(cursor):
            if pos >= 1024:
                # Trim the consumed prefix (amortised O(1)).  A lone
                # far-future timer can pin one cursor batch for a long
                # stretch of simulated time while every nearer timer
                # bisects into it; without trimming, the consumed entries
                # would accumulate for as long as the batch lives.
                del cursor[:pos]
                self._wheel_cursor_pos = 0
                return cursor[0]
            return cursor[pos]
        if self._wheel_count and self._wheel_refill():
            return self._wheel_cursor[self._wheel_cursor_pos]
        return None

    def _wheel_take(self, level: int, index: int) -> list:
        """Detach one slot's entry list, clearing its occupancy bit."""
        slots = self._wheel_slots[level]
        batch = slots[index]
        slots[index] = []
        self._wheel_bitmaps[level] &= ~(1 << index)
        return batch

    def _wheel_refill(self) -> bool:
        """Advance the wheel position to the next populated tick and stage
        that tick's entries as the new (sorted) cursor batch.

        Per-level bitmaps jump straight to the next occupied slot; a
        populated higher-level slot is cascaded one level down when the
        position enters its lap.  Lazily-cancelled entries are dropped
        (and accounted) the first time the advance touches them — an
        acked retransmit timer costs one cascade visit in total, never a
        sort or a pop.  Returns ``False`` only when the wheel holds
        nothing at all.
        """
        overflow = self._wheel_overflow
        bitmaps = self._wheel_bitmaps
        pos = self._wheel_pos
        dropped = 0
        while True:
            ov_tick = overflow[0][0] if overflow else None
            # Level 0: one slot == one tick of the current 256-tick window.
            index = pos & WHEEL_MASK
            m = bitmaps[0] >> index
            if m:
                index += ((m & -m).bit_length() - 1)
                target = pos - (pos & WHEEL_MASK) + index
                if ov_tick is None or target <= ov_tick:
                    batch = []
                    for entry in self._wheel_take(0, index):
                        if entry[3]._cancelled:
                            dropped += 1
                        else:
                            batch.append(entry)
                    while overflow and overflow[0][0] == target:
                        entry = heappop(overflow)
                        if entry[3]._cancelled:
                            dropped += 1
                        else:
                            batch.append(entry)
                    if not batch:
                        continue  # the tick held only cancelled timers
                    batch.sort()
                    self._wheel_cursor = batch
                    self._wheel_cursor_pos = 0
                    self._wheel_pos = target
                    self._wheel_drop(dropped)
                    return True
            else:
                # Level 1..3: find the next populated slot of the current
                # lap, cascade it down one level, rescan from its start.
                t8 = pos >> WHEEL_BITS
                m = bitmaps[1] >> (t8 & WHEEL_MASK)
                if m:
                    g1 = t8 + ((m & -m).bit_length() - 1)
                    start = g1 << WHEEL_BITS
                    if ov_tick is None or start <= ov_tick:
                        slots0 = self._wheel_slots[0]
                        bit0 = 0
                        for entry in self._wheel_take(1, g1 & WHEEL_MASK):
                            if entry[3]._cancelled:
                                dropped += 1
                                continue
                            low = entry[0] & WHEEL_MASK
                            slots0[low].append(entry)
                            bit0 |= 1 << low
                        bitmaps[0] |= bit0
                        pos = start
                        continue
                else:
                    t16 = t8 >> WHEEL_BITS
                    m = bitmaps[2] >> (t16 & WHEEL_MASK)
                    if m:
                        g2 = t16 + ((m & -m).bit_length() - 1)
                        start = g2 << 16
                        if ov_tick is None or start <= ov_tick:
                            slots1 = self._wheel_slots[1]
                            bit1 = 0
                            for entry in self._wheel_take(2, g2 & WHEEL_MASK):
                                if entry[3]._cancelled:
                                    dropped += 1
                                    continue
                                mid = (entry[0] >> WHEEL_BITS) & WHEEL_MASK
                                slots1[mid].append(entry)
                                bit1 |= 1 << mid
                            bitmaps[1] |= bit1
                            pos = start
                            continue
                    else:
                        t24 = t16 >> WHEEL_BITS
                        m = bitmaps[3] >> (t24 & WHEEL_MASK)
                        if m:
                            g3 = t24 + ((m & -m).bit_length() - 1)
                            start = g3 << 24
                            if ov_tick is None or start <= ov_tick:
                                slots2 = self._wheel_slots[2]
                                bit2 = 0
                                for entry in self._wheel_take(3, g3 & WHEEL_MASK):
                                    if entry[3]._cancelled:
                                        dropped += 1
                                        continue
                                    high = (entry[0] >> 16) & WHEEL_MASK
                                    slots2[high].append(entry)
                                    bit2 |= 1 << high
                                bitmaps[2] |= bit2
                                pos = start
                                continue
            # Nothing in the levels before the overflow's head: drain the
            # overflow's earliest tick as the next batch (far-future
            # handoff), re-anchoring the wheel position there.
            if not overflow:
                self._wheel_pos = pos
                self._wheel_drop(dropped)
                return False
            batch = []
            target = overflow[0][0]
            while overflow and overflow[0][0] == target:
                entry = heappop(overflow)
                if entry[3]._cancelled:
                    dropped += 1
                else:
                    batch.append(entry)
            if not batch:
                continue  # the overflow tick held only cancelled timers
            self._wheel_cursor = batch
            self._wheel_cursor_pos = 0
            self._wheel_pos = target
            self._wheel_drop(dropped)
            return True

    def _wheel_drop(self, dropped: int) -> None:
        """Account for cancelled entries the wheel advance discarded."""
        if dropped:
            self._wheel_count -= dropped
            self._size -= dropped
            self._cancelled -= dropped

    # ------------------------------------------------------------------
    # Compaction of lazily-cancelled events
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Physically remove lazily-cancelled events; returns how many.

        Buckets and the timestamp heap are rebuilt *in place* (both keep
        their identity) so run loops holding local references observe the
        compaction.  Entries of a bucket that is being drained right now —
        and entries of the wheel's current expiry batch (the cursor) —
        have already left (or are mid-consumption of) the queue
        structures and are skipped (and accounted) by the drain loops
        themselves.
        """
        if not self._cancelled:
            return 0
        removed_wheel = self._wheel_compact()
        buckets = self._buckets
        quantised = self._tick is not None
        removed = 0
        for when in list(buckets):
            bucket = buckets[when]
            raws = self._raws.get(when) if quantised else None
            kept: list = []
            kept_raws: list[float] = []
            append = kept.append
            index = 0
            it = iter(bucket)
            for first in it:
                second = next(it)
                slot = index
                index += 1
                if first is _HANDLE and second._cancelled:
                    second._engine = None
                    removed += 1
                else:
                    append(first)
                    append(second)
                    if raws is not None:
                        kept_raws.append(raws[slot])
            if kept:
                bucket[:] = kept
                if raws is not None:
                    raws[:] = kept_raws
            else:
                del buckets[when]
                if raws is not None:
                    del self._raws[when]
        # Rebuild the timestamp index in place: one entry per surviving
        # bucket (drop times whose buckets emptied).
        self._times[:] = buckets
        heapify(self._times)
        self._hot_time = None
        self._hot_bucket = None
        removed += removed_wheel
        self._size -= removed
        self._cancelled -= removed
        # Any remainder is pinned in a mid-drain bucket or the wheel
        # cursor; back off so the next few cancels do not rescan
        # everything for nothing.  A clean sweep resets the watermark to
        # the floor.
        self._compact_watermark = max(COMPACTION_FLOOR, 2 * self._cancelled)
        return removed

    def _wheel_compact(self) -> int:
        """Sweep cancelled timers out of the wheel slots and the overflow
        (the cursor is the drain loops' to consume); returns how many."""
        removed = 0
        for level in range(WHEEL_LEVELS):
            bitmap = self._wheel_bitmaps[level]
            if not bitmap:
                continue
            slots = self._wheel_slots[level]
            m = bitmap
            while m:
                index = (m & -m).bit_length() - 1
                m &= m - 1
                slot = slots[index]
                kept = []
                for entry in slot:
                    handle = entry[3]
                    if handle._cancelled:
                        handle._engine = None
                        removed += 1
                    else:
                        kept.append(entry)
                if kept:
                    slot[:] = kept
                else:
                    del slot[:]
                    bitmap &= ~(1 << index)
            self._wheel_bitmaps[level] = bitmap
        overflow = self._wheel_overflow
        if overflow:
            kept = []
            for entry in overflow:
                handle = entry[3]
                if handle._cancelled:
                    handle._engine = None
                    removed += 1
                else:
                    kept.append(entry)
            if removed and len(kept) != len(overflow):
                overflow[:] = kept
                heapify(overflow)
        self._wheel_count -= removed
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
        if self._tick is not None:
            # Re-queued entries fired at ``when``; their pre-sort raw times
            # are gone, so they keep their position via raw == when (exact
            # ordering after an aborted drain is moot — the run is failing).
            raws = self._raws.setdefault(when, [])
            raws[:0] = [when] * (len(remainder) // 2)
        self._hot_time = None
        self._hot_bucket = None

    def _step_quantised(self) -> bool:
        """Quantised-mode :meth:`step`: pop the earliest tick bucket,
        stable-sort it by raw timestamp, fire its first live entry."""
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            bucket, raws = self._take_quantised(when)
            index = 0
            count = len(raws)
            while index < count:
                first = bucket[2 * index]
                second = bucket[2 * index + 1]
                index += 1
                if first is _HANDLE:
                    if second._cancelled:
                        self._cancelled -= 1
                        self._size -= 1
                        continue
                    second._engine = None
                self._size -= 1
                remainder = bucket[2 * index:]
                if remainder:
                    buckets[when] = remainder
                    self._raws[when] = raws[index:]
                else:
                    heappop(times)
                self._now = when
                self._processed += 1
                global _fired_total
                _fired_total += 1
                if first is _HANDLE:
                    second._fire()
                else:
                    first(*second)
                return True
            heappop(times)  # entire bucket was cancelled entries
        return False

    def step(self) -> bool:
        """Fire the earliest event.  Returns ``False`` when the queue is
        empty (time does not advance in that case)."""
        if self._tick is not None:
            return self._step_quantised()
        global _fired_total
        times = self._times
        buckets = self._buckets
        while True:
            # Wheel timers due no later than the earliest bucket fire
            # first (ties go to the wheel: its entries predate the
            # bucket's — the merge-order invariant).
            if self._wheel_count:
                while True:
                    entry = self._wheel_peek()
                    if entry is None or (times and times[0] < entry[1]):
                        break
                    self._wheel_cursor_pos += 1
                    self._wheel_count -= 1
                    self._size -= 1
                    handle = entry[3]
                    if handle._cancelled:
                        self._cancelled -= 1
                        continue
                    handle._engine = None
                    self._now = entry[1]
                    self._processed += 1
                    _fired_total += 1
                    handle._fire()
                    return True
            if not times:
                return False
            when = times[0]
            bucket = buckets[when]
            index = 0
            while index < len(bucket):
                first = bucket[index]
                second = bucket[index + 1]
                index += 2
                if first is _HANDLE:
                    if second._cancelled:
                        self._cancelled -= 1
                        self._size -= 1
                        continue
                    second._engine = None
                self._size -= 1
                # Re-stash the un-fired remainder *before* the callback
                # runs, so nested posts at the same instant land after it.
                remainder = bucket[index:]
                if remainder:
                    bucket[:] = remainder
                else:
                    del buckets[when]
                    heappop(times)
                if when == self._hot_time:
                    self._hot_time = None
                    self._hot_bucket = None
                self._now = when
                self._processed += 1
                _fired_total += 1
                if first is _HANDLE:
                    second._fire()
                else:
                    first(*second)
                return True
            # Entire bucket was cancelled entries; re-check the wheel
            # against whatever bucket is now the earliest.
            del buckets[when]
            heappop(times)
            if when == self._hot_time:
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
        # global (time, insertion-order) firing order exactly.  Wheel
        # timers merge in between buckets: every timer due no later than
        # the earliest bucket fires first (same-instant timers predate
        # the bucket's entries — the merge-order invariant).
        times = self._times
        buckets = self._buckets
        fired = 0
        cancelled_skipped = 0
        try:
            while True:
                if self._wheel_count:
                    while True:
                        entry = self._wheel_peek()
                        if entry is None or (times and times[0] < entry[1]):
                            break
                        self._wheel_cursor_pos += 1
                        self._wheel_count -= 1
                        handle = entry[3]
                        if handle._cancelled:
                            cancelled_skipped += 1
                            continue
                        handle._engine = None
                        self._now = entry[1]
                        fired += 1
                        handle._callback(*handle._args)
                        if max_events is not None and fired > max_events:
                            raise SimulationError(
                                f"run_until_idle exceeded {max_events} events — "
                                f"runaway cascade?"
                            )
                if not times:
                    break
                when = heappop(times)
                if self._tick is None:
                    bucket = buckets.pop(when)
                else:
                    bucket, _ = self._take_quantised(when)
                if when == self._hot_time:
                    self._hot_time = None
                    self._hot_bucket = None
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
                            fired += 1
                            second._callback(*second._args)
                        else:
                            fired += 1
                            first(*second)
                        if max_events is not None and fired > max_events:
                            raise SimulationError(
                                f"run_until_idle exceeded {max_events} events — runaway cascade?"
                            )
                except BaseException:
                    self._salvage(when, list(it))
                    raise
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
            while True:
                if self._wheel_count:
                    while True:
                        entry = self._wheel_peek()
                        if (
                            entry is None
                            or entry[1] > deadline
                            or (times and times[0] < entry[1])
                        ):
                            break
                        self._wheel_cursor_pos += 1
                        self._wheel_count -= 1
                        handle = entry[3]
                        if handle._cancelled:
                            cancelled_skipped += 1
                            continue
                        handle._engine = None
                        self._now = entry[1]
                        fired += 1
                        handle._callback(*handle._args)
                if not times:
                    break
                when = times[0]
                if when > deadline:
                    break
                heappop(times)
                if self._tick is None:
                    bucket = buckets.pop(when)
                else:
                    bucket, _ = self._take_quantised(when)
                if when == self._hot_time:
                    self._hot_time = None
                    self._hot_bucket = None
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
                            fired += 1
                            second._callback(*second._args)
                        else:
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

    def run_for(self, duration: float) -> int:
        """Convenience: :meth:`run_until` ``now + duration``."""
        return self.run_until(self._now + duration)

    # ------------------------------------------------------------------
    # Pickling (scenario snapshots)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The hot-bucket cache is a pure accelerator; dropping it keeps
        # snapshots of otherwise-identical engines byte-identical no
        # matter which instant was posted to last.
        state = {slot: getattr(self, slot) for slot in self.__dict__}
        state["_hot_time"] = None
        state["_hot_bucket"] = None
        # The wheel pickles as its canonical content — the sorted live
        # entries — never as slots/bitmaps/cursor, whose arrangement
        # depends on how far the wheel advanced.  Lazily-cancelled wheel
        # entries are unobservable and dropped (with the books adjusted),
        # so snapshot bytes do not depend on cancellation garbage either.
        entries = list(self._wheel_cursor[self._wheel_cursor_pos:])
        for level_slots in self._wheel_slots:
            for slot in level_slots:
                entries.extend(slot)
        entries.extend(self._wheel_overflow)
        live = sorted(entry for entry in entries if not entry[3]._cancelled)
        dropped = len(entries) - len(live)
        for key in (
            "_wheel_slots", "_wheel_bitmaps", "_wheel_overflow",
            "_wheel_cursor", "_wheel_cursor_pos", "_wheel_pos",
            "_wheel_count",
        ):
            del state[key]
        state["_size"] = self._size - dropped
        state["_cancelled"] = self._cancelled - dropped
        state["_wheel_entries"] = live
        return state

    def __setstate__(self, state: dict) -> None:
        entries = state.pop("_wheel_entries", [])
        self.__dict__.update(state)
        pos = int(self._now * _TICKS_PER_SECOND)
        self._wheel_slots = [
            [[] for _ in range(WHEEL_SLOTS)] for _ in range(WHEEL_LEVELS)
        ]
        self._wheel_bitmaps = [0] * WHEEL_LEVELS
        self._wheel_overflow = []
        self._wheel_cursor = []
        self._wheel_cursor_pos = 0
        self._wheel_pos = pos
        self._wheel_count = 0
        for tick, when, seq, handle in entries:
            # Re-place each entry relative to the rebuilt position; counts
            # and the sequence counter travelled in the pickled state.
            self._wheel_count += 1
            entry = (tick, when, seq, handle)
            if tick <= pos:
                self._wheel_cursor.append(entry)  # `entries` is sorted
                continue
            level = ((tick ^ pos).bit_length() - 1) >> 3
            if level < WHEEL_LEVELS:
                slot = (tick >> (level << 3)) & WHEEL_MASK
                self._wheel_slots[level][slot].append(entry)
                self._wheel_bitmaps[level] |= 1 << slot
            else:
                heappush(self._wheel_overflow, entry)


class PeriodicTask:
    """Repeatedly invokes a callback every ``period`` seconds.

    Used for self-driven protocol cycles (live simulations and the asyncio
    runtime style); the experiment harness instead triggers cycles manually
    for lock-step control.  An optional start ``jitter`` desynchronises node
    cycles the way real deployments are desynchronised.
    """

    def __init__(
        self,
        engine: Engine,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive: {period}")
        if jitter < 0:
            raise SimulationError(f"jitter must be non-negative: {jitter}")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._handle: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._handle = self._engine.schedule(self._jitter + self._period, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:  # the callback may have stopped us
            self._handle = self._engine.schedule(self._period, self._tick)
