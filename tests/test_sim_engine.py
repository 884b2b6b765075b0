"""Tests for the discrete-event engine."""

import heapq
import math
import pickle
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.engine import Engine, events_fired_total


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        engine.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        fired = []
        for label in "abcde":
            engine.schedule(1.0, fired.append, label)
        engine.run_until_idle()
        assert fired == list("abcde")

    def test_time_advances_to_event_timestamps(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.schedule(7.25, lambda: seen.append(engine.now))
        engine.run_until_idle()
        assert seen == [2.5, 7.25]

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run_until_idle()
        assert fired == ["outer", "inner"]
        assert engine.now == 2.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=50))
    def test_firing_order_is_sorted_property(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run_until_idle()
        assert fired == sorted(delays)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        assert handle.cancelled
        engine.run_until_idle()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        handle.cancel()  # must not raise

    def test_cancelled_events_do_not_count_as_fired(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.run_until_idle() == 1


class TestRunUntil:
    def test_run_until_stops_at_deadline(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(5.0, fired.append, "b")
        engine.run_until(3.0)
        assert fired == ["a"]
        assert engine.now == 3.0
        engine.run_until_idle()
        assert fired == ["a", "b"]

    def test_run_until_inclusive_of_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, fired.append, "edge")
        engine.run_until(3.0)
        assert fired == ["edge"]

    def test_run_until_past_deadline_rejected(self):
        engine = Engine(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.run_until(1.0)

    def test_run_until_on_an_empty_queue_ends_at_the_deadline(self):
        engine = Engine()
        engine.run_until(10.0)
        assert engine.now == 10.0


class TestRunawayGuard:
    def test_max_events_guard_trips(self):
        engine = Engine()

        def rescheduler():
            engine.schedule(0.1, rescheduler)

        engine.schedule(0.1, rescheduler)
        with pytest.raises(SimulationError):
            engine.run_until_idle(max_events=100)

    def test_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        assert engine.processed == 5


class TestPostFastPath:
    def test_post_and_schedule_interleave_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, fired.append, "timer")
        engine.post(1.0, fired.append, "msg-early")
        engine.post(3.0, fired.append, "msg-late")
        engine.run_until_idle()
        assert fired == ["msg-early", "timer", "msg-late"]

    def test_post_same_time_fifo_with_schedule(self):
        engine = Engine()
        fired = []
        engine.post(1.0, fired.append, "a")
        engine.schedule(1.0, fired.append, "b")
        engine.post(1.0, fired.append, "c")
        engine.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().post(-0.1, lambda: None)

    def test_posted_events_respect_run_until(self):
        engine = Engine()
        fired = []
        engine.post(1.0, fired.append, "a")
        engine.post(2.0, fired.append, "b")
        engine.run_until(1.5)
        assert fired == ["a"]
        engine.run_until(5.0)
        assert fired == ["a", "b"]
        assert engine.processed == 2


class TestCancelledAccounting:
    def test_live_pending_excludes_cancelled(self):
        engine = Engine()
        handles = [engine.schedule(1.0, lambda: None) for _ in range(10)]
        engine.post(1.0, lambda: None)
        assert engine.pending == 11
        assert engine.live_pending == 11
        for handle in handles[:4]:
            handle.cancel()
        assert engine.pending == 11
        assert engine.live_pending == 7
        assert engine.cancelled_pending == 4

    def test_double_cancel_counted_once(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.cancelled_pending == 1
        assert engine.live_pending == 0

    def test_cancel_after_fire_not_counted(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        handle.cancel()
        assert engine.cancelled_pending == 0
        assert engine.pending == 0

    def test_popping_cancelled_events_decrements_counter(self):
        engine = Engine()
        keep = []
        handle = engine.schedule(1.0, keep.append, "x")
        handle.cancel()
        engine.schedule(2.0, keep.append, "y")
        engine.run_until_idle()
        assert keep == ["y"]
        assert engine.cancelled_pending == 0
        assert engine.live_pending == 0


class TestHeapCompaction:
    def test_compact_reclaims_cancelled_events(self):
        engine = Engine()
        handles = [engine.schedule(1.0 + i, lambda: None) for i in range(100)]
        for handle in handles:
            handle.cancel()
        # Auto-compaction fires once cancelled events exceed both the
        # floor and half the queue: the heap must physically shrink, and
        # the books must balance (pending = live + cancelled).
        assert engine.pending < 100
        assert engine.live_pending == 0
        assert engine.pending == engine.cancelled_pending
        engine.compact()
        assert engine.pending == 0

    def test_compaction_preserves_live_events_and_order(self):
        engine = Engine()
        fired = []
        live = [engine.schedule(10.0 + i, fired.append, i) for i in range(5)]
        doomed = [engine.schedule(1.0 + i, fired.append, 1000 + i) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert engine.pending < len(live) + len(doomed)  # auto-compacted
        assert engine.live_pending == len(live)
        engine.run_until_idle()
        assert fired == [0, 1, 2, 3, 4]

    def test_small_queues_not_compacted(self):
        engine = Engine()
        handles = [engine.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the floor the cancelled events stay parked (lazy removal).
        assert engine.pending == 10
        assert engine.live_pending == 0
        assert engine.compact() == 10
        assert engine.pending == 0

    def test_explicit_compact_mid_run(self):
        engine = Engine()
        fired = []

        def cancel_and_compact():
            for handle in doomed:
                handle.cancel()
            engine.compact()
            fired.append("compacted")

        engine.schedule(1.0, cancel_and_compact)
        doomed = [engine.schedule(5.0, fired.append, "doomed") for _ in range(50)]
        engine.schedule(9.0, fired.append, "tail")
        engine.run_until_idle()
        assert fired == ["compacted", "tail"]


class TestBucketQueue:
    """Edge cases of the per-timestamp bucket layout (the calendar queue)."""

    def test_far_future_timer_overflows_past_near_buckets(self):
        """A timer far beyond the active timestamps sits in the overflow
        (timestamp heap) and fires last, surviving many near buckets."""
        engine = Engine()
        fired = []
        engine.schedule(1_000_000.0, fired.append, "far")

        def hop(i):
            fired.append(i)
            if i < 50:
                engine.post(0.001, hop, i + 1)

        engine.post(0.001, hop, 0)
        engine.run_until_idle()
        assert fired == list(range(51)) + ["far"]
        assert engine.now == 1_000_000.0

    def test_far_future_timer_not_touched_by_run_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1_000_000.0, fired.append, "far")
        engine.post(1.0, fired.append, "near")
        engine.run_until(10.0)
        assert fired == ["near"]
        assert engine.live_pending == 1
        engine.run_until_idle()
        assert fired == ["near", "far"]

    def test_same_tick_fifo_across_posts_and_timers(self):
        """Events at one instant fire in scheduling order regardless of
        which API queued them — the exact order the old (time, seq) heap
        guaranteed."""
        engine = Engine()
        fired = []
        engine.post(1.0, fired.append, "p0")
        engine.schedule(1.0, fired.append, "t0")
        engine.post(1.0, fired.append, "p1")
        engine.schedule(1.0, fired.append, "t1")
        engine.post(1.0, fired.append, "p2")
        engine.run_until_idle()
        assert fired == ["p0", "t0", "p1", "t1", "p2"]

    def test_zero_delay_post_during_drain_fires_at_same_instant(self):
        """A delay-0 post from a callback lands after the current bucket
        but before any later timestamp, at an unchanged clock."""
        engine = Engine()
        fired = []

        def first():
            fired.append(("first", engine.now))
            engine.post(0.0, nested)

        def nested():
            fired.append(("nested", engine.now))

        engine.post(1.0, first)
        engine.post(1.0, fired.append, ("sibling", None))
        engine.post(2.0, fired.append, ("later", None))
        engine.run_until_idle()
        assert fired == [
            ("first", 1.0), ("sibling", None), ("nested", 1.0), ("later", None),
        ]

    def test_cancel_then_compact_preserves_survivor_order(self):
        """Compaction removes cancelled entries from every bucket without
        perturbing the firing order of the survivors."""
        engine = Engine()
        fired = []
        doomed = []
        survivors = []
        for i in range(100):
            when = 1.0 + (i % 5)  # five buckets, interleaved entries
            doomed.append(engine.schedule(when, fired.append, ("doomed", i)))
            survivors.append(engine.schedule(when, fired.append, i))
        for handle in doomed:
            handle.cancel()
        removed = engine.compact()
        assert removed > 0
        assert engine.cancelled_pending == 0
        assert engine.pending == 100
        engine.run_until_idle()
        # Survivors fire grouped by bucket (when), FIFO inside each.
        expected = [i for offset in range(5) for i in range(offset, 100, 5)]
        assert fired == expected

    def test_compact_drops_empty_buckets_from_overflow(self):
        engine = Engine()
        handles = [engine.schedule(10.0 + i, lambda: None) for i in range(50)]
        keeper = engine.schedule(5.0, lambda: None)
        for handle in handles:
            handle.cancel()
        engine.compact()
        assert engine.pending == 1
        assert engine.live_pending == 1
        engine.run_until_idle()
        assert engine.now == keeper.time

    def test_cancel_compact_inside_bucket_being_drained(self):
        """Cancelling and compacting from a callback while later entries of
        the *same* bucket are still queued must skip them correctly."""
        engine = Engine()
        fired = []

        def killer():
            for handle in doomed:
                handle.cancel()
            engine.compact()
            fired.append("killer")

        engine.schedule(1.0, killer)
        doomed = [engine.schedule(1.0, fired.append, "doomed") for _ in range(80)]
        engine.schedule(1.0, fired.append, "tail")
        engine.run_until_idle()
        assert fired == ["killer", "tail"]
        assert engine.pending == 0
        assert engine.cancelled_pending == 0

    def test_runaway_guard_keeps_unfired_remainder_queued(self):
        """Tripping max_events mid-bucket must not lose the queued tail."""
        engine = Engine()
        fired = []
        for i in range(10):
            engine.post(1.0, fired.append, i)
        with pytest.raises(SimulationError, match="runaway"):
            engine.run_until_idle(max_events=5)
        assert fired == list(range(6))  # the guard trips on event 6
        assert engine.live_pending == 4
        engine.run_until_idle()
        assert fired == list(range(10))
        assert engine.pending == 0

    def test_pickle_round_trip_preserves_queue(self):
        engine = Engine()
        engine.post(1.0, print, "x")  # top-level callable: picklable
        engine.post(1.0, print, "y")
        engine.schedule(2.0, print, "z")
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.pending == 3
        assert clone.live_pending == 3

    def test_hot_bucket_cache_never_pickled(self):
        """The hot-bucket cache is a pure accelerator: it is dropped on
        pickling, so snapshot bytes are a fixed point of the round trip
        and a thawed engine starts with a cold cache."""
        engine = Engine()
        engine.post(1.0, print, "x")
        engine.post(1.0, print, "y")  # leaves the hot cache set
        assert engine._hot_time is not None
        frozen = pickle.dumps(engine)
        thawed = pickle.loads(frozen)
        assert thawed._hot_time is None
        assert thawed._hot_bucket is None
        assert pickle.dumps(thawed) == frozen
        # And the thawed copy still accepts hot-path posts correctly.
        thawed.post(1.0, print, "z")
        assert thawed.pending == 3

    def test_pickle_round_trip_is_canonical_fixed_point(self):
        """Snapshots hold live events only: a cancelled timer never
        reaches the bytes (they equal those of an engine that never
        scheduled it), and a thawed engine re-freezes to the same bytes."""
        def build(with_garbage: bool) -> Engine:
            engine = Engine()
            engine.schedule(0.3, print, "a")
            if with_garbage:
                engine.schedule(0.2, print, "doomed").cancel()
            engine.schedule(4.0, print, "b")
            engine.schedule(1e7, print, "c")
            return engine

        frozen = pickle.dumps(build(with_garbage=True))
        assert frozen == pickle.dumps(build(with_garbage=False))
        thawed = pickle.loads(frozen)
        assert pickle.dumps(thawed) == frozen
        assert thawed.pending == thawed.live_pending == 3

    def test_pickle_mid_run_continues_identically(self):
        """Freezing an engine mid-stream (near timers fired, same-instant
        and far-future ones still queued) and resuming the thawed copy
        fires exactly what an uninterrupted engine fires."""
        def build() -> Engine:
            engine = Engine()
            for i in range(8):
                engine.schedule(0.1 + i / 3000, _record_global, i)
            engine.schedule(0.6, _record_global, "first")
            engine.schedule(0.6001, _record_global, "second")
            engine.schedule(0.6, _record_global, "third")  # same instant as first
            engine.schedule(1e7, _record_global, "far")
            return engine

        _GLOBAL_FIRED.clear()
        reference = build()
        reference.run_until_idle()
        expected = list(_GLOBAL_FIRED)
        assert expected[-4:] == ["first", "third", "second", "far"]

        _GLOBAL_FIRED.clear()
        engine = build()
        engine.run_until(0.101)
        assert 0 < len(_GLOBAL_FIRED) < len(expected)
        thawed = pickle.loads(pickle.dumps(engine))
        thawed.run_until_idle()
        assert _GLOBAL_FIRED == expected
        assert thawed.live_pending == 0
        assert thawed.now == reference.now

    def test_far_future_timers_fire_in_order_after_near_ones(self):
        engine = Engine()
        fired = []
        engine.schedule(1e7 + 2.0, fired.append, "later")
        engine.schedule(1e7 + 1.0, fired.append, "sooner")
        engine.schedule(0.5, fired.append, "near")
        engine.run_until_idle()
        assert fired == ["near", "sooner", "later"]
        assert engine.now == 1e7 + 2.0

    def test_events_fired_total_advances(self):
        before = events_fired_total()
        engine = Engine()
        for _ in range(7):
            engine.post(1.0, lambda: None)
        engine.run_until_idle()
        assert events_fired_total() - before == 7


#: Shared sink for the mid-run pickling test: module-level functions
#: pickle by reference, so a thawed engine's callbacks append to the
#: *same* list as the original's — the combined order is observable.
_GLOBAL_FIRED: list = []


def _record_global(label) -> None:
    _GLOBAL_FIRED.append(label)


class _ReferenceHeap:
    """The oracle the queue is checked against: one ``(time, seq)`` heap.
    A cancelled entry is skipped when popped and never moves the clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.fired: list = []
        self._queue: list = []
        self._seq = count()
        self._cancelled: set = set()

    def add(self, delay, label, victim=None) -> None:
        """Queue ``label``; firing it cancels ``victim`` (a label)."""
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), label, victim))

    def cancel(self, label) -> None:
        self._cancelled.add(label)

    @property
    def live(self) -> int:
        return sum(1 for entry in self._queue if entry[2] not in self._cancelled)

    def drain(self, deadline: float = math.inf) -> None:
        while self._queue and self._queue[0][0] <= deadline:
            when, _, label, victim = heapq.heappop(self._queue)
            if label in self._cancelled:
                continue
            self.now = when
            self.fired.append((label, when))
            if victim is not None:
                self.cancel(victim)
        if deadline != math.inf:
            self.now = deadline


#: How a test drains the engine: to idle, or up to a horizon past which
#: far timers stay queued across rounds.
DRAINS = {
    "run_until_idle": Engine.run_until_idle,
    "run_until": lambda engine: engine.run_until(engine.now + 100.0),
}


def _play(rounds, drain: str, *, compact_after_cancel: bool = False, model=None):
    """Run ``rounds`` of ``(delay, is_timer, victim)`` ops on a fresh engine.

    Every round schedules its ops, then drains.  When op ``i`` fires it
    cancels the round's op ``victim`` (if that one is a timer) — a cancel
    issued *from an earlier event against a later timer* whenever the
    victim is still queued.  Returns ``(fired, clocks)``: every
    ``(label, now)`` seen by a callback and ``now`` after each drain.  The
    books are checked on the way; with a ``model`` the same script is
    replayed on it drain by drain.
    """
    engine = Engine()
    fired: list = []
    clocks: list[float] = []
    handles: dict = {}

    def books() -> None:
        assert engine.cancelled_pending >= 0
        assert engine.pending >= engine.live_pending >= 0

    def fire(label, victim) -> None:
        fired.append((label, engine.now))
        handle = handles.get(victim)
        if handle is not None:
            handle.cancel()
            if compact_after_cancel:
                engine.compact()
        books()

    for number, operations in enumerate(rounds):
        for index, (delay, is_timer, victim) in enumerate(operations):
            label = (number, index)
            target = None
            if victim is not None and victim < len(operations) and operations[victim][1]:
                target = (number, victim)
            if is_timer:
                handles[label] = engine.schedule(delay, fire, label, target)
            else:
                engine.post(delay, fire, label, target)
            if model is not None:
                model.add(delay, label, target)
            books()
        DRAINS[drain](engine)
        books()
        clocks.append(engine.now)
        if model is not None:
            model.drain(engine.now if drain == "run_until" else math.inf)
            assert fired == model.fired
            assert engine.now == model.now
            assert engine.live_pending == model.live
        if drain != "run_until":
            assert engine.pending == engine.live_pending == engine.cancelled_pending == 0
    return fired, clocks


_ROUNDS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.01, 0.25, 0.3, 0.5, 2.0, 30.0, 300.0]),
            st.booleans(),
            st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=4,
)


class TestOrderEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 30.0]),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_bucket_queue_matches_reference_heap_order(self, operations):
        """Mixed post/schedule/cancel traffic fires in exactly the order
        the old mixed-tuple heap produced."""
        engine = Engine()
        model = _ReferenceHeap()
        fired = []
        for index, (delay, cancel) in enumerate(operations):
            model.add(delay, index)
            if cancel:
                engine.schedule(delay, fired.append, index).cancel()
                model.cancel(index)
            elif index % 2:
                engine.schedule(delay, fired.append, index)
            else:
                engine.post(delay, fired.append, index)
        engine.run_until_idle()
        model.drain()
        assert fired == [label for label, _ in model.fired]
        assert engine.pending == engine.cancelled_pending

    def test_nearer_timer_after_a_cancelled_far_one_fires(self):
        """Regression (PR 22): the timer wheel staged Y, Y was cancelled
        from the 0.5 event, and the nearer Z scheduled after the drain was
        bisected into the consumed prefix of the wheel cursor — never
        fired, ``cancelled_pending == -1``."""
        engine = Engine()
        fired = []
        doomed = engine.schedule(2.0, fired.append, "Y")
        engine.post(0.5, doomed.cancel)
        engine.run_until_idle()
        engine.schedule(0.25, fired.append, "Z")
        engine.run_until_idle()
        assert fired == ["Z"]
        assert engine.now == 0.75
        assert engine.pending == engine.live_pending == engine.cancelled_pending == 0

    @settings(max_examples=150, deadline=None)
    @given(_ROUNDS, st.sampled_from(sorted(DRAINS)))
    def test_mid_run_cancels_match_reference_heap(self, rounds, drain):
        """Timers cancelled by earlier events, a drain, then nearer timers
        — over several drains — fire in the reference heap's order at the
        reference heap's clock, and the books stay balanced throughout."""
        _play(rounds, drain, model=_ReferenceHeap())


class TestLazyCancellation:
    #: ``(delay, is_timer, victim)`` rounds for :func:`_play`.  The first
    #: and last end on garbage only — the far timer is cancelled by a
    #: nearer event, so the last bucket the drain meets is all dead; the
    #: middle one mixes a dead and a live entry in one bucket, and the
    #: last also cancels inside the bucket being drained.
    SCRIPT = [
        [(2.0, True, None), (0.5, False, 0), (0.5, True, None)],
        [(0.25, True, None), (1.0, True, None), (0.25, False, 1), (1.0, True, 0)],
        [(0.0, True, 1), (0.0, True, None), (30.0, True, None), (0.01, False, 2)],
    ]

    @pytest.mark.parametrize("drain", sorted(DRAINS))
    def test_compaction_is_unobservable(self, drain):
        """The same script with ``compact()`` forced after every cancel
        yields the same fired sequence, the same clock inside every
        callback and the same ``now`` after every drain."""
        lazy = _play(self.SCRIPT, drain)
        eager = _play(self.SCRIPT, drain, compact_after_cancel=True)
        assert lazy == eager
        assert len(lazy[0]) == 7  # 11 ops, 4 cancelled before firing
        if drain != "run_until":
            assert lazy[1] == [0.5, 1.5, 1.51]  # dead buckets never moved the clock


class TestCompactionBackoff:
    def test_mass_same_instant_cancels_do_not_rescan_per_cancel(self):
        """Cancelling many handles of the bucket currently being drained
        must not trigger a full (and futile) compaction per cancel: the
        watermark backs off exponentially when nothing was reclaimable."""
        engine = Engine()
        compactions = []
        original = engine.compact

        def counting_compact():
            compactions.append(engine.cancelled_pending)
            return original()

        engine.compact = counting_compact

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        engine.schedule(1.0, cancel_all)
        doomed = [engine.schedule(1.0, lambda: None) for _ in range(2000)]
        engine.run_until_idle()
        # O(log N) rebuild attempts, not one per cancel past the floor.
        assert len(compactions) <= 12
        assert engine.pending == 0
        assert engine.cancelled_pending == 0

    def test_watermark_resets_after_clean_sweep(self):
        engine = Engine()
        handles = [engine.schedule(1.0 + i, lambda: None) for i in range(200)]
        for handle in handles:
            handle.cancel()  # reachable: auto-compaction sweeps most away
        engine.compact()  # sweep the sub-floor remainder
        assert engine.cancelled_pending == 0
        assert engine._compact_watermark == 64  # back at COMPACTION_FLOOR
