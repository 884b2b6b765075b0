"""Tests for deterministic random-stream management."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.common.rng import (
    _SKIP_WORDS,
    SeedSequence,
    StreamRandom,
    choice_or_none,
    sample_up_to,
)


class TestSeedSequence:
    def test_same_label_same_stream(self):
        seeds = SeedSequence(42)
        a = [seeds.stream("x").random() for _ in range(5)]
        b = [seeds.stream("x").random() for _ in range(5)]
        assert a == b

    def test_different_labels_differ(self):
        seeds = SeedSequence(42)
        assert seeds.stream("x").random() != seeds.stream("y").random()

    def test_different_roots_differ(self):
        assert SeedSequence(1).stream("x").random() != SeedSequence(2).stream("x").random()

    def test_node_stream_isolated_by_purpose(self):
        seeds = SeedSequence(0)
        node = NodeId("n", 1)
        assert (
            seeds.node_stream(node, "membership").random()
            != seeds.node_stream(node, "gossip").random()
        )

    def test_order_independence(self):
        """Creating extra streams must not perturb existing ones."""
        seeds_a = SeedSequence(9)
        seeds_a.stream("noise-1")
        value_a = seeds_a.stream("target").random()
        seeds_b = SeedSequence(9)
        value_b = seeds_b.stream("target").random()
        assert value_a == value_b


class TestSampleUpTo:
    def test_k_larger_than_population(self):
        rng = random.Random(0)
        assert sorted(sample_up_to(rng, [1, 2, 3], 10)) == [1, 2, 3]

    def test_k_zero_or_negative(self):
        rng = random.Random(0)
        assert sample_up_to(rng, [1, 2, 3], 0) == []
        assert sample_up_to(rng, [1, 2, 3], -1) == []

    def test_distinct_samples(self):
        rng = random.Random(0)
        sample = sample_up_to(rng, list(range(100)), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    @given(st.lists(st.integers(), unique=True, max_size=30), st.integers(0, 40))
    def test_sample_is_subset_property(self, population, k):
        rng = random.Random(7)
        sample = sample_up_to(rng, population, k)
        assert len(sample) == min(k if k > 0 else 0, len(population))
        assert set(sample) <= set(population)


class TestChoiceOrNone:
    def test_empty_population(self):
        assert choice_or_none(random.Random(0), []) is None

    def test_singleton(self):
        assert choice_or_none(random.Random(0), [5]) == 5

    def test_choice_from_population(self):
        rng = random.Random(0)
        assert choice_or_none(rng, [1, 2, 3]) in (1, 2, 3)


class TestStreamRandom:
    """The compact (seed, words-consumed) encoding of RNG streams."""

    def _exercise(self, stream):
        stream.random()
        stream.shuffle(list(range(57)))
        stream.sample(range(100), 13)
        stream.choice(range(7))
        stream.uniform(0.0, 1.0)
        stream.getrandbits(128)
        stream.randrange(10**12)

    def test_draws_match_plain_random(self):
        """Counting must not perturb the stream: same seed, same draws."""
        from repro.common.rng import StreamRandom

        counted = StreamRandom(1234)
        plain = random.Random(1234)
        assert [counted.random() for _ in range(5)] == [plain.random() for _ in range(5)]
        assert counted.sample(range(50), 8) == plain.sample(range(50), 8)
        a, b = list(range(20)), list(range(20))
        counted.shuffle(a)
        plain.shuffle(b)
        assert a == b

    def test_word_count_is_exact(self):
        """Fast-forwarding a fresh stream by the recorded word count must
        reproduce the generator state bit-for-bit."""
        from repro.common.rng import StreamRandom

        stream = StreamRandom(98765)
        self._exercise(stream)
        assert _advanced(98765, stream.words_consumed).getstate() == stream.getstate()

    def test_pickle_is_compact(self):
        import pickle

        from repro.common.rng import StreamRandom

        stream = StreamRandom(42)
        self._exercise(stream)
        compact = pickle.dumps(stream, protocol=pickle.HIGHEST_PROTOCOL)
        full = pickle.dumps(random.Random(42), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(compact) < 120
        assert len(full) > 2000  # the state it replaces: ~2.5 KB per stream
        assert len(full) / len(compact) > 15

    def test_unpickled_stream_continues_identically(self):
        import pickle

        from repro.common.rng import StreamRandom

        original = StreamRandom(7)
        self._exercise(original)
        thawed = pickle.loads(pickle.dumps(original))
        assert [original.random() for _ in range(10)] == [
            thawed.random() for _ in range(10)
        ]
        assert original.sample(range(200), 17) == thawed.sample(range(200), 17)

    def test_materialization_is_lazy(self):
        import pickle

        from repro.common.rng import StreamRandom

        original = StreamRandom(7)
        self._exercise(original)
        thawed = pickle.loads(pickle.dumps(original))
        assert thawed._pending_words == original.words_consumed
        # Re-pickling an untouched thawed stream costs no fast-forward and
        # is byte-identical to the first freeze.
        assert pickle.dumps(thawed) == pickle.dumps(original)
        assert thawed._pending_words == original.words_consumed
        thawed.random()  # first draw pays the (cheap) fast-forward
        assert thawed._pending_words == 0

    def test_reseeding_resets_the_count(self):
        from repro.common.rng import StreamRandom

        stream = StreamRandom(1)
        stream.random()
        assert stream.words_consumed > 0
        stream.seed(2)
        assert stream.words_consumed == 0
        assert stream.random() == random.Random(2).random()

    def test_seed_sequence_hands_out_stream_randoms(self):
        from repro.common.rng import SeedSequence, StreamRandom

        seeds = SeedSequence(3)
        assert isinstance(seeds.stream("x"), StreamRandom)
        assert isinstance(seeds.node_stream(NodeId("n", 1)), StreamRandom)

    def test_unreplayable_operations_fail_loudly(self):
        """gauss() hides cached state and setstate() bypasses the word
        counter — both would silently corrupt snapshot replay, so both
        must raise instead."""
        import pytest

        from repro.common.rng import StreamRandom

        stream = StreamRandom(5)
        with pytest.raises(NotImplementedError, match="gauss"):
            stream.gauss(0.0, 1.0)
        with pytest.raises(NotImplementedError, match="state"):
            stream.setstate(random.Random(5).getstate())
        # The stateless equivalent stays available and exactly counted.
        stream.normalvariate(0.0, 1.0)
        thawed = __import__("pickle").loads(__import__("pickle").dumps(stream))
        assert thawed.normalvariate(0.0, 1.0) == stream.normalvariate(0.0, 1.0)

    def test_os_entropy_seed_rejected(self):
        import pytest

        from repro.common.rng import StreamRandom

        with pytest.raises(ValueError, match="explicit seed"):
            StreamRandom(None)
        stream = StreamRandom(5)
        with pytest.raises(ValueError, match="explicit seed"):
            stream.seed()


#: One drawing call: (method name, arguments).  Together they reach all three
#: counted primitives — ``_randbelow`` (choice / sample / shuffle / randrange,
#: populations from one element to beyond 2**32 so every word width and the
#: rejection loop occur), ``random`` (uniform / random) and ``getrandbits``.
_DRAWS = st.one_of(
    st.tuples(st.just("choice"), st.integers(1, 70)),
    st.tuples(st.just("sample"), st.integers(0, 70), st.integers(0, 70)),
    st.tuples(st.just("shuffle"), st.integers(0, 40)),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.just("random")),
    st.tuples(st.just("getrandbits"), st.integers(1, 130)),
)


def _draw(rng, name, *args):
    if name == "choice":
        return rng.choice(range(args[0]))
    if name == "sample":
        return rng.sample(range(max(args)), min(args))
    if name == "shuffle":
        items = list(range(args[0]))
        rng.shuffle(items)
        return items
    return getattr(rng, name)(*args)


def _advanced(seed, words):
    """A plain generator ``words`` 32-bit words past ``seed``."""
    reference = random.Random(seed)
    for _ in range(words):
        reference.getrandbits(32)
    return reference


class TestDrawPreservation:
    """A ``StreamRandom`` is ``random.Random`` plus a counter: same values,
    same generator state, and a count that is the state's exact distance
    from the seed.  Every byte-pinned artifact rests on this."""

    @given(st.integers(0, 2**64 - 1), st.lists(_DRAWS, max_size=30))
    def test_value_for_value_with_plain_random(self, seed, draws):
        counted, plain = StreamRandom(seed), random.Random(seed)
        for draw in draws:
            assert _draw(counted, *draw) == _draw(plain, *draw)
        assert counted.getstate() == plain.getstate()

    @given(st.integers(0, 2**64 - 1), st.lists(_DRAWS, max_size=30))
    def test_words_consumed_is_the_references_advance(self, seed, draws):
        counted, plain = StreamRandom(seed), random.Random(seed)
        for draw in draws:
            _draw(counted, *draw)
            _draw(plain, *draw)
        assert _advanced(seed, counted.words_consumed).getstate() == plain.getstate()

    @pytest.mark.parametrize(
        "words", [0, 1, 2, 7, _SKIP_WORDS - 1, _SKIP_WORDS, _SKIP_WORDS + 1, 2 * _SKIP_WORDS + 3]
    )
    @pytest.mark.parametrize(
        "first", [("random",), ("getrandbits", 45), ("choice", 5), ("sample", 9, 4), ("getstate",)]
    )
    def test_thawed_stream_replays_from_any_offset(self, words, first):
        """Zero, odd, even, and more than one fast-forward chunk."""
        stream = StreamRandom(20071)
        for _ in range(words):
            stream.getrandbits(32)
        thawed = pickle.loads(pickle.dumps(stream))
        assert thawed.words_consumed == words
        reference = _advanced(20071, words)
        assert _draw(thawed, *first) == _draw(reference, *first)
        assert thawed.getstate() == reference.getstate()
        assert [thawed.random() for _ in range(3)] == [reference.random() for _ in range(3)]

    def test_choice_of_nothing_still_raises(self):
        with pytest.raises(IndexError):
            StreamRandom(1).choice([])
