"""Unit and property tests for the bounded view container."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.ids import NodeId
from repro.common.rng import StreamRandom
from repro.core.views import BoundedView


def nid(i: int) -> NodeId:
    return NodeId(f"n{i}", 1)


class TestBasics:
    def test_add_contains_len(self):
        view = BoundedView(3)
        view.add(nid(1))
        assert nid(1) in view
        assert len(view) == 1
        assert not view.is_full
        assert view.capacity - len(view) == 2

    def test_capacity_validation(self):
        with pytest.raises(ProtocolError):
            BoundedView(0)

    def test_duplicate_add_rejected(self):
        view = BoundedView(3, [nid(1)])
        with pytest.raises(ProtocolError):
            view.add(nid(1))

    def test_overflow_rejected(self):
        view = BoundedView(2, [nid(1), nid(2)])
        assert view.is_full
        with pytest.raises(ProtocolError):
            view.add(nid(3))

    def test_remove(self):
        view = BoundedView(3, [nid(1), nid(2)])
        view.remove(nid(1))
        assert nid(1) not in view
        assert nid(2) in view

    def test_remove_absent_raises(self):
        view = BoundedView(3)
        with pytest.raises(ProtocolError):
            view.remove(nid(1))

    def test_discard(self):
        view = BoundedView(3, [nid(1)])
        assert view.discard(nid(1)) is True
        assert view.discard(nid(1)) is False

    def test_members_snapshot_is_immutable_copy(self):
        view = BoundedView(3, [nid(1)])
        snapshot = view.members()
        view.add(nid(2))
        assert snapshot == (nid(1),)

    def test_iteration(self):
        view = BoundedView(5, [nid(1), nid(2), nid(3)])
        assert sorted(view) == sorted([nid(1), nid(2), nid(3)])


class TestRandomSelection:
    def test_random_member_empty(self):
        assert BoundedView(3).random_member(random.Random(0)) is None

    def test_random_member_uniformish(self):
        view = BoundedView(3, [nid(1), nid(2), nid(3)])
        rng = random.Random(0)
        seen = {view.random_member(rng) for _ in range(100)}
        assert seen == {nid(1), nid(2), nid(3)}

    def test_random_member_respects_exclude(self):
        view = BoundedView(3, [nid(1), nid(2)])
        rng = random.Random(0)
        for _ in range(20):
            assert view.random_member(rng, exclude=(nid(1),)) == nid(2)

    def test_random_member_all_excluded(self):
        view = BoundedView(3, [nid(1)])
        assert view.random_member(random.Random(0), exclude=(nid(1),)) is None

    def test_sample_distinct(self):
        view = BoundedView(10, [nid(i) for i in range(10)])
        sample = view.sample(random.Random(0), 5)
        assert len(sample) == 5
        assert len(set(sample)) == 5

    def test_sample_larger_than_view(self):
        view = BoundedView(10, [nid(1), nid(2)])
        sample = view.sample(random.Random(0), 5)
        assert sorted(sample) == sorted([nid(1), nid(2)])

    def test_sample_zero(self):
        view = BoundedView(3, [nid(1)])
        assert view.sample(random.Random(0), 0) == []

    def test_sample_with_exclusions(self):
        view = BoundedView(5, [nid(i) for i in range(5)])
        sample = view.sample(random.Random(0), 5, exclude=(nid(0), nid(1)))
        assert set(sample) == {nid(2), nid(3), nid(4)}


@st.composite
def view_operations(draw):
    """A random sequence of add/remove/discard operations."""
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove", "discard"]), st.integers(0, 15)),
            max_size=60,
        )
    )
    capacity = draw(st.integers(min_value=1, max_value=8))
    return capacity, ops


class TestInvariantsProperty:
    @settings(max_examples=200)
    @given(view_operations())
    def test_view_invariants_under_random_operations(self, scenario):
        """Whatever the operation order: no duplicates, size <= capacity,
        membership index consistent with the item list."""
        capacity, ops = scenario
        view = BoundedView(capacity)
        model = set()
        for op, i in ops:
            node = nid(i)
            if op == "add":
                if node in model or len(model) >= capacity:
                    with pytest.raises(ProtocolError):
                        view.add(node)
                else:
                    view.add(node)
                    model.add(node)
            elif op == "remove":
                if node in model:
                    view.remove(node)
                    model.remove(node)
                else:
                    with pytest.raises(ProtocolError):
                        view.remove(node)
            else:
                assert view.discard(node) == (node in model)
                model.discard(node)
            assert len(view) == len(model)
            assert set(view.members()) == model
            assert len(set(view.members())) == len(view.members())
            assert len(view) <= capacity
            for member in model:
                assert member in view

    @settings(max_examples=100)
    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=20),
        st.integers(0, 25),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_sample_properties(self, members, k, seed):
        nodes = [nid(i) for i in members]
        view = BoundedView(len(nodes), nodes)
        sample = view.sample(random.Random(seed), k)
        assert len(sample) == min(k, len(nodes))
        assert len(set(sample)) == len(sample)
        assert set(sample) <= set(nodes)


def _oracle_random_member(items, rng, exclude=()):
    """``BoundedView.random_member`` as it stood before the allocation-free
    rewrite: a set and a candidate list per call."""
    if not items:
        return None
    exclude_set = set(exclude)
    if not exclude_set:
        return rng.choice(items)
    candidates = [node for node in items if node not in exclude_set]
    if not candidates:
        return None
    return rng.choice(candidates)


def _oracle_sample(items, rng, k, exclude=()):
    """``BoundedView.sample`` as it stood before the rewrite."""
    if k <= 0:
        return []
    exclude_set = set(exclude)
    if exclude_set:
        candidates = [node for node in items if node not in exclude_set]
    else:
        candidates = items
    if k >= len(candidates):
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        return shuffled
    return rng.sample(candidates, k)


@st.composite
def views_and_excludes(draw):
    """A view after some churn (so list order is not insertion order) and an
    exclusion that mixes members, strangers and duplicates, as a tuple, a
    list, a set or a frozenset; sometimes it covers the whole view."""
    members = draw(st.lists(st.integers(0, 12), unique=True, max_size=10))
    view = BoundedView(10, [nid(i) for i in members])
    for i in draw(st.lists(st.sampled_from(members), unique=True)) if members else []:
        view.remove(nid(i))
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, 15), max_size=8))
    else:
        picks = members + draw(st.lists(st.integers(0, 15), max_size=3))
    shape = draw(st.sampled_from([tuple, list, set, frozenset]))
    return view, shape(nid(i) for i in picks)


class TestDrawPreservation:
    """Same member **and the same words drawn** as the old bodies, so every
    seeded overlay — and every pinned artifact — is unchanged."""

    @settings(max_examples=300)
    @given(views_and_excludes(), st.integers(0, 2**32))
    def test_random_member_matches_the_oracle(self, case, seed):
        view, exclude = case
        before = view.members()
        ours, theirs = StreamRandom(seed), StreamRandom(seed)
        assert view.random_member(ours, exclude) == _oracle_random_member(
            list(before), theirs, exclude
        )
        assert ours.words_consumed == theirs.words_consumed
        assert view.members() == before
        if all(node in exclude for node in before):
            assert ours.words_consumed == 0  # nobody eligible: None, and no draw

    @settings(max_examples=300)
    @given(views_and_excludes(), st.integers(-1, 12), st.integers(0, 2**32))
    def test_sample_matches_the_oracle(self, case, k, seed):
        view, exclude = case
        before = view.members()
        ours, theirs = StreamRandom(seed), StreamRandom(seed)
        assert view.sample(ours, k, exclude) == _oracle_sample(list(before), theirs, k, exclude)
        assert ours.words_consumed == theirs.words_consumed
        assert view.members() == before  # sampling never reorders the view

    def test_sample_result_is_the_callers_to_keep(self):
        view = BoundedView(4, [nid(i) for i in range(4)])
        everyone = view.sample(random.Random(0), 99)
        everyone.clear()
        assert len(view) == 4 and len(view.sample(random.Random(0), 99)) == 4
