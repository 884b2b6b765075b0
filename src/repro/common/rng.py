"""Deterministic random-stream management.

Every stochastic decision in the library — gossip target selection, random
walks, shuffle sampling, failure injection — draws from a
:class:`random.Random` stream derived from a single root seed.  Runs are
therefore reproducible from ``(seed, configuration)`` alone, which the
experiment harness relies on when comparing protocols on identical
failure patterns.

Streams are :class:`StreamRandom` instances: Mersenne-Twister generators
that *count the 32-bit words they consume* and pickle as the two-integer
pair ``(seed, words_consumed)`` instead of the full 624-word MT state
(~2.5 KB per stream).  A scenario snapshot therefore carries ~60 bytes per
stream, and a rehydrated stream lazily fast-forwards to the exact same
state on its first draw — same state, same future draws, byte-identical
experiment results.  This is what keeps ``Scenario.freeze()`` blobs small
at paper scale (three streams per node × 10 000 nodes used to dominate
the snapshot cache).

The counting is exact because MT19937 is a stream of 32-bit words and
every public drawing method of :class:`random.Random` funnels through the
three primitives this class overrides: ``random()`` consumes exactly two
words, ``getrandbits(k)`` consumes ``ceil(k / 32)``, and ``_randbelow(n)``
(what ``choice`` / ``sample`` / ``shuffle`` / ``randrange`` draw through)
is the stdlib's rejection loop over ``getrandbits``, counted once per call.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

from .ids import NodeId

T = TypeVar("T")

#: The uncounted C generator methods; the counted overrides draw through them.
_mt_random = random.Random.random
_mt_getrandbits = random.Random.getrandbits
#: Words a thawed stream skips per C call (a 16 KiB integer at a time).
_SKIP_WORDS = 4096


def _replay_stream(seed: int, words: int) -> "StreamRandom":
    """Unpickling hook: rebuild a stream as (seed, fast-forward distance).

    The fast-forward itself is deferred to the stream's first draw, so
    thawing a snapshot never pays for streams the measurement phase does
    not touch (most of them: failed nodes, flood layers with no random
    choices, ...).
    """
    stream = StreamRandom(seed)
    if words:
        stream._words = words
        stream._pending_words = words
    return stream


class StreamRandom(random.Random):
    """A seeded MT19937 stream that knows how far it has advanced.

    ``_words`` counts 32-bit words consumed since seeding; pickling emits
    ``(seed, _words)`` via :func:`_replay_stream` instead of the full
    generator state.  All distribution methods inherited from
    :class:`random.Random` are Python-level and draw exclusively through
    ``random()`` / ``getrandbits()`` / ``_randbelow()``, so the count is
    exact and a replayed stream continues with bit-identical draws.
    """

    # -- counted primitives -------------------------------------------
    def random(self) -> float:
        if self._pending_words:
            self._materialize()
        self._words += 2
        return _mt_random(self)

    def getrandbits(self, k: int) -> int:
        if self._pending_words:
            self._materialize()
        self._words += (k + 31) >> 5
        return _mt_getrandbits(self, k)

    def _randbelow(self, n: int) -> int:
        """``random.Random``'s own rejection loop — same bits asked for, same
        retries, so same value and same words — in one frame over the C
        generator: a membership round is mostly ``choice`` and ``sample``."""
        if not n:
            return 0  # 3.10's choice() relies on this to raise IndexError
        if self._pending_words:
            self._materialize()
        k = n.bit_length()  # not (n - 1): n can be 1
        tries = 1
        r = _mt_getrandbits(self, k)
        while r >= n:
            tries += 1
            r = _mt_getrandbits(self, k)
        self._words += tries * ((k + 31) >> 5)
        return r

    def seed(self, a=None, version: int = 2) -> None:
        # Re-seeding restarts the stream: the word count restarts with it.
        # An OS-entropy seed (None) could never be replayed, so it is
        # rejected rather than silently breaking snapshot determinism.
        if a is None:
            raise ValueError(
                "StreamRandom requires an explicit seed: an OS-entropy "
                "stream cannot be replayed from a frozen snapshot"
            )
        self._seed_value = a
        self._words = 0
        self._pending_words = 0
        super().seed(a, version)

    def setstate(self, state) -> None:
        raise NotImplementedError(
            "StreamRandom cannot restore raw generator state: the word "
            "count would desynchronise and frozen snapshots would replay "
            "a different stream.  Re-seed instead."
        )

    def gauss(self, mu=0.0, sigma=1.0):
        # random.Random.gauss caches a second variate on the instance
        # (gauss_next), which the (seed, words) encoding cannot capture —
        # a thawed stream would silently diverge.  normalvariate draws
        # the same distribution statelessly.
        raise NotImplementedError(
            "StreamRandom does not support gauss(): its hidden cached "
            "variate is invisible to the compact snapshot encoding; use "
            "normalvariate(), which is stateless and counted exactly"
        )

    # -- compact pickling ---------------------------------------------
    def __reduce__(self):
        return _replay_stream, (self._seed_value, self._words)

    def getstate(self):
        if self._pending_words:
            self._materialize()
        return super().getstate()

    def _materialize(self) -> None:
        """Fast-forward a freshly unpickled stream to its recorded offset.

        MT19937 state is a pure function of (seed, words consumed), so
        advancing a newly seeded generator by ``_pending_words`` words
        reproduces the frozen state exactly.  ``getrandbits(32 * w)``
        consumes exactly ``w`` words in one C call; the skip is chunked so
        the discarded integer stays small.
        """
        words = self._pending_words
        self._pending_words = 0
        while words > _SKIP_WORDS:
            _mt_getrandbits(self, 32 * _SKIP_WORDS)
            words -= _SKIP_WORDS
        _mt_getrandbits(self, 32 * words)

    @property
    def words_consumed(self) -> int:
        """32-bit MT words drawn since seeding (the fast-forward distance)."""
        return self._words


class SeedSequence:
    """Derives independent child streams from a root seed.

    Child streams are derived by hashing the root seed with a label, so the
    stream a node receives does not depend on the order in which other
    streams were created.  That keeps simulations comparable when a scenario
    adds instrumentation that draws extra streams.
    """

    def __init__(self, root_seed: int) -> None:
        self._root_seed = root_seed

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def derive_seed(self, label: str) -> int:
        """A 64-bit integer seed derived from the root seed and ``label``.

        This is the splitting primitive the experiment orchestrator uses to
        hand each replicate its own root seed: derivation depends only on
        ``(root_seed, label)``, never on process identity or call order, so
        replicates executed in parallel worker processes receive exactly
        the seeds they would have received serially.
        """
        # Built-in hash() is salted per process, so derive the child seed
        # with a stable cryptographic hash instead.
        digest = hashlib.sha256(f"{self._root_seed}/{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, label: str) -> StreamRandom:
        """A named child stream; the same label always yields the same
        stream for a given root seed.  Streams pickle compactly — see
        :class:`StreamRandom`."""
        return StreamRandom(self.derive_seed(label))

    def node_stream(self, node: NodeId, purpose: str = "protocol") -> StreamRandom:
        """The stream a specific node uses for a specific purpose."""
        return self.stream(f"{purpose}/{node.host}:{node.port}")


def sample_up_to(rng: random.Random, population: Sequence[T], k: int) -> list[T]:
    """Sample ``min(k, len(population))`` distinct elements.

    The paper's shuffle primitives say "at most" ``ka``/``kp`` elements
    (Section 5.1); this helper encodes that without the caller branching on
    the population size.  ``population`` is read, never reordered.
    """
    if k <= 0:
        return []
    if k >= len(population):
        shuffled = list(population)
        rng.shuffle(shuffled)
        return shuffled
    return rng.sample(population, k)


def choice_or_none(rng: random.Random, population: Sequence[T]) -> T | None:
    """Uniform choice, or ``None`` (and no draw) when the population is empty."""
    if not population:
        return None
    return rng.choice(population)
