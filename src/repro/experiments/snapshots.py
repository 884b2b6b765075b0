"""Stabilised base overlays and the per-worker cache of their frozen blobs.

Building and stabilising an overlay (:func:`stabilized_scenario`) is by
far the most expensive prefix of every cell — at paper scale (n = 10 000)
it dominates wall-clock.  A scenario's grid measures many cells against
the *same* stabilised base (one per protocol), so each worker process
keeps a small LRU of ``Scenario.freeze()`` blobs keyed by ``(protocol,
params)`` and rehydrates a private copy per cell with one
``pickle.loads``.  Cells never call :func:`stabilized_scenario` directly:
they take their base from ``RunContext.stabilized``, which reads this
cache or, with the cache off, makes the same freeze/thaw round trip.

Determinism: a cache *hit* and a cache *miss* hand out byte-identical
state — the miss path freezes the freshly stabilised scenario and thaws it
back, so every checkout (first or hundredth, cached or not) passes through
the same pickle round trip.  A scenario's measured results therefore never
depend on cache occupancy, worker identity or checkout order, which is
what keeps ``BENCH_*.json`` artifacts byte-identical across ``--workers``
and ``--no-snapshot-cache`` settings — and what makes ``--workers 1
--no-snapshot-cache`` (every cell stabilises its own base) the reference
run the others are compared against.

The cache is bounded (default 4 blobs).  Blobs used to be tens of
megabytes at paper scale — dominated by per-node ``random.Random`` state
(~2.5 KB per stream, three streams per node) — until the compact
``(seed, words_consumed)`` stream encoding (:class:`~repro.common.rng.
StreamRandom`) cut them by roughly 10x; the bound now mostly guards
against configuration-sweep scenarios that key many distinct params.
``stats()`` reports the cached byte total so sweep logs can watch it.
"""

from __future__ import annotations

from collections import OrderedDict

from ..common.errors import ConfigurationError
from .params import ExperimentParams
from .scenario import Scenario

#: Default number of frozen bases kept per worker process.
DEFAULT_CAPACITY = 4


def stabilized_scenario(protocol: str, params: ExperimentParams) -> Scenario:
    """Build + join + stabilise (the reusable expensive prefix)."""
    scenario = Scenario(protocol, params)
    scenario.build_overlay()
    scenario.stabilize()
    return scenario


class SnapshotCache:
    """LRU of frozen stabilised overlays, keyed by ``(protocol, params)``.

    ``params`` (an :class:`ExperimentParams`, frozen and hashable) includes
    the seed, so two replicates — or two scenarios — never share a base
    unless their entire configuration matches exactly.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(f"snapshot cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._blobs: OrderedDict[tuple[str, ExperimentParams], bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._blobs)

    def frozen(self, protocol: str, params: ExperimentParams) -> bytes:
        """The frozen base blob for ``(protocol, params)``.

        On a miss the base is built, stabilised and frozen; always the
        same bytes for the same key, regardless of hit/miss history.
        """
        key = (protocol, params)
        frozen = self._blobs.get(key)
        if frozen is None:
            self.misses += 1
            frozen = stabilized_scenario(protocol, params).freeze()
            self._blobs[key] = frozen
            while len(self._blobs) > self.capacity:
                self._blobs.popitem(last=False)
                self.evictions += 1
        else:
            self.hits += 1
            self._blobs.move_to_end(key)
        return frozen

    def checkout(self, protocol: str, params: ExperimentParams) -> Scenario:
        """A private, ready-to-mutate stabilised scenario.

        A fresh thaw of :meth:`frozen`; the caller owns it outright and
        may mutate it freely.
        """
        return Scenario.thaw(self.frozen(protocol, params))

    def clear(self) -> None:
        self._blobs.clear()

    def stats(self) -> dict:
        """Counters for logging (never for artifacts)."""
        return {
            "entries": len(self._blobs),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "cached_bytes": sum(len(blob) for blob in self._blobs.values()),
        }
