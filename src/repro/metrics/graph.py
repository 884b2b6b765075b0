"""Overlay graph snapshots and the Section 2.3 metrics.

Partial views define a directed graph (Section 2.1).  An
:class:`OverlaySnapshot` freezes that graph and computes every property the
paper evaluates:

* connectivity (components of the undirected projection);
* in-/out-degree distributions (Figure 5);
* clustering coefficient (Table 1) — computed on the undirected projection,
  the standard convention for overlay-quality studies;
* average shortest path (Table 1) — directed BFS, optionally from a sample
  of sources (exact all-pairs is quadratic and unnecessary at 10 000 nodes);
* active-view symmetry, the invariant HyParView's resilience rests on.

The implementation is dependency-free for speed; the test-suite
cross-checks every metric against networkx on random graphs.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from ..common.errors import ConfigurationError
from ..common.ids import NodeId


@dataclass(frozen=True, slots=True)
class PathStats:
    """Result of the (sampled) shortest-path computation."""

    average: float
    maximum: int
    pairs_measured: int
    unreachable_pairs: int


class OverlaySnapshot:
    """An immutable directed graph built from membership views."""

    def __init__(self, adjacency: Mapping[NodeId, Iterable[NodeId]]) -> None:
        self._ids: list[NodeId] = list(adjacency)
        self._index: dict[NodeId, int] = {node: i for i, node in enumerate(self._ids)}
        self._out: list[list[int]] = [[] for _ in self._ids]
        for node, neighbors in adjacency.items():
            row = self._out[self._index[node]]
            for neighbor in neighbors:
                target = self._index.get(neighbor)
                if target is not None and target != self._index[node]:
                    row.append(target)
        self._undirected: Optional[list[set[int]]] = None

    @classmethod
    def from_out_neighbors(
        cls,
        views: Mapping[NodeId, Sequence[NodeId]],
        restrict_to: Optional[AbstractSet[NodeId]] = None,
    ) -> "OverlaySnapshot":
        """Build a snapshot from per-node out-neighbour views.

        ``restrict_to`` keeps only the given nodes (e.g. the live ones) as
        vertices; edges to excluded nodes are dropped.
        """
        if restrict_to is None:
            return cls(views)
        filtered = {
            node: [peer for peer in neighbors if peer in restrict_to]
            for node, neighbors in views.items()
            if node in restrict_to
        }
        return cls(filtered)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self._out)

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._ids)

    def out_neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._ids[i] for i in self._out[self._index[node]])

    # ------------------------------------------------------------------
    # Degrees (Figure 5)
    # ------------------------------------------------------------------
    def out_degrees(self) -> dict[NodeId, int]:
        return {node: len(self._out[i]) for i, node in enumerate(self._ids)}

    def in_degrees(self) -> dict[NodeId, int]:
        counts = [0] * len(self._ids)
        for row in self._out:
            for target in row:
                counts[target] += 1
        return {node: counts[i] for i, node in enumerate(self._ids)}

    def in_degree_histogram(self) -> dict[int, int]:
        """degree value -> number of nodes (the Figure 5 distribution)."""
        return dict(Counter(self.in_degrees().values()))

    # ------------------------------------------------------------------
    # Clustering (Table 1)
    # ------------------------------------------------------------------
    def _undirected_adjacency(self) -> list[set[int]]:
        if self._undirected is None:
            undirected: list[set[int]] = [set() for _ in self._ids]
            for source, row in enumerate(self._out):
                for target in row:
                    undirected[source].add(target)
                    undirected[target].add(source)
            self._undirected = undirected
        return self._undirected

    def clustering_coefficient(self, node: NodeId) -> float:
        """Fraction of possible edges present among the node's neighbours."""
        undirected = self._undirected_adjacency()
        neighbors = undirected[self._index[node]]
        degree = len(neighbors)
        if degree < 2:
            return 0.0
        links = 0
        for neighbor in neighbors:
            # Iterate the smaller set for each pair exactly once.
            links += sum(1 for other in undirected[neighbor] if other in neighbors)
        links //= 2
        return links / (degree * (degree - 1) / 2)

    def average_clustering(self) -> float:
        if not self._ids:
            return 0.0
        return sum(self.clustering_coefficient(node) for node in self._ids) / len(self._ids)

    # ------------------------------------------------------------------
    # Paths (Table 1)
    # ------------------------------------------------------------------
    def shortest_paths(
        self,
        *,
        sample_sources: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> PathStats:
        """Directed BFS from every (or a sample of) source node(s).

        Averages path lengths over all measured (source, target) pairs with
        ``source != target``; unreachable pairs are counted separately
        rather than silently skewing the average.
        """
        if not self._ids:
            return PathStats(0.0, 0, 0, 0)
        source_indices = range(len(self._ids))
        if sample_sources is not None and sample_sources < len(self._ids):
            if sample_sources < 1:
                raise ConfigurationError(f"sample_sources must be >= 1: {sample_sources}")
            rng = rng if rng is not None else random.Random(0)
            source_indices = rng.sample(range(len(self._ids)), sample_sources)
        total = 0
        pairs = 0
        unreachable = 0
        maximum = 0
        n = len(self._ids)
        for source in source_indices:
            distances = self._bfs(source)
            reached = 0
            for distance in distances:
                if distance > 0:
                    total += distance
                    reached += 1
                    if distance > maximum:
                        maximum = distance
            pairs += reached
            unreachable += n - 1 - reached
        average = total / pairs if pairs else 0.0
        return PathStats(average, maximum, pairs, unreachable)

    def _bfs(self, source: int) -> list[int]:
        distances = [-1] * len(self._ids)
        distances[source] = 0
        queue: deque[int] = deque((source,))
        out = self._out
        while queue:
            current = queue.popleft()
            next_distance = distances[current] + 1
            for target in out[current]:
                if distances[target] < 0:
                    distances[target] = next_distance
                    queue.append(target)
        return distances

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[NodeId]]:
        """Components of the undirected projection, largest first."""
        undirected = self._undirected_adjacency()
        seen = [False] * len(self._ids)
        components: list[set[NodeId]] = []
        for start in range(len(self._ids)):
            if seen[start]:
                continue
            seen[start] = True
            component = {start}
            queue: deque[int] = deque((start,))
            while queue:
                current = queue.popleft()
                for neighbor in undirected[current]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        component.add(neighbor)
                        queue.append(neighbor)
            components.append({self._ids[i] for i in component})
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        if not self._ids:
            return True
        return len(self.connected_components()[0]) == len(self._ids)

    def largest_component_fraction(self) -> float:
        if not self._ids:
            return 1.0
        return len(self.connected_components()[0]) / len(self._ids)

    def symmetry_fraction(self) -> float:
        """Fraction of directed edges whose reverse edge also exists."""
        edge_set = {
            (source, target) for source, row in enumerate(self._out) for target in row
        }
        if not edge_set:
            return 1.0
        symmetric = sum(1 for source, target in edge_set if (target, source) in edge_set)
        return symmetric / len(edge_set)
