"""Tests for overlay graph analytics, cross-checked against networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.metrics.graph import OverlaySnapshot


def nid(i):
    return NodeId(f"n{i}", 1)


def snapshot_from_edges(n, edges):
    adjacency = {nid(i): [] for i in range(n)}
    for src, dst in edges:
        adjacency[nid(src)].append(nid(dst))
    return adjacency, OverlaySnapshot(adjacency)


def random_digraph(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return edges


class TestShape:
    def test_counts(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert snap.node_count == 3
        assert snap.edge_count == 3

    def test_self_loops_dropped(self):
        _, snap = snapshot_from_edges(2, [(0, 0), (0, 1)])
        assert snap.edge_count == 1

    def test_edges_to_unknown_nodes_dropped(self):
        adjacency = {nid(0): [nid(1), nid(99)], nid(1): []}
        snap = OverlaySnapshot(adjacency)
        assert snap.edge_count == 1

    def test_restrict_to_filters_nodes_and_edges(self):
        views = {nid(0): [nid(1), nid(2)], nid(1): [nid(0)], nid(2): [nid(0)]}
        snap = OverlaySnapshot.from_out_neighbors(views, restrict_to={nid(0), nid(1)})
        assert snap.node_count == 2
        assert snap.edge_count == 2  # 0->1 and 1->0 survive

    def test_out_neighbors_accessor(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (0, 2)])
        assert set(snap.out_neighbors(nid(0))) == {nid(1), nid(2)}


class TestDegrees:
    def test_degree_maps(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert snap.out_degrees() == {nid(0): 2, nid(1): 1, nid(2): 0}
        assert snap.in_degrees() == {nid(0): 0, nid(1): 1, nid(2): 2}

    def test_in_degree_histogram(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert snap.in_degree_histogram() == {0: 1, 1: 1, 2: 1}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 15), st.floats(0.05, 0.5), st.integers(0, 10**6))
    def test_degrees_match_networkx(self, n, p, seed):
        edges = random_digraph(n, p, seed)
        _, snap = snapshot_from_edges(n, edges)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        assert {node.host: d for node, d in snap.in_degrees().items()} == {
            f"n{i}": graph.in_degree(i) for i in range(n)
        }
        assert {node.host: d for node, d in snap.out_degrees().items()} == {
            f"n{i}": graph.out_degree(i) for i in range(n)
        }


class TestClustering:
    def test_triangle_has_full_clustering(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert snap.average_clustering() == pytest.approx(1.0)

    def test_star_has_zero_clustering(self):
        _, snap = snapshot_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert snap.average_clustering() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 14), st.floats(0.1, 0.6), st.integers(0, 10**6))
    def test_clustering_matches_networkx_on_undirected_projection(self, n, p, seed):
        edges = random_digraph(n, p, seed)
        _, snap = snapshot_from_edges(n, edges)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = nx.average_clustering(graph)
        assert snap.average_clustering() == pytest.approx(expected, abs=1e-9)


class TestPaths:
    def test_chain_paths(self):
        _, snap = snapshot_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        stats = snap.shortest_paths()
        # directed chain: pairs (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        assert stats.pairs_measured == 6
        assert stats.maximum == 3
        assert stats.average == pytest.approx((1 + 2 + 3 + 1 + 2 + 1) / 6)
        assert stats.unreachable_pairs == 6  # all the reverse pairs

    def test_sampled_sources(self):
        edges = random_digraph(30, 0.2, seed=5)
        _, snap = snapshot_from_edges(30, edges)
        stats = snap.shortest_paths(sample_sources=5, rng=random.Random(0))
        assert stats.pairs_measured + stats.unreachable_pairs == 5 * 29

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 12), st.floats(0.15, 0.6), st.integers(0, 10**6))
    def test_full_paths_match_networkx(self, n, p, seed):
        edges = random_digraph(n, p, seed)
        _, snap = snapshot_from_edges(n, edges)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        expected = [
            lengths[i][j]
            for i in range(n)
            for j in range(n)
            if i != j and j in lengths[i]
        ]
        stats = snap.shortest_paths()
        assert stats.pairs_measured == len(expected)
        if expected:
            assert stats.average == pytest.approx(sum(expected) / len(expected))
            assert stats.maximum == max(expected)

    def test_unreachable_pairs_are_counted_apart(self):
        _, snap = snapshot_from_edges(2, [(0, 1)])
        stats = snap.shortest_paths()
        assert (stats.pairs_measured, stats.unreachable_pairs) == (1, 1)


class TestConnectivity:
    def test_connected_cycle(self):
        _, snap = snapshot_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert snap.is_connected()
        assert snap.largest_component_fraction() == 1.0

    def test_two_components(self):
        _, snap = snapshot_from_edges(4, [(0, 1), (2, 3)])
        components = snap.connected_components()
        assert [len(c) for c in components] == [2, 2]
        assert not snap.is_connected()
        assert snap.largest_component_fraction() == 0.5

    def test_direction_ignored_for_connectivity(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (2, 1)])
        assert snap.is_connected()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 15), st.floats(0.0, 0.4), st.integers(0, 10**6))
    def test_components_match_networkx(self, n, p, seed):
        edges = random_digraph(n, p, seed)
        _, snap = snapshot_from_edges(n, edges)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = sorted((len(c) for c in nx.connected_components(graph)), reverse=True)
        assert [len(c) for c in snap.connected_components()] == expected


class TestQualityMetrics:
    def test_symmetry_fraction(self):
        _, snap = snapshot_from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert snap.symmetry_fraction() == pytest.approx(2 / 3)

    def test_symmetry_of_empty_graph(self):
        _, snap = snapshot_from_edges(2, [])
        assert snap.symmetry_fraction() == 1.0
