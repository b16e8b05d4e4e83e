from __future__ import annotations

import numpy as np
import pytest

from conftest import bfs_distances, random_connected_graph
from fogcast.data import bundled_topology
from fogcast.topology import (
    TopologyError,
    all_pairs,
    build_graph,
    canonical_paths,
    closeness,
    extract_path,
    load_topology,
    nearest,
)


def test_geant_fixture_dimensions(geant):
    assert geant.n_nodes == 37
    assert geant.n_arcs == 116


def test_every_edge_expands_to_two_arcs(triangle):
    assert triangle.n_nodes == 3
    assert triangle.n_arcs == 6
    for arc in triangle.arcs:
        rev = triangle.arcs[triangle.reverse_arc(arc.id)]
        assert (rev.src, rev.dst) == (arc.dst, arc.src)


def test_duplicate_undirected_edges_collapse():
    g = build_graph(
        [("a", 0.0, 0.0), ("b", 1.0, 1.0)],
        [(0, 1), (1, 0), (0, 1)],
    )
    assert g.n_arcs == 2


def test_disconnected_graph_rejected():
    with pytest.raises(TopologyError, match="disconnected"):
        build_graph(
            [("a", 0, 0), ("b", 0, 1), ("c", 5, 5), ("d", 5, 6)],
            [(0, 1), (2, 3)],
        )


def test_malformed_document_rejected(tmp_path):
    bad = tmp_path / "bad.graphml"
    bad.write_text("<graphml><graph><node id=")
    with pytest.raises(TopologyError, match="malformed"):
        load_topology(bad)


def test_missing_coordinates_names_the_node(tmp_path):
    doc = tmp_path / "nocoord.graphml"
    doc.write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<key attr.name="Latitude" attr.type="double" for="node" id="d0" />'
        '<key attr.name="Longitude" attr.type="double" for="node" id="d1" />'
        '<key attr.name="label" attr.type="string" for="node" id="d2" />'
        '<graph edgedefault="undirected">'
        '<node id="0"><data key="d0">1.0</data><data key="d1">2.0</data></node>'
        '<node id="1"><data key="d2">Nowhere</data></node>'
        '<edge source="0" target="1" />'
        "</graph></graphml>"
    )
    with pytest.raises(TopologyError, match="Nowhere"):
        load_topology(doc)


def test_node_ids_follow_document_order(geant):
    # The bundled document starts at the network's main hub.
    assert geant.nodes[0].label == "Frankfurt"
    assert [n.id for n in geant.nodes] == list(range(37))


def test_self_distance_is_zero(geant_hops):
    assert all(geant_hops.dist[v, v] == 0 for v in range(geant_hops.graph.n_nodes))


def test_triangle_all_distinct_pairs_one_hop(triangle):
    hops = all_pairs(triangle)
    for u in range(3):
        for v in range(3):
            assert hops.dist[u, v] == (0 if u == v else 1)


def test_geant_pair_matches_bfs_oracle(geant, geant_hops):
    oracle = bfs_distances(geant, 0)
    assert geant_hops.dist[0, 20] == oracle[20]


def test_all_pairs_equals_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
        hops = all_pairs(g)
        for s in range(n):
            assert list(hops.dist[s]) == bfs_distances(g, s)


def test_distances_symmetric_and_triangle_inequality(geant_hops):
    d = geant_hops.dist
    assert (d == d.T).all()
    n = geant_hops.graph.n_nodes
    for u in range(n):
        for v in range(n):
            for w in range(0, n, 7):
                assert d[u, v] <= d[u, w] + d[w, v]


def test_extract_path_trivial_cases(chain4):
    hops = all_pairs(chain4)
    assert extract_path(hops, 2, 2) == []
    path = extract_path(hops, 0, 2)
    assert [(chain4.arcs[a].src, chain4.arcs[a].dst) for a in path] == [(0, 1), (1, 2)]


def test_extract_path_reconstructs_walk_for_all_pairs(geant, geant_hops):
    for src in range(geant.n_nodes):
        for dst in range(geant.n_nodes):
            path = extract_path(geant_hops, src, dst)
            assert len(path) == geant_hops.dist[src, dst]
            at = src
            for arc_id in path:
                arc = geant.arcs[arc_id]
                assert arc.src == at
                at = arc.dst
            assert at == dst


def test_canonical_paths_equal_extract_path_for_all_pairs(geant, geant_hops):
    rng = np.random.default_rng(21)
    cases = [(geant, geant_hops)]
    for _ in range(20):
        n = int(rng.integers(1, 25))
        graph = random_connected_graph(rng, n, int(rng.integers(0, n + 1)))
        cases.append((graph, all_pairs(graph)))
    for graph, hops in cases:
        n = graph.n_nodes
        roots, leaves = np.divmod(np.arange(n * n), n)
        indptr, arcs = canonical_paths(hops, roots, leaves)
        for flow, (root, leaf) in enumerate(zip(roots.tolist(), leaves.tolist())):
            assert arcs[indptr[flow]:indptr[flow + 1]].tolist() == extract_path(hops, root, leaf)


def test_nearest_matches_brute_force_with_lowest_id_ties():
    rng = np.random.default_rng(22)
    ties = 0
    for _ in range(30):
        n = int(rng.integers(2, 25))
        graph = random_connected_graph(rng, n, int(rng.integers(0, n)))
        hops = all_pairs(graph)
        size = int(rng.integers(1, n + 1))
        candidates = [int(v) for v in rng.choice(n, size=size, replace=False)]
        found = nearest(hops, candidates)
        for v in range(n):
            best = min(int(hops.dist[v, c]) for c in candidates)
            closest = [c for c in candidates if hops.dist[v, c] == best]
            ties += len(closest) > 1
            assert found[v] == min(closest)
    assert ties > 0
    assert (nearest(hops, []) == -1).all()


def test_predecessor_tie_breaks_to_lowest_node_id():
    # diamond: 0-1-3 and 0-2-3 are both shortest; the walk must go via 1
    g = build_graph(
        [("s", 0, 0), ("p", 0, 1), ("q", 1, 0), ("t", 1, 1)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    hops = all_pairs(g)
    path = extract_path(hops, 0, 3)
    assert [g.arcs[a].dst for a in path] == [1, 3]


def test_closeness_star_center_and_leaf(star4):
    hops = all_pairs(star4)
    assert closeness(hops, 0) == 1.0
    assert closeness(hops, 1) == pytest.approx(3 / 5)


def test_closeness_in_unit_interval(geant_hops):
    for v in range(geant_hops.graph.n_nodes):
        assert 0.0 < closeness(geant_hops, v) <= 1.0


def test_geant_closeness_matches_direct_summation(geant, geant_hops):
    total = sum(bfs_distances(geant, 0))
    assert closeness(geant_hops, 0) == pytest.approx((geant.n_nodes - 1) / total)


def test_fixture_loads_quickly():
    import time

    start = time.perf_counter()
    load_topology(bundled_topology())
    assert time.perf_counter() - start < 1.0
