from __future__ import annotations

import numpy as np
import pytest

from conftest import bfs_distances, random_connected_graph, write_synthetic
from fogcast import topology
from fogcast.data import bundled_topology
from fogcast.topology import (
    _BLOCK,
    NO_ROW,
    HopRows,
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
        rev = triangle.arcs[arc.id ^ 1]
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


def bfs_predecessors(graph, source: int) -> list[int]:
    """Oracle for ``pred[source]``: the lowest-id neighbour one hop closer."""
    dist = bfs_distances(graph, source)
    return [source if v == source else
            min(u for u in graph.neighbors(v) if dist[u] == dist[v] - 1)
            for v in range(graph.n_nodes)]


def _path(n):
    return build_graph([(f"p{i}", 0.0, float(i)) for i in range(n)],
                       [(i, i + 1) for i in range(n - 1)])


def _edge_graphs() -> list:
    """Graphs at the edges of the block search: 1 and 2 nodes, a 131-node
    path, a star with hub 32, K12, and trees plus chords of 63, 64, 65, 129
    and 300 nodes (both sides of the source-block and 64-bit word sizes)."""
    rng = np.random.default_rng(23)
    # A star whose hub sits mid-range, with leaf ids on both sides of it.
    star = build_graph([(f"s{i}", 0.0, float(i)) for i in range(_BLOCK + 1)],
                       [(_BLOCK // 2, v) for v in range(_BLOCK + 1) if v != _BLOCK // 2])
    complete = build_graph([(f"k{i}", 0.0, float(i)) for i in range(12)],
                           [(u, v) for u in range(12) for v in range(u)])
    graphs = [_path(1), _path(2), _path(2 * _BLOCK + 3), star, complete]
    for n in sorted({63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 300}):
        graphs.append(random_connected_graph(rng, n, n // 2))
    return graphs


def test_all_pairs_dist_and_pred_equal_bfs_oracle(geant):
    for graph in [geant] + _edge_graphs():
        hops = all_pairs(graph)
        n = graph.n_nodes
        assert hops.dist.shape == hops.pred.shape == (n, n)
        for s in range(n):
            assert hops.dist[s].tolist() == bfs_distances(graph, s)
            assert hops.pred[s].tolist() == bfs_predecessors(graph, s)


@pytest.fixture(scope="module")
def row_graphs(geant, tmp_path_factory):
    """The bundled backbone, the synthetic backbones of seeds 1-4 and the edge graphs."""
    out = tmp_path_factory.mktemp("synthetic")
    synthetic = [load_topology(write_synthetic(out, seed)[0]) for seed in (1, 2, 3, 4)]
    return [geant] + synthetic + _edge_graphs()


def test_hop_rows_equal_all_pairs(row_graphs):
    rng = np.random.default_rng(25)
    for graph in row_graphs:
        reference = all_pairs(graph)
        n = graph.n_nodes
        rows = HopRows(graph, held=rng.permutation(n)[:n // 4])
        # Every node, in shuffled requests of 1-191 sources with duplicates.
        order = np.concatenate([rng.permutation(n), rng.integers(0, n, size=n // 2)])
        cuts = np.cumsum(rng.integers(1, 3 * _BLOCK, size=len(order)))
        for sources in np.split(order, cuts[cuts < len(order)]):
            table = rows.table(sources)
            at = table.slot[sources]
            assert (table.dist[at] == reference.dist[sources]).all()
            assert (table.pred[at] == reference.pred[sources]).all()


def test_streaming_closeness_equals_all_pairs_row_sums(row_graphs):
    for graph in row_graphs:
        n = graph.n_nodes
        values = closeness(graph)
        dist = all_pairs(graph).dist
        expected = [(n - 1) / float(dist[v].sum()) if n > 1 else 1.0 for v in range(n)]
        assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert HopRows(graph).centrality.tobytes() == values.tobytes()


def _counting_searches(monkeypatch):
    """Patch the block search to log the size of each block it is given."""
    searches = []
    search = topology._bfs_block

    def counting_search(in_arcs, sources):
        searches.append(len(sources))
        return search(in_arcs, sources)

    monkeypatch.setattr(topology, "_bfs_block", counting_search)
    return searches


def test_hop_row_store_holds_every_likely_source(monkeypatch):
    """The held rows are searched once, at construction, and serve every call
    whose sources they cover."""
    rng = np.random.default_rng(26)
    graph = random_connected_graph(rng, 300, 150)
    reference = all_pairs(graph)
    searches = _counting_searches(monkeypatch)
    held = rng.permutation(300)[:150]
    rows = HopRows(graph, held=held)
    assert searches == [64, 64, 22]
    assert sorted(np.flatnonzero(rows.held.slot != NO_ROW)) == sorted(held)
    for _ in range(50):
        sources = rng.choice(held, size=rng.integers(0, 12))
        assert rows.table(sources) is rows.held
        at = rows.held.slot[sources]
        assert (rows.held.dist[at] == reference.dist[sources]).all()
        assert (rows.held.pred[at] == reference.pred[sources]).all()
    assert len(searches) == 3
    assert not (rows.held.dist.flags.writeable or rows.held.slot.flags.writeable)


def test_hop_row_store_starts_over_past_its_budget(monkeypatch):
    """A call that asks past the held rows gets a new table of exactly its
    rows; searched rows are not kept, and earlier tables keep theirs."""
    rng = np.random.default_rng(27)
    graph = random_connected_graph(rng, 300, 150)
    reference = all_pairs(graph)
    searches = _counting_searches(monkeypatch)
    held = rng.permutation(300)[:150]
    rows = HopRows(graph, held=held)
    others = np.setdiff1d(np.arange(300), held)
    earlier = []
    for m in (1, 64, 65, 130):
        fresh = rng.choice(others, size=m, replace=False)
        sources = np.concatenate([fresh, fresh[:m // 2], held[:5]])
        for _ in range(2):  # searched rows are not kept
            searches.clear()
            table = rows.table(rng.permutation(sources))
            assert searches == [min(64, m - at) for at in range(0, m, 64)]
        assert table is not rows.held
        asked = np.zeros(300, dtype=bool)
        asked[sources] = True
        assert ((table.slot != NO_ROW) == asked).all()
        assert len(table.dist) == len(table.pred) == asked.sum()
        assert not (table.dist.flags.writeable or table.pred.flags.writeable)
        with pytest.raises(IndexError):
            table.dist[table.slot[np.flatnonzero(~asked)[:1]]]
        earlier.append((table, sources))
    for table, sources in earlier:
        at = table.slot[sources]
        assert (table.dist[at] == reference.dist[sources]).all()
        assert (table.pred[at] == reference.pred[sources]).all()


def test_closeness_star_center_and_leaf(star4):
    values = closeness(star4)
    assert values[0] == 1.0
    assert values[1] == pytest.approx(3 / 5)


def test_closeness_in_unit_interval(geant):
    values = closeness(geant)
    assert ((0.0 < values) & (values <= 1.0)).all()


def test_closeness_of_all_nodes_equals_one_node_calls(geant_hops):
    rng = np.random.default_rng(24)
    tables = [geant_hops] + [all_pairs(random_connected_graph(rng, n, n // 3))
                             for n in (1, 2, 5, 40, 130)]
    for hops in tables:
        n = hops.graph.n_nodes
        values = closeness(hops.graph)
        assert values.dtype == np.float64 and values.shape == (n,)
        for v in range(n):
            # One node's closeness, from its own row alone.
            expected = (n - 1) / float(hops.dist[v].sum()) if n > 1 else 1.0
            assert values[v] == expected


def test_geant_closeness_matches_direct_summation(geant):
    total = sum(bfs_distances(geant, 0))
    assert closeness(geant)[0] == pytest.approx((geant.n_nodes - 1) / total)


def test_fixture_loads_quickly():
    import time

    start = time.perf_counter()
    load_topology(bundled_topology())
    assert time.perf_counter() - start < 1.0
