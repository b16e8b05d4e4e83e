from __future__ import annotations

import dataclasses
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (GRAPHML_HEADER, bfs_distances, random_connected_graph,
                      write_bad_topologies, write_synthetic)
from fogcast import topology
from fogcast.data import bundled_topology
from fogcast.topology import (
    _BLOCK,
    NO_ROW,
    TopologyError,
    build_graph,
    canonical_paths,
    gather,
    hop_table,
    load_topology,
    nearest,
)
from oracles import adjacency, all_pairs, dom_read, extract_path


def test_geant_fixture_dimensions(geant):
    assert geant.n_nodes == 37
    assert geant.n_arcs == 116


def test_every_edge_expands_to_two_arcs(triangle):
    assert triangle.n_nodes == 3
    assert triangle.n_arcs == 6
    a = np.arange(triangle.n_arcs)
    assert (triangle.src[a ^ 1] == triangle.dst[a]).all()
    assert (triangle.dst[a ^ 1] == triangle.src[a]).all()
    assert list(zip(triangle.src.tolist(), triangle.dst.tolist())) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]


def reference_arcs(edges) -> list[tuple[int, int]]:
    """The arc list built edge by edge: the first occurrence of each
    undirected edge, in order, as arc ``2j`` (as given) and ``2j + 1``."""
    seen: set[tuple[int, int]] = set()
    arcs = []
    for u, v in edges:
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            arcs += [(u, v), (v, u)]
    return arcs


def test_arc_table_equals_edge_by_edge_construction():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        edges += [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
                  for _ in range(int(rng.integers(0, 2 * n)))]
        # Repeated and reversed duplicates, shuffled in among the rest.
        picks = rng.integers(0, len(edges), size=(2, n))
        edges += [edges[i] for i in picks[0]] + [edges[i][::-1] for i in picks[1]]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        coords = [(f"n{i}", float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
                  for i in range(n)]
        g = build_graph(coords, edges)
        arcs = reference_arcs(edges)
        assert g.src.tolist() == [u for u, _ in arcs]
        assert g.dst.tolist() == [v for _, v in arcs]
        assert g.labels == tuple(label for label, _, _ in coords)
        assert g.lat.tolist() == [lat for _, lat, _ in coords]
        assert g.lon.tolist() == [lon for _, _, lon in coords]
        for array in (g.src, g.dst, g.lat, g.lon):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # The arcs are distinct (src, dst) pairs, and a ^ 1 reverses arc a.
        assert len(set(zip(g.src.tolist(), g.dst.tolist()))) == g.n_arcs
        a = np.arange(g.n_arcs)
        assert (g.src[a ^ 1] == g.dst[a]).all() and (g.dst[a ^ 1] == g.src[a]).all()
        # A graph compares and hashes by identity.
        assert g == g and g != build_graph(coords, edges)
        assert {g: 1}[g] == 1


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


_NS = "http://graphml.graphdrawing.org/xmlns"
_KEYS = ('<key attr.name="Latitude" for="node" id="d0" />'
         '<key attr.name="Longitude" for="node" id="d1" />'
         '<key attr.name="label" for="node" id="d2" />')


def _node(node_id, lat, lon, inner=""):
    return (f'<node id="{node_id}"><data key="d0">{lat}</data><data key="d1">{lon}</data>'
            f"{inner}</node>")


_ABC = _node("a", 1, 2) + _node("b", 3, 4) + _node("c", 5, 6)
_AB_BC = '<edge source="a" target="b" /><edge source="b" target="c" />'

# Hand-written documents where reading the document's order, depth and
# namespaces matters.
HAND_WRITTEN = {
    "key_after_graph": f'<graphml xmlns="{_NS}"><graph>{_ABC}{_AB_BC}</graph>{_KEYS}</graphml>',
    "edge_before_nodes": f'<graphml xmlns="{_NS}">{_KEYS}<graph>{_AB_BC}{_ABC}</graph></graphml>',
    "graph_in_node": (f'<graphml xmlns="{_NS}">{_KEYS}<graph>'
                      + _node("a", 1, 2, f"<graph>{_node('x', 7, 8)}{_node('a', 9, 9)}"
                                         '<edge source="x" target="y" /></graph>')
                      + _node("b", 3, 4) + _node("c", 5, 6) + f"{_AB_BC}</graph></graphml>"),
    "second_graph": (f'<graphml xmlns="{_NS}">{_KEYS}<graph>{_ABC}{_AB_BC}</graph>'
                     f'<graph>{_node("a", 0, 0)}<edge source="a" target="q" /></graph></graphml>'),
    "foreign_namespace": (
        f'<graphml xmlns="{_NS}" xmlns:y="urn:other">{_KEYS}'
        '<y:key attr.name="Latitude" for="node" id="d1" /><y:graph />'
        f'<graph><y:node id="z" />{_ABC}<y:edge source="a" target="z" />'
        '<node id="d"><y:data key="d0">99</y:data><data key="d0">8</data>'
        f'<data key="d1">9</data></node>{_AB_BC}<edge source="c" target="d" /></graph>'
        "</graphml>"),
    "late_key_wins_and_edge_keys_ignored": (
        f'<graphml xmlns="{_NS}">{_KEYS}<key attr.name="Latitude" for="edge" id="d1" />'
        f'<graph>{_ABC}{_AB_BC}</graph><key attr.name="Longitude" for="node" id="d0" />'
        "</graphml>"),
    "no_graph": f'<graphml xmlns="{_NS}">{_KEYS}<y:graph xmlns:y="urn:other" /></graphml>',
    "node_without_id": f'<graphml xmlns="{_NS}">{_KEYS}<graph><node /></graph></graphml>',
    "unknown_edge_end": f'<graphml xmlns="{_NS}">{_KEYS}<graph>{_ABC}<edge source="a" /></graph>'
                        "</graphml>",
    "truncated_with_repeated_id": (GRAPHML_HEADER + _node("a", 1, 2) + _node("a", 3, 4)
                                   + '<edge source="a" tar'),
}


def _read_back(path):
    """What ``load_topology`` makes of ``path``: the graph's arrays, or its error text."""
    try:
        graph = load_topology(path)
    except TopologyError as exc:
        return str(exc)
    return (graph.labels, graph.lat.tolist(), graph.lon.tolist(), graph.src.tolist(),
            graph.dst.tolist())


def _reading(read, path):
    """What ``read`` reads of ``path``, or its ``ParseError`` text."""
    try:
        return read(str(path))
    except ET.ParseError as exc:
        return str(exc)


def test_streamed_reader_equals_the_dom_reader(tmp_path):
    """``topology._read_graphml`` reads what a whole parsed tree gives: the
    same keys, nodes and edges or the same syntax error, on the bundled and
    synthetic backbones, every GraphML file of the bad-config table and the
    hand-written documents; ``load_topology`` checks what it read."""
    paths = [bundled_topology(), write_synthetic(tmp_path, 3)[0]]
    paths += write_bad_topologies(tmp_path)
    for name, text in HAND_WRITTEN.items():
        paths.append(tmp_path / f"{name}.graphml")
        paths[-1].write_text(text)
    outcomes = {}
    for path in paths:
        assert _reading(topology._read_graphml, path) == _reading(dom_read, path), path
        outcomes[path] = _read_back(path)
    loaded = {Path(path).stem: outcome for path, outcome in outcomes.items()
              if not isinstance(outcome, str)}
    assert sorted(loaded) == sorted(["geant2012", "backbone_3_2000", "key_after_graph",
                                     "edge_before_nodes", "graph_in_node", "second_graph",
                                     "foreign_namespace", "late_key_wins_and_edge_keys_ignored"])
    assert loaded["foreign_namespace"][1] == [1.0, 3.0, 5.0, 8.0]
    assert loaded["late_key_wins_and_edge_keys_ignored"][1:3] == ([1.0, 3.0, 5.0], [1.0, 3.0, 5.0])
    assert "malformed GraphML document" in outcomes[paths[-1]]


def test_streamed_reader_holds_no_tree(tmp_path):
    """Read elements are dropped as the document streams by: on the synthetic
    backbone, ``load_topology`` allocates at its peak under half of what
    checking the whole parsed tree takes."""
    path = write_synthetic(tmp_path, 3)[0]
    peaks = []
    for load in (load_topology, lambda p: topology._graph_of(*dom_read(p))):
        tracemalloc.start()
        try:
            load(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 2


def test_node_ids_follow_document_order(geant):
    # The bundled document starts at the network's main hub.
    assert geant.labels[0] == "Frankfurt"
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    nodes = ET.parse(bundled_topology()).getroot().find(f"{ns}graph").findall(f"{ns}node")
    assert len(geant.labels) == 37
    assert geant.labels == tuple(el.find(f"{ns}data[@key='d2']").text for el in nodes)


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
    assert [(chain4.src[a], chain4.dst[a]) for a in path] == [(0, 1), (1, 2)]


def test_extract_path_reconstructs_walk_for_all_pairs(geant, geant_hops):
    for src in range(geant.n_nodes):
        for dst in range(geant.n_nodes):
            path = extract_path(geant_hops, src, dst)
            assert len(path) == geant_hops.dist[src, dst]
            at = src
            for arc_id in path:
                assert geant.src[arc_id] == at
                at = geant.dst[arc_id]
            assert at == dst


def lollipop(clique: int, tail: int):
    """A clique of ``clique`` nodes with a path of ``tail`` more hanging off
    its last node: paths from 0 to 2 hops in the clique, to ``tail + 1`` down it."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(v - 1, v) for v in range(clique, clique + tail)]
    return build_graph([(f"n{v}", 0.0, 0.0) for v in range(clique + tail)], edges)


def check_paths(hops, roots: list[int], leaves: list[int], paths=None) -> None:
    """Each flow's arcs, from ``canonical_paths`` on ``hops`` or from
    ``paths``, equal ``extract_path`` on the full table, and ``indptr`` steps
    by each flow's hop count."""
    full = all_pairs(hops.graph)
    paths = paths or (lambda roots, leaves: canonical_paths(hops, roots, leaves))
    indptr, arcs = paths(np.array(roots, dtype=np.intp), np.array(leaves, dtype=np.intp))
    assert len(indptr) == len(roots) + 1 and indptr[0] == 0 and indptr[-1] == len(arcs)
    assert np.diff(indptr).tolist() == [int(full.dist[r, v]) for r, v in zip(roots, leaves)]
    for flow, (root, leaf) in enumerate(zip(roots, leaves)):
        assert arcs[indptr[flow]:indptr[flow + 1]].tolist() == extract_path(full, root, leaf)


def test_canonical_paths_equal_extract_path_for_all_pairs(geant, geant_hops):
    """Every (root, leaf) pair at once, on GEANT, random graphs, a lollipop
    (paths of 0 to 31 hops in one call) and a lone node."""
    rng = np.random.default_rng(21)
    cases = [(geant, geant_hops)]
    for _ in range(20):
        n = int(rng.integers(1, 25))
        graph = random_connected_graph(rng, n, int(rng.integers(0, n + 1)))
        cases.append((graph, all_pairs(graph)))
    for graph in (lollipop(6, 30), build_graph([("only", 0.0, 0.0)], [])):
        cases.append((graph, all_pairs(graph)))
    for graph, hops in cases:
        n = graph.n_nodes
        roots, leaves = np.divmod(np.arange(n * n), n)
        check_paths(hops, roots.tolist(), leaves.tolist())


def test_canonical_paths_of_very_different_lengths():
    """Many short flows inside a lollipop's clique plus the one longest
    flow, 31 hops down its tail, in shuffled order; the longest both ways,
    repeated; and no flow at all. Read from the full table and from one
    holding only the roots' rows."""
    graph = lollipop(6, 30)
    last = graph.n_nodes - 1
    short = np.random.default_rng(29).integers(0, 6, size=(2, 500)).tolist()
    cases = [(short[0] + [last] + short[1], short[1] + [0] + short[0]),
             ([last, 0, last], [0, last, 0]), ([], [])]
    for roots, leaves in cases:
        for hops in (all_pairs(graph), hop_table(graph, sorted(set(roots)))):
            check_paths(hops, roots, leaves)
    assert int(all_pairs(graph).dist[last, 0]) == 31


def test_path_memo_equals_canonical_paths(geant, tmp_path, monkeypatch):
    """``PathMemo.paths`` returns what ``canonical_paths`` does on the
    bundled backbone, a 300-node synthetic one and a lollipop, from a table
    of some rows: shuffled batches with repeated pairs over several calls,
    so later calls mix walked and new pairs. No pair is walked twice."""
    walked = []
    walk = topology.canonical_paths
    monkeypatch.setattr(topology, "canonical_paths", lambda hops, roots, leaves: walked.extend(
        zip(roots.tolist(), leaves.tolist())) or walk(hops, roots, leaves))
    rng = np.random.default_rng(31)
    synthetic = load_topology(write_synthetic(tmp_path, 1, 300, 60)[0])
    for graph in (geant, synthetic, lollipop(6, 30)):
        held = np.sort(rng.choice(graph.n_nodes, size=min(graph.n_nodes, 40), replace=False))
        hops = hop_table(graph, held)
        memo = topology.PathMemo(hops)
        walked.clear()
        asked = set()
        for size in (0, 1, 60, 400, 400):
            roots, leaves = rng.choice(held, size=(2, size))
            pairs = set(zip(roots.tolist(), leaves.tolist()))
            assert size < 400 or 0 < len(pairs - asked) < len(pairs)
            asked |= pairs
            want = canonical_paths(hops, roots, leaves)
            got = memo.paths(roots, leaves)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            check_paths(hops, roots.tolist(), leaves.tolist(), memo.paths)
        assert len(walked) == len(set(walked)) and set(walked) == asked


def test_path_memo_needs_rows_of_roots_and_leaves(geant):
    """A root or a leaf without a row raises IndexError, as a missing hop
    row does in ``canonical_paths``."""
    hops = hop_table(geant, [0, 1])
    memo = topology.PathMemo(hops)
    with pytest.raises(IndexError):
        canonical_paths(hops, [2], [0])
    for roots, leaves in (([2], [0]), ([0], [2]), ([0, 1], [1, 5])):
        with pytest.raises(IndexError):
            memo.paths(roots, leaves)
    indptr, arcs = memo.paths([0, 1], [1, 0])
    assert indptr.tolist() == [0, 1, 2] and arcs.tolist() == [arcs[0], arcs[0] ^ 1]


def test_gather_equals_a_loop_over_rows():
    rng = np.random.default_rng(23)
    cases = [(np.array([0, 0, 0]), np.array([], dtype=int))]
    for _ in range(30):
        # Rows of 0-4 entries, some empty; rows asked for repeatedly or not at all.
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 5, size=int(rng.integers(1, 8))))])
        cases.append((indptr, rng.integers(0, len(indptr) - 1, size=int(rng.integers(0, 12)))))
    for indptr, rows in cases:
        values = rng.integers(0, 1000, size=indptr[-1])
        owner, entries = gather(indptr, values, rows)
        want = [(i, value) for i, row in enumerate(rows.tolist())
                for value in values[indptr[row]:indptr[row + 1]].tolist()]
        assert list(zip(owner.tolist(), entries.tolist())) == want
    assert any(len(rows) > len(set(rows.tolist())) for _, rows in cases)
    assert any((np.diff(indptr)[rows] == 0).any() for indptr, rows in cases)


def test_nearest_matches_brute_force_with_lowest_id_ties():
    """Each node's key is (hops to its nearest candidate) * n + that
    candidate, ties to the lowest id; it equals the node exactly at a
    candidate. No candidate gives no row."""
    rng = np.random.default_rng(22)
    ties = 0
    for _ in range(30):
        n = int(rng.integers(2, 25))
        graph = random_connected_graph(rng, n, int(rng.integers(0, n)))
        hops = all_pairs(graph)
        size = int(rng.integers(1, n + 1))
        candidates = [int(v) for v in rng.choice(n, size=size, replace=False)]
        row = nearest(hops, candidates)
        for v in range(n):
            best = min(int(hops.dist[v, c]) for c in candidates)
            closest = [c for c in candidates if hops.dist[v, c] == best]
            ties += len(closest) > 1
            assert row[v] == best * n + min(closest)
            assert row[v] % n == min(closest) and (row[v] == v) == (v in candidates)
    assert ties > 0
    assert nearest(hops, []) is None


def test_nearest_at_some_nodes_equals_the_full_map_at_them(row_graphs):
    """The row read from a table of the candidates' rows alone equals the
    one read from a table of more rows, whatever the candidates' order and
    repeats. The row is int64 and read-only."""
    rng = np.random.default_rng(28)
    for graph in row_graphs:
        n = graph.n_nodes
        for size in sorted({1, min(n, 3), min(n, 20)}):
            candidates = rng.choice(n, size=size, replace=False)
            more = np.concatenate([candidates, rng.choice(n, size=min(n, 64), replace=False)])
            full = nearest(hop_table(graph, more), np.sort(candidates))
            row = nearest(hop_table(graph, candidates),
                          candidates.tolist() + candidates[:1].tolist())
            assert row.dtype == np.int64 and not row.flags.writeable
            assert row.tolist() == full.tolist()
        assert nearest(hop_table(graph, []), []) is None
        assert nearest(hop_table(graph, []), ()) is None


def test_nearest_equals_the_int64_formula_on_large_backbones(geant, tmp_path):
    """The row built in the graph's key type equals ``(dist * n + c).min(axis=0)``
    taken in int64, on the bundled, 2,000-node and 10,000-node backbones."""
    rng = np.random.default_rng(41)
    graphs = [geant] + [load_topology(write_synthetic(tmp_path, 1, n, chords)[0])
                        for n, chords in ((2000, 400), (10000, 2000))]
    for graph in graphs:
        n = graph.n_nodes
        for size in (1, 8, 37):
            candidates = np.sort(rng.choice(n, size=size, replace=False))
            hops = hop_table(graph, candidates)
            want = (hops.dist[hops.slot[candidates]] * np.int64(n)
                    + candidates[:, None]).min(axis=0)
            row = nearest(hops, candidates)
            assert row.dtype == np.int64 and row.tolist() == want.tolist()


def test_nearest_keys_are_int32_up_to_46340_nodes():
    """Keys reach n**2 - 1, which int32 holds up to 46,340 nodes and not at
    46,341. A stub table of one row, every node as far as can be from the
    highest id, puts the largest key at each node without a graph that large."""
    for n, key in ((46340, np.int32), (46341, np.int64)):
        assert topology._key_type(n) is key
        assert (n * n - 1 <= np.iinfo(np.int32).max) == (key is np.int32)
        dist = np.full((1, n), n - 1, dtype=np.int32)
        dist[0, -1] = 0
        slot = np.full(n, NO_ROW, dtype=np.intp)
        slot[-1] = 0
        hops = topology.HopTable(graph=SimpleNamespace(n_nodes=n), dist=dist, in_arc=dist,
                                 slot=slot)
        row = nearest(hops, [n - 1])
        assert row.dtype == np.int64 and row[0] == n * n - 1 and row[-1] == n - 1


def test_predecessor_tie_breaks_to_lowest_node_id():
    # diamond: 0-1-3 and 0-2-3 are both shortest; the walk must go via 1
    g = build_graph(
        [("s", 0, 0), ("p", 0, 1), ("q", 1, 0), ("t", 1, 1)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    hops = all_pairs(g)
    path = extract_path(hops, 0, 3)
    assert [g.dst[a] for a in path] == [1, 3]


def bfs_in_arcs(graph, source: int) -> list[int]:
    """Oracle for ``in_arc[source]``: the arc into each node from its
    lowest-id neighbour one hop closer, found among that neighbour's
    out-arcs; -1 at the source."""
    dist = bfs_distances(graph, source)
    out = adjacency(graph)
    arcs = []
    for v in range(graph.n_nodes):
        if v == source:
            arcs.append(-1)
            continue
        u = min(u for _, u in out[v] if dist[u] == dist[v] - 1)
        arcs.append(next(arc for arc, head in out[u] if head == v))
    return arcs


def _path(n):
    return build_graph([(f"p{i}", 0.0, float(i)) for i in range(n)],
                       [(i, i + 1) for i in range(n - 1)])


def _edge_graphs() -> list:
    """Graphs at the edges of the block search: 1 and 2 nodes, a 131-node
    path, a star with hub 32, K12, and trees plus chords of 63, 64, 65, 129
    and 300 nodes (both sides of the source-block and 64-bit word sizes);
    then at the edge of the hop table's type: paths of 64 and 65 nodes, 126
    and 128 arcs, the last int8 table and the first int16 one."""
    rng = np.random.default_rng(23)
    # A star whose hub sits mid-range, with leaf ids on both sides of it.
    star = build_graph([(f"s{i}", 0.0, float(i)) for i in range(_BLOCK + 1)],
                       [(_BLOCK // 2, v) for v in range(_BLOCK + 1) if v != _BLOCK // 2])
    complete = build_graph([(f"k{i}", 0.0, float(i)) for i in range(12)],
                           [(u, v) for u in range(12) for v in range(u)])
    graphs = [_path(1), _path(2), _path(2 * _BLOCK + 3), star, complete]
    for n in sorted({63, 64, 65, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 300}):
        graphs.append(random_connected_graph(rng, n, n // 2))
    return graphs + [_path(64), _path(65)]


def test_all_pairs_dist_and_in_arc_equal_bfs_oracle(geant, triangle):
    """Every row of ``all_pairs`` equals the queue BFS and its in-arc oracle,
    in the least signed type that holds -1 and the arc count; the distances
    are symmetric and, summed in that type, keep the triangle inequality.
    On the bundled backbone, the triangle, the edge graphs and 30 random
    graphs of 2-20 nodes."""
    rng = np.random.default_rng(42)
    randoms = []
    for _ in range(30):
        n = int(rng.integers(2, 21))
        randoms.append(random_connected_graph(rng, n, int(rng.integers(0, 2 * n))))
    for graph in [geant, triangle] + _edge_graphs() + randoms:
        hops = all_pairs(graph)
        n = graph.n_nodes
        assert hops.dist.shape == hops.in_arc.shape == (n, n)
        want = np.int8 if graph.n_arcs <= 127 else np.int16
        assert hops.dist.dtype == hops.in_arc.dtype == want
        for s in range(n):
            assert hops.dist[s].tolist() == bfs_distances(graph, s)
            assert hops.in_arc[s].tolist() == bfs_in_arcs(graph, s)
        d = hops.dist
        assert (d == d.T).all()
        for w in range(n):
            assert (d <= d[:, w, None] + d[w]).all()


SYNTHETIC_SEEDS = (1, 2, 3, 4)
# One id per graph of ``row_graphs``, in its order.
ROW_GRAPH_IDS = (["geant"] + [f"synthetic{seed}" for seed in SYNTHETIC_SEEDS]
                 + [f"edge{at}" for at in range(len(_edge_graphs()))])


@pytest.fixture(scope="module")
def row_graphs(geant, tmp_path_factory):
    """The bundled backbone, the synthetic backbones of seeds 1-4 and the edge graphs."""
    out = tmp_path_factory.mktemp("synthetic")
    synthetic = [load_topology(write_synthetic(out, seed)[0]) for seed in SYNTHETIC_SEEDS]
    return [geant] + synthetic + _edge_graphs()


@pytest.fixture(scope="module", params=range(len(ROW_GRAPH_IDS)), ids=ROW_GRAPH_IDS)
def row_table(request, row_graphs):
    """One graph of ``row_graphs`` and its ``all_pairs`` table. pytest runs the
    tests that take this module-scoped fixture graph by graph, so each table
    is built once and one is held at a time: 32 MB at 2,000 nodes."""
    graph = row_graphs[request.param]
    return graph, all_pairs(graph)


def test_in_arc_rows_hold_their_invariants_entry_by_entry(row_table):
    """On every ``all_pairs`` entry (s, v), v != s, the in-arc a enters v,
    leaves a node one hop closer to s, and leaves the lowest-id such node;
    at v == s it is -1. Checked for every in-arc of every node, in blocks
    of sources, on the 2,000-node backbones too."""
    graph, hops = row_table
    n, src, dst = graph.n_nodes, graph.src, graph.dst
    for s0 in range(0, n, 256):
        s = np.arange(s0, min(s0 + 256, n))
        dist, arc = hops.dist[s], hops.in_arc[s].astype(np.intp)
        source = s[:, None] == np.arange(n)
        assert (arc[source] == -1).all() and (arc[~source] >= 0).all()
        if n == 1:
            continue  # a lone node has no arc to read
        a = np.where(source, 0, arc)
        rows = np.arange(len(s))[:, None]
        assert (dst[a] == np.arange(n))[~source].all()
        assert (dist[rows, src[a]] + 1 == dist)[~source].all()
        # No arc from a lower-id node one hop closer enters v.
        closer = dist[:, src] + 1 == dist[:, dst]
        chosen = src[a][:, dst]
        assert (~closer | (chosen <= src)).all()


def test_hop_rows_equal_all_pairs(row_table):
    graph, reference = row_table
    rng = np.random.default_rng(25)
    n = graph.n_nodes
    # Every node, in shuffled requests of 1-191 sources with duplicates.
    order = np.concatenate([rng.permutation(n), rng.integers(0, n, size=n // 2)])
    cuts = np.cumsum(rng.integers(1, 3 * _BLOCK, size=len(order)))
    for sources in np.split(order, cuts[cuts < len(order)]):
        table = hop_table(graph, sources)
        at = table.slot[sources]
        assert (table.dist[at] == reference.dist[sources]).all()
        assert (table.in_arc[at] == reference.in_arc[sources]).all()
        # Row i belongs to the i-th lowest distinct source.
        distinct = np.flatnonzero(table.slot != NO_ROW)
        assert table.slot[distinct].tolist() == list(range(len(distinct)))
        assert distinct.tolist() == sorted(set(sources.tolist()))
        assert not any(a.flags.writeable for a in (table.dist, table.in_arc, table.slot))


def test_streaming_closeness_equals_all_pairs_row_sums(row_table, row_graphs, star4):
    """Each node's closeness is (n - 1) over its own ``all_pairs`` row sum,
    bit for bit, and lies in (0, 1]. With the bundled backbone run star4,
    whose hub is exactly 1.0 and leaves 3/5, a 9-node path, a 9-node cycle,
    a 40-node tree with 4 chords (a 2-core with trees hanging off it) and
    random graphs of 1-130 nodes."""
    graph, hops = row_table
    tables = [(graph, hops)]
    if graph is row_graphs[0]:
        rng = np.random.default_rng(24)
        cycle = build_graph([(f"c{i}", 0.0, float(i)) for i in range(9)],
                            [(i, (i + 1) % 9) for i in range(9)])
        graphs = [random_connected_graph(rng, n, n // 3) for n in (1, 2, 5, 40, 130)]
        graphs += [star4, _path(9), cycle, random_connected_graph(rng, 40, 4)]
        tables += [(g, all_pairs(g)) for g in graphs]
        assert star4.closeness.tolist() == [1.0, 3 / 5, 3 / 5, 3 / 5]
    for graph, hops in tables:
        n = graph.n_nodes
        values = graph.closeness
        expected = [(n - 1) / float(hops.dist[v].sum()) if n > 1 else 1.0 for v in range(n)]
        assert values.dtype == np.float64 and values.shape == (n,)
        assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert ((0.0 < values) & (values <= 1.0)).all()
        # Kept on the graph, and read-only so no caller can change it.
        assert graph.closeness is values and not values.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.closeness = values


def test_closeness_runs_no_predecessor_sweep(row_graphs, monkeypatch):
    """Closeness of fresh copies of the row graphs, which hold no view yet,
    searches every 64-source block of each and sweeps no predecessors."""
    sweeps = []
    sweep = topology._predecessors
    monkeypatch.setattr(topology, "_predecessors",
                        lambda *args: sweeps.append(args) or sweep(*args))
    searches = _counting_searches(monkeypatch)
    graphs = [dataclasses.replace(graph) for graph in row_graphs]
    for graph in graphs:
        graph.closeness
    assert searches == [min(_BLOCK, graph.n_nodes - s0) for graph in graphs
                        if graph.n_nodes > 1 for s0 in range(0, graph.n_nodes, _BLOCK)]
    assert sweeps == []
    # The spy sees the sweep of every block a hop table searches.
    hop_table(row_graphs[0], [0])
    assert len(sweeps) == 1


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
    """A table of shuffled sources with duplicates searches each distinct
    source once, 64 to a block, and holds exactly their rows, read-only;
    reading it again searches nothing."""
    rng = np.random.default_rng(26)
    graph = random_connected_graph(rng, 300, 150)
    reference = all_pairs(graph)
    searches = _counting_searches(monkeypatch)
    nodes = rng.permutation(300)[:150]
    table = hop_table(graph, np.concatenate([nodes, rng.choice(nodes, size=40)]))
    assert searches == [64, 64, 22]
    assert sorted(np.flatnonzero(table.slot != NO_ROW)) == sorted(nodes)
    for _ in range(50):
        sources = rng.choice(nodes, size=rng.integers(0, 12))
        at = table.slot[sources]
        assert (table.dist[at] == reference.dist[sources]).all()
        assert (table.in_arc[at] == reference.in_arc[sources]).all()
    assert len(searches) == 3
    assert not (table.dist.flags.writeable or table.slot.flags.writeable)


def test_every_call_searches_its_distinct_sources(monkeypatch):
    """Every call searches each distinct source it is given, and returns a
    new table of exactly their rows; no row is kept between calls, and
    earlier tables keep theirs."""
    rng = np.random.default_rng(27)
    graph = random_connected_graph(rng, 300, 150)
    reference = all_pairs(graph)
    searches = _counting_searches(monkeypatch)
    kept = rng.permutation(300)[:150]
    others = np.setdiff1d(np.arange(300), kept)
    earlier = []
    for m in (1, 64, 65, 130):
        fresh = rng.choice(others, size=m, replace=False)
        sources = np.concatenate([fresh, fresh[:m // 2], kept[:5]])
        distinct = m + 5
        for _ in range(2):  # searched rows are not kept
            searches.clear()
            table = hop_table(graph, rng.permutation(sources))
            assert searches == [min(64, distinct - at) for at in range(0, distinct, 64)]
        asked = np.zeros(300, dtype=bool)
        asked[sources] = True
        assert ((table.slot != NO_ROW) == asked).all()
        assert len(table.dist) == len(table.in_arc) == asked.sum()
        assert not (table.dist.flags.writeable or table.in_arc.flags.writeable)
        with pytest.raises(IndexError):
            table.dist[table.slot[np.flatnonzero(~asked)[:1]]]
        earlier.append((table, sources))
    for table, sources in earlier:
        at = table.slot[sources]
        assert (table.dist[at] == reference.dist[sources]).all()
        assert (table.in_arc[at] == reference.in_arc[sources]).all()


def test_fixture_loads_quickly():
    import time

    start = time.perf_counter()
    load_topology(bundled_topology())
    assert time.perf_counter() - start < 1.0
