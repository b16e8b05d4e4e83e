"""Backbone topology ingestion and unit-weight shortest-path services.

Graphs come from Internet Topology Zoo GraphML documents (``Latitude`` /
``Longitude`` node keys). Every undirected edge is expanded into a pair of
directed arcs so that forward and reverse traffic can be accounted
separately; arc ``2j`` and ``2j+1`` are the two directions of source edge
``j``, which makes the reverse of arc ``a`` simply ``a ^ 1``.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Node",
    "Arc",
    "NetworkGraph",
    "HopTable",
    "TopologyError",
    "build_graph",
    "load_topology",
    "all_pairs",
    "extract_path",
    "canonical_paths",
    "nearest",
    "closeness",
]

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


class TopologyError(ValueError):
    """Raised for malformed or unusable topology documents."""


@dataclass(frozen=True)
class Node:
    id: int
    label: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Arc:
    id: int
    src: int
    dst: int


@dataclass(frozen=True)
class NetworkGraph:
    """Directed-arc view of an undirected backbone graph.

    Node and arc ids are dense and 0-based. The graph is guaranteed
    connected; construction fails otherwise. Instances are immutable and
    safe to share across concurrent trial workers.
    """

    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]
    out_arcs: tuple[tuple[int, ...], ...]
    # Arc ids by endpoints: sorted ``src * n + dst`` keys and the id of each.
    _arc_keys: np.ndarray = field(repr=False, compare=False)
    _arc_ids: np.ndarray = field(repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(self.arcs[a].dst for a in self.out_arcs[node])

    def arc_between(self, src: int, dst: int) -> int:
        """Arc id of the directed arc src -> dst; KeyError if absent."""
        at = int(np.searchsorted(self._arc_keys, src * self.n_nodes + dst))
        if at < len(self._arc_ids):
            arc = self.arcs[self._arc_ids[at]]
            if (arc.src, arc.dst) == (src, dst):
                return arc.id
        raise KeyError((src, dst))

    def arcs_between(self, src, dst) -> np.ndarray:
        """Ids of the arcs ``src[i] -> dst[i]``; every pair must be an arc."""
        key = np.asarray(src, dtype=np.int64) * self.n_nodes + np.asarray(dst, dtype=np.int64)
        return self._arc_ids[np.searchsorted(self._arc_keys, key)]

    def reverse_arc(self, arc_id: int) -> int:
        # Arcs are emitted in forward/backward pairs, so the partner
        # differs only in the lowest bit.
        return arc_id ^ 1


def build_graph(coords: list[tuple[str, float, float]],
                edges: list[tuple[int, int]]) -> NetworkGraph:
    """Assemble a NetworkGraph from (label, lat, lon) nodes and undirected edges.

    Duplicate undirected edges are collapsed; self-loops are rejected.
    The resulting arc list holds two directed arcs per surviving edge.
    """
    nodes = tuple(Node(i, label, lat, lon) for i, (label, lat, lon) in enumerate(coords))
    n = len(nodes)
    seen: set[tuple[int, int]] = set()
    unique_edges: list[tuple[int, int]] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"edge ({u}, {v}) references an unknown node")
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        unique_edges.append((u, v))

    arcs: list[Arc] = []
    for u, v in unique_edges:
        arcs.append(Arc(len(arcs), u, v))
        arcs.append(Arc(len(arcs), v, u))

    out: list[list[int]] = [[] for _ in range(n)]
    for arc in arcs:
        out[arc.src].append(arc.id)
    keys = np.array([a.src * n + a.dst for a in arcs], dtype=np.int64)
    ids = np.argsort(keys)
    graph = NetworkGraph(
        nodes=nodes,
        arcs=tuple(arcs),
        out_arcs=tuple(tuple(a) for a in out),
        _arc_keys=keys[ids],
        _arc_ids=ids,
    )
    _check_connected(graph)
    return graph


def _check_connected(graph: NetworkGraph) -> None:
    if graph.n_nodes == 0:
        raise TopologyError("graph has no nodes")
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != graph.n_nodes:
        missing = sorted(set(range(graph.n_nodes)) - seen)
        raise TopologyError(
            f"graph is disconnected: {len(missing)} node(s) unreachable "
            f"from node 0 (e.g. node {missing[0]})"
        )


def load_topology(source: str | Path) -> NetworkGraph:
    """Parse a Topology Zoo GraphML document into a NetworkGraph.

    Dense node ids follow document order. Nodes must carry Latitude and
    Longitude data keys; an offending node is named in the error.
    """
    try:
        tree = ET.parse(str(source))
    except ET.ParseError as exc:
        raise TopologyError(f"malformed GraphML document: {exc}") from exc
    root = tree.getroot()

    key_ids: dict[str, str] = {}
    for key in root.findall(f"{_GRAPHML_NS}key"):
        if key.get("for") == "node":
            key_ids[key.get("attr.name", "")] = key.get("id", "")
    lat_key = key_ids.get("Latitude")
    lon_key = key_ids.get("Longitude")
    label_key = key_ids.get("label")
    if lat_key is None or lon_key is None:
        raise TopologyError("document declares no Latitude/Longitude node keys")

    graph_el = root.find(f"{_GRAPHML_NS}graph")
    if graph_el is None:
        raise TopologyError("document contains no <graph> element")

    coords: list[tuple[str, float, float]] = []
    dense_id: dict[str, int] = {}
    for el in graph_el.findall(f"{_GRAPHML_NS}node"):
        raw_id = el.get("id")
        if raw_id is None:
            raise TopologyError("node without id attribute")
        data = {d.get("key"): (d.text or "") for d in el.findall(f"{_GRAPHML_NS}data")}
        label = data.get(label_key, raw_id) if label_key else raw_id
        try:
            lat = float(data[lat_key])
            lon = float(data[lon_key])
        except (KeyError, ValueError):
            raise TopologyError(f"node {raw_id!r} ({label!r}) lacks usable coordinates") from None
        dense_id[raw_id] = len(coords)
        coords.append((label, lat, lon))

    edges: list[tuple[int, int]] = []
    for el in graph_el.findall(f"{_GRAPHML_NS}edge"):
        try:
            u = dense_id[el.get("source")]
            v = dense_id[el.get("target")]
        except KeyError as exc:
            raise TopologyError(f"edge references unknown node {exc}") from None
        edges.append((u, v))

    return build_graph(coords, edges)


@dataclass(frozen=True)
class HopTable:
    """All-pairs hop counts plus one deterministic predecessor tree per source.

    ``dist[s, v]`` is the exact unit-weight shortest hop count and
    ``pred[s, v]`` the predecessor of ``v`` on the canonical path from
    ``s`` (ties broken by lowest predecessor node id; ``pred[s, s] = s``).
    Immutable and shareable.
    """

    graph: NetworkGraph
    dist: np.ndarray
    pred: np.ndarray


def all_pairs(graph: NetworkGraph) -> HopTable:
    """Breadth-first all-pairs shortest hop counts on unit arc weights."""
    n = graph.n_nodes
    dist = np.full((n, n), -1, dtype=np.int32)
    pred = np.full((n, n), -1, dtype=np.int32)
    neigh = [sorted(graph.neighbors(v)) for v in range(n)]
    for s in range(n):
        drow = dist[s]
        drow[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                du = drow[u]
                for v in neigh[u]:
                    if drow[v] < 0:
                        drow[v] = du + 1
                        nxt.append(v)
            frontier = nxt
        # Lowest-id predecessor makes path extraction reproducible.
        prow = pred[s]
        prow[s] = s
        for v in range(n):
            if v == s:
                continue
            prow[v] = min(u for u in neigh[v] if drow[u] == drow[v] - 1)
    dist.setflags(write=False)
    pred.setflags(write=False)
    return HopTable(graph=graph, dist=dist, pred=pred)


def extract_path(hops: HopTable, src: int, dst: int) -> list[int]:
    """Ordered arc ids of the canonical shortest path src -> dst.

    Empty when src == dst; length always equals ``dist[src, dst]``.
    """
    if src == dst:
        return []
    node_walk = [dst]
    v = dst
    while v != src:
        v = int(hops.pred[src, v])
        node_walk.append(v)
    node_walk.reverse()
    graph = hops.graph
    return [graph.arc_between(u, v) for u, v in zip(node_walk, node_walk[1:])]


def canonical_paths(hops: HopTable, roots, leaves) -> tuple[np.ndarray, np.ndarray]:
    """Canonical paths ``roots[f] -> leaves[f]`` of many flows at once, as CSR.

    ``arcs[indptr[f]:indptr[f + 1]]`` equals ``extract_path(hops, roots[f],
    leaves[f])``. Every flow walks ``pred[root, .]`` up from its leaf, one
    level per step for all flows together.
    """
    roots = np.asarray(roots, dtype=np.intp)
    leaves = np.asarray(leaves, dtype=np.intp)
    indptr = np.zeros(len(leaves) + 1, dtype=np.intp)
    np.cumsum(hops.dist[roots, leaves], out=indptr[1:])
    arcs = np.empty(indptr[-1], dtype=np.intp)
    flow = np.flatnonzero(indptr[1:] > indptr[:-1])
    node = leaves[flow]
    slot = indptr[flow + 1]
    while flow.size:
        up = hops.pred[roots[flow], node].astype(np.intp)
        slot = slot - 1
        arcs[slot] = hops.graph.arcs_between(up, node)
        more = up != roots[flow]
        flow, node, slot = flow[more], up[more], slot[more]
    return indptr, arcs


def nearest(hops: HopTable, candidates) -> np.ndarray:
    """Per node: the candidate nearest to it in hops, ties to the lowest id.

    Every entry is -1 when there is no candidate.
    """
    candidates = np.array(sorted(set(candidates)), dtype=np.intp)
    if candidates.size == 0:
        return np.full(hops.graph.n_nodes, -1, dtype=np.intp)
    return candidates[np.argmin(hops.dist[:, candidates], axis=1)]


def closeness(hops: HopTable, node: int) -> float:
    """Closeness centrality: (|V| - 1) / sum of hop distances from node."""
    n = hops.graph.n_nodes
    if n < 2:
        return 1.0
    return (n - 1) / float(hops.dist[node].sum())
