"""Backbone topology ingestion and unit-weight shortest-path services.

Graphs come from Internet Topology Zoo GraphML documents (``Latitude`` /
``Longitude`` node keys). Every undirected edge is expanded into a pair of
directed arcs so that forward and reverse traffic can be accounted
separately; arc ``2j`` and ``2j+1`` are the two directions of source edge
``j``, which makes the reverse of arc ``a`` simply ``a ^ 1``.

Hop counts come as rows, one per source, from a breadth-first search of 64
sources at a time. The pipeline reads only the rows a trial uses, its fog,
cloud and LDNS points, so no n x n table is built: ``HopRows`` searches the
rows of a held set of nodes once, and any other row per call. ``all_pairs``
searches every row; the tests and their scalar oracles (``tests/oracles.py``)
read it.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FogcastError

__all__ = [
    "Node",
    "Arc",
    "NetworkGraph",
    "HopTable",
    "HopRows",
    "NO_ROW",
    "TopologyError",
    "build_graph",
    "load_topology",
    "all_pairs",
    "arc_ends",
    "canonical_paths",
    "gather",
    "nearest",
    "closeness",
]

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


class TopologyError(FogcastError):
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

    def arcs_between(self, src, dst) -> np.ndarray:
        """Ids of the arcs ``src[i] -> dst[i]``; every pair must be an arc."""
        key = np.asarray(src, dtype=np.int64) * self.n_nodes + np.asarray(dst, dtype=np.int64)
        return self._arc_ids[np.searchsorted(self._arc_keys, key)]


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
    Longitude data keys; an offending node is named in the error. Every
    error names the file.
    """
    try:
        return _graph_of(ET.parse(str(source)).getroot())
    except ET.ParseError as exc:
        raise TopologyError(f"{source}: malformed GraphML document: {exc}") from exc
    except TopologyError as exc:
        raise TopologyError(f"{source}: {exc}") from None


def _graph_of(root: ET.Element) -> NetworkGraph:
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
    """Hop counts and canonical predecessor trees from a set of sources.

    Source ``s`` owns row ``slot[s]``: ``dist[slot[s], v]`` is the exact
    unit-weight shortest hop count from ``s`` to ``v`` and
    ``pred[slot[s], v]`` the predecessor of ``v`` on the canonical path
    from ``s`` (ties broken by lowest predecessor node id; ``s`` is its own
    predecessor). ``all_pairs`` gives node ``s`` row ``s``, so its
    ``dist[s, v]`` reads directly, as the scalar oracles in
    ``tests/oracles.py`` read it; a table from ``HopRows`` holds the rows
    it was asked for, and ``slot`` is ``NO_ROW`` for the others, an index
    past every array, so reading a row it lacks raises IndexError. Rows are
    deterministic, so the held set never changes results.
    """

    graph: NetworkGraph
    dist: np.ndarray
    pred: np.ndarray
    slot: np.ndarray


# Sources searched together: one bit of a uint64 word per source.
_BLOCK = 64

# ``HopTable.slot`` of a node without a row: past the end of every array.
NO_ROW = np.iinfo(np.intp).max


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """Bits ``0 .. count - 1`` of each uint64 word as a (len, count) 0/1 array."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little")


def arc_ends(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination node of every arc, indexed by arc id."""
    keys = np.empty_like(graph._arc_keys)
    keys[graph._arc_ids] = graph._arc_keys
    return np.divmod(keys, graph.n_nodes)


def _in_arcs(graph: NetworkGraph):
    """The arcs as ``_bfs_block`` reads them: sources sorted by (dst, src),
    the first arc into each node, and per slot ``k`` the nodes with more
    than ``k`` in-arcs and their ``k``-th lowest in-neighbours."""
    src, dst = arc_ends(graph)
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    # A connected graph of two or more nodes gives every node an in-arc.
    start = np.searchsorted(dst, np.arange(graph.n_nodes))
    indeg = np.bincount(dst, minlength=graph.n_nodes)
    slots = []
    for k in range(int(indeg.max(initial=0))):
        v = np.flatnonzero(indeg > k)
        slots.append((v, src[start[v] + k]))
    return src, start, slots


def _bfs_block(in_arcs, sources):
    """Hop counts and canonical predecessors from up to 64 distinct sources.

    A level-synchronous breadth-first search runs from all of them at once:
    node ``v`` holds one uint64 word whose bit ``j`` says whether
    ``sources[j]`` has reached it. One level ORs the words of every
    in-arc's source into its target with one ``bitwise_or.reduceat`` over
    the arcs sorted by (dst, src); a bit that is new at level ``L`` puts
    ``v`` at hop distance ``L`` from that source. The predecessor of ``v``
    is then the lowest id among its in-neighbours one hop closer to the
    source (found by sweeping the sorted in-arcs slot by slot, highest slot
    first, so the lowest id writes last), and a source is its own.

    Returns n x len(sources) int32 ``dist`` and ``pred`` columns; besides
    them memory holds one word per node and arc and per-slot gathers.
    """
    src, start, slots = in_arcs
    n = len(start)
    width = len(sources)
    bit = np.arange(width)
    seen = np.zeros(n, dtype=np.uint64)
    seen[sources] = np.uint64(1) << bit.astype(np.uint64)
    frontier = seen
    d = np.zeros((n, width), dtype=np.int32)
    # A lone node has no arcs; its zero distance is already right.
    while src.size and frontier.any():
        unseen = ~seen
        # Each level a source has not yet reached v adds one hop to dist.
        d += _bits(unseen, width)
        frontier = np.bitwise_or.reduceat(frontier[src], start) & unseen
        seen |= frontier
    p = np.full((n, width), -1, dtype=np.int32)
    for v, u in reversed(slots):
        p[v] = np.where(d[u] + 1 == d[v], u[:, None], p[v])
    p[sources, bit] = sources
    return d, p


def _hop_table(graph: NetworkGraph, in_arcs, sources, held: HopTable | None = None) -> HopTable:
    """A read-only HopTable of exactly the rows of distinct ``sources``.

    Row ``i`` belongs to ``sources[i]``. Rows ``held`` holds are copied from
    it; ``_bfs_block`` searches the others, 64 at a time.
    """
    n = graph.n_nodes
    slot = np.full(n, NO_ROW, dtype=np.intp)
    slot[sources] = np.arange(len(sources))
    dist = np.empty((len(sources), n), dtype=np.int32)
    pred = np.empty((len(sources), n), dtype=np.int32)
    missing = np.arange(len(sources))
    if held is not None:
        copied = held.slot[sources] != NO_ROW
        rows = held.slot[sources[copied]]
        dist[copied], pred[copied] = held.dist[rows], held.pred[rows]
        missing = missing[~copied]
    for at in range(0, len(missing), _BLOCK):
        rows = missing[at:at + _BLOCK]
        d, p = _bfs_block(in_arcs, sources[rows])
        dist[rows] = d.T
        pred[rows] = p.T
    for table in (dist, pred, slot):
        table.setflags(write=False)
    return HopTable(graph=graph, dist=dist, pred=pred, slot=slot)


def all_pairs(graph: NetworkGraph) -> HopTable:
    """Every node's hop row: an n x n ``dist`` and ``pred``, ``slot[s] = s``.

    The pipeline reads only the rows it needs, through ``HopRows``; this
    full table is the reference of the tests and of the scalar oracles in
    ``tests/oracles.py``.
    """
    return _hop_table(graph, _in_arcs(graph), np.arange(graph.n_nodes))


class HopRows:
    """Hop rows of a graph: those of ``held`` searched once, any other per call.

    ``held`` lists distinct nodes, the sources trials ask for most; their
    rows are searched at construction into the read-only table ``held``.
    ``table(sources)`` returns that table when it holds every row of
    ``sources``, and otherwise a new table of exactly their rows, the held
    ones copied and the others searched; searched rows are not kept.
    Nothing changes after construction but the cached ``centrality``, every
    node's closeness, computed on first use, so a HopRows is safe to share.
    """

    def __init__(self, graph: NetworkGraph, held=()):
        self.graph = graph
        self._in_arcs = _in_arcs(graph)
        self.held = _hop_table(graph, self._in_arcs, np.asarray(held, dtype=np.intp))

    def table(self, sources) -> HopTable:
        """A HopTable holding (at least) the rows of ``sources``."""
        sources = np.asarray(sources, dtype=np.intp)
        held = self.held
        if (held.slot[sources] != NO_ROW).all():
            return held
        wanted = np.zeros(self.graph.n_nodes, dtype=bool)
        wanted[sources] = True
        return _hop_table(self.graph, self._in_arcs, np.flatnonzero(wanted), held)

    @cached_property
    def centrality(self) -> np.ndarray:
        """``closeness`` of every node, read-only."""
        value = closeness(self.graph)
        value.setflags(write=False)
        return value


def canonical_paths(hops: HopTable, roots, leaves) -> tuple[np.ndarray, np.ndarray]:
    """Canonical paths ``roots[f] -> leaves[f]`` of many flows at once, as CSR.

    ``arcs[indptr[f]:indptr[f + 1]]`` are the arcs of the canonical path
    from ``roots[f]`` to ``leaves[f]``, in order. Every flow walks the
    ``pred`` row of its root up from its leaf, one level per step for all
    flows together; ``hops`` must hold the roots' rows.
    """
    roots = np.asarray(roots, dtype=np.intp)
    leaves = np.asarray(leaves, dtype=np.intp)
    rows = hops.slot[roots]
    indptr = np.zeros(len(leaves) + 1, dtype=np.intp)
    np.cumsum(hops.dist[rows, leaves], out=indptr[1:])
    arcs = np.empty(indptr[-1], dtype=np.intp)
    flow = np.flatnonzero(indptr[1:] > indptr[:-1])
    node = leaves[flow]
    slot = indptr[flow + 1]
    while flow.size:
        up = hops.pred[rows[flow], node].astype(np.intp)
        slot = slot - 1
        arcs[slot] = hops.graph.arcs_between(up, node)
        more = up != roots[flow]
        flow, node, slot = flow[more], up[more], slot[more]
    return indptr, arcs


def gather(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray):
    """Entries of CSR row ``rows[i]`` for every i, in order: (i per entry, entry).

    Row ``r`` is ``values[indptr[r]:indptr[r + 1]]``; a row may be asked
    for any number of times.
    """
    lengths = indptr[rows + 1] - indptr[rows]
    owner = np.repeat(np.arange(len(rows)), lengths)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, values[indptr[rows][owner] + offset]


def nearest(hops: HopTable, candidates) -> np.ndarray:
    """Per node: the candidate nearest to it in hops, ties to the lowest id.

    Reads the candidates' own rows, which ``hops`` must hold: ``build_graph``
    adds both arcs of every edge, so hop distances are symmetric. Every
    entry is -1 when there is no candidate.
    """
    candidates = np.array(sorted(set(candidates)), dtype=np.intp)
    if candidates.size == 0:
        return np.full(hops.graph.n_nodes, -1, dtype=np.intp)
    return candidates[np.argmin(hops.dist[hops.slot[candidates]], axis=0)]


def closeness(graph: NetworkGraph) -> np.ndarray:
    """Closeness centrality of every node: (|V| - 1) / sum of its hop distances.

    The sums come from one streaming pass over every 64-source block,
    which keeps only each block's distance sums; ``HopRows.centrality``
    keeps the result.
    """
    n = graph.n_nodes
    if n < 2:
        return np.ones(n)
    in_arcs = _in_arcs(graph)
    sums = np.concatenate([_bfs_block(in_arcs, np.arange(s0, min(s0 + _BLOCK, n)))[0].sum(axis=0)
                           for s0 in range(0, n, _BLOCK)])
    return (n - 1) / sums.astype(np.float64)
