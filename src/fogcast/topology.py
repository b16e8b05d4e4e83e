"""Backbone topology ingestion and unit-weight shortest-path services.

Graphs come from Internet Topology Zoo GraphML documents (``Latitude`` /
``Longitude`` node keys), read in one streamed pass that keeps each node's
data and each edge's ends and drops the elements once read, so a large
backbone is never held as a tree. A graph is an arc table: read-only
``lat`` and ``lon`` arrays per node and ``src`` and ``dst`` arrays per
directed arc. Every undirected edge is expanded into a pair of arcs so that
forward and reverse traffic can be accounted separately; arc ``2j`` and
``2j+1`` are the two directions of deduplicated edge ``j``, which makes the
reverse of arc ``a`` simply ``a ^ 1``.

Hop counts come as rows, one per source, from a breadth-first search of 64
sources at a time, each with a row of canonical in-arcs that paths are read
from. ``hop_table(graph, sources)`` searches exactly the rows it is asked
for. The pipeline reads only the rows of a trial's fog, cloud and LDNS
points (``nearest`` folds each role's into one key per node), so no n x n
table is built. The full table of every row, ``all_pairs``, is the tests'
reference and lives with their scalar oracles (``tests/oracles.py``).

A ``PathMemo`` of a table walks each pair's ``canonical_paths`` once. Its
index, rows x rows int32 zeros whose pages cost memory once written, is
rows / n the size of an int16 table (294 KB for 271 rows of 2,000 nodes);
its arcs grow with the pairs used.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FogcastError

__all__ = [
    "NetworkGraph",
    "HopTable",
    "NO_ROW",
    "TopologyError",
    "build_graph",
    "load_topology",
    "hop_table",
    "canonical_paths",
    "PathMemo",
    "gather",
    "nearest",
]

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"
_KEY, _GRAPH, _NODE, _EDGE, _DATA = (f"{_GRAPHML_NS}{tag}"
                                    for tag in ("key", "graph", "node", "edge", "data"))


class TopologyError(FogcastError):
    """Raised for malformed or unusable topology documents."""


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Directed-arc view of an undirected backbone graph.

    Node and arc ids are dense and 0-based: node ``v`` is ``labels[v]`` at
    (``lat[v]``, ``lon[v]``), and arc ``a`` runs ``src[a] -> dst[a]``. The
    graph is guaranteed connected; construction fails otherwise. The arrays
    are read-only, so instances are immutable and safe to share across
    concurrent trial workers; they compare and hash by identity. The views
    ``in_arcs``, ``out_arcs`` and ``closeness`` are computed on first read
    and kept on the instance, so they are freed with it; being frozen, it
    takes no assignment to them.
    """

    labels: tuple[str, ...]
    lat: np.ndarray
    lon: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_arcs(self) -> int:
        return len(self.src)

    @cached_property
    def in_arcs(self):
        """The arcs as ``_bfs_block`` and ``_predecessors`` read them: sources
        sorted by (dst, src), the first arc into each node, and per slot ``k``
        the nodes with more than ``k`` in-arcs, their ``k``-th lowest
        in-neighbours and the ids of the arcs from them. Sorted once per graph."""
        order = np.lexsort((self.src, self.dst))
        src, dst = self.src[order], self.dst[order]
        # A connected graph of two or more nodes gives every node an in-arc.
        start = np.searchsorted(dst, np.arange(self.n_nodes))
        indeg = np.bincount(dst, minlength=self.n_nodes)
        slots = []
        for k in range(int(indeg.max(initial=0))):
            v = np.flatnonzero(indeg > k)
            # Arc ids stay intp, not the hop table's narrower type: they make
            # ``_predecessors``' ``np.where`` temporaries the largest blocks set-up
            # frees (1 MB at 2,000 nodes), and glibc sets its heap-trim threshold
            # from them; at half that, steady trials return and re-fault heap.
            slots.append((v, src[start[v] + k], order[start[v] + k]))
        return src, start, slots

    @cached_property
    def out_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's out-arcs, ascending, as a CSR (indptr, arcs)."""
        arcs = np.argsort(self.src, kind="stable")
        return np.searchsorted(self.src[arcs], np.arange(self.n_nodes + 1)), arcs

    @cached_property
    def closeness(self) -> np.ndarray:
        """Closeness centrality of every node: (|V| - 1) / sum of its hop
        distances, read-only. The sums come from one streaming pass over every
        64-source block, which keeps only each block's distance sums."""
        n = self.n_nodes
        if n < 2:
            value = np.ones(n)
        else:
            blocks = (np.arange(s0, min(s0 + _BLOCK, n)) for s0 in range(0, n, _BLOCK))
            sums = np.concatenate([_bfs_block(self.in_arcs, b).sum(axis=0) for b in blocks])
            value = (n - 1) / sums.astype(np.float64)
        value.setflags(write=False)
        return value


def build_graph(coords: list[tuple[str, float, float]],
                edges: list[tuple[int, int]]) -> NetworkGraph:
    """Assemble a NetworkGraph from (label, lat, lon) nodes and undirected edges.

    Edges join node indices into ``coords``. Duplicate undirected edges are
    collapsed, keeping the first occurrence in place; self-loops are
    rejected. Edge ``j`` of what is left becomes arcs ``2j`` (as given) and
    ``2j + 1`` (reversed).
    """
    n = len(coords)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise TopologyError(f"self-loop on node {u[loops[0]]}")
    _, first = np.unique(lo * n + hi, return_index=True)
    kept = ends[np.sort(first)].astype(np.intp)
    src, dst = kept.reshape(-1), kept[:, ::-1].reshape(-1)
    lat = np.array([c[1] for c in coords], dtype=np.float64)
    lon = np.array([c[2] for c in coords], dtype=np.float64)
    for array in (lat, lon, src, dst):
        array.setflags(write=False)
    graph = NetworkGraph(labels=tuple(c[0] for c in coords), lat=lat, lon=lon,
                         src=src, dst=dst)
    _check_connected(graph)
    return graph


def _check_connected(graph: NetworkGraph) -> None:
    if graph.n_nodes == 0:
        raise TopologyError("graph has no nodes")
    seen = np.zeros(graph.n_nodes, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros_like(seen)
        reached[graph.dst[frontier[graph.src]]] = True
        frontier = reached & ~seen
        seen |= frontier
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise TopologyError(
            f"graph is disconnected: {len(missing)} node(s) unreachable "
            f"from node 0 (e.g. node {missing[0]})"
        )


def load_topology(source: str | Path) -> NetworkGraph:
    """Parse a Topology Zoo GraphML document into a NetworkGraph.

    Dense node ids follow document order. Nodes must carry Latitude and
    Longitude data keys, in [-90, 90] and [-180, 180]; an offending node is
    named in the error. Every error names the file; a syntax error anywhere
    in the document is reported before any other.
    """
    try:
        return _graph_of(*_read_graphml(str(source)))
    except ET.ParseError as exc:
        raise TopologyError(f"{source}: malformed GraphML document: {exc}") from exc
    except TopologyError as exc:
        raise TopologyError(f"{source}: {exc}") from None


def _read_graphml(path: str):
    """One streamed pass over a GraphML document, read to its end.

    Returns the root's node keys as ``{attr.name: id}`` (a later key wins),
    whether the root has a ``<graph>`` child, and the direct ``<node>`` and
    ``<edge>`` children of the first one, as ``(id, {data key: text})`` and
    ``(source, target)`` in document order: what ``findall`` on a parsed
    tree gives. Each child of the root and of its children is dropped once
    read, so no tree of the document is held.
    """
    keys: dict[str, str] = {}
    nodes: list[tuple[str | None, dict]] = []
    edges: list[tuple[str | None, str | None]] = []
    root = parent = graph = None
    depth = 0  # elements open: one's own level at its start, its parent's at its end
    with open(path, "rb") as file:
        for event, el in ET.iterparse(file, events=("start", "end")):
            if event == "start":
                depth += 1
                if depth == 2:
                    parent = el
                    if graph is None and el.tag == _GRAPH:
                        graph = el
                elif depth == 1:
                    root = el
                continue
            depth -= 1
            if depth == 2:  # a child of the root's child ``parent`` ended
                if parent is graph:
                    if el.tag == _NODE:
                        nodes.append((el.get("id"), {d.get("key"): d.text or ""
                                                     for d in el if d.tag == _DATA}))
                    elif el.tag == _EDGE:
                        edges.append((el.get("source"), el.get("target")))
                del parent[:]
            elif depth == 1:  # a child of the root ended
                if el.tag == _KEY and el.get("for") == "node":
                    keys[el.get("attr.name", "")] = el.get("id", "")
                del root[:]
    return keys, graph is not None, nodes, edges


def _graph_of(keys: dict[str, str], has_graph: bool, nodes, edges) -> NetworkGraph:
    lat_key = keys.get("Latitude")
    lon_key = keys.get("Longitude")
    label_key = keys.get("label")
    if lat_key is None or lon_key is None:
        raise TopologyError("document declares no Latitude/Longitude node keys")
    if not has_graph:
        raise TopologyError("document contains no <graph> element")

    coords: list[tuple[str, float, float]] = []
    dense_id: dict[str, int] = {}
    for raw_id, data in nodes:
        if raw_id is None:
            raise TopologyError("node without id attribute")
        if raw_id in dense_id:
            raise TopologyError(f"node id {raw_id!r} repeated")
        label = data.get(label_key, raw_id) if label_key else raw_id
        try:
            lat, lon = float(data[lat_key]), float(data[lon_key])
        except (KeyError, ValueError):
            lat = lon = float("nan")
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):  # NaN fails too
            raise TopologyError(f"node {raw_id!r} ({label!r}) lacks usable coordinates")
        dense_id[raw_id] = len(coords)
        coords.append((label, lat, lon))

    try:
        pairs = [(dense_id[u], dense_id[v]) for u, v in edges]
    except KeyError as exc:
        raise TopologyError(f"edge references unknown node {exc}") from None
    return build_graph(coords, pairs)


@dataclass(frozen=True)
class HopTable:
    """Hop counts and canonical shortest-path trees from a set of sources.

    Source ``s`` owns row ``slot[s]``: ``dist[slot[s], v]`` is the exact
    unit-weight shortest hop count from ``s`` to ``v`` and
    ``in_arc[slot[s], v]`` the id of the arc into ``v`` on the canonical
    path from ``s``, whose source is the predecessor of ``v`` (ties broken
    by lowest predecessor node id; -1 at ``s``). A table holds the rows it
    was asked for, and ``slot`` is ``NO_ROW`` for the others, an index past
    every array, so reading a row it lacks raises IndexError; the tests'
    full table (``all_pairs`` in ``tests/oracles.py``) gives node ``s`` row
    ``s``, so its ``dist[s, v]`` reads directly.
    Rows are deterministic, so the table a row is read from never changes
    results.

    ``dist`` and ``in_arc`` share the least signed integer type that holds
    -1 and ``n_arcs``, so every arc id: int8 up to 127 arcs, int16 up to
    32,767. On a connected graph a hop count is at most ``n_arcs / 2``, so
    that type also holds the sum of any two hop counts.
    """

    graph: NetworkGraph
    dist: np.ndarray
    in_arc: np.ndarray
    slot: np.ndarray


# Sources searched together: one bit of a uint64 word per source.
_BLOCK = 64

# ``HopTable.slot`` of a node without a row: past the end of every array.
NO_ROW = np.iinfo(np.intp).max


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """Bits ``0 .. count - 1`` of each uint64 word as a (len, count) 0/1 array."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little")


def _bfs_block(in_arcs, sources):
    """Hop counts from up to 64 distinct sources.

    A level-synchronous breadth-first search runs from all of them at once:
    node ``v`` holds one uint64 word whose bit ``j`` says whether
    ``sources[j]`` has reached it. One level ORs the words of every
    in-arc's source into its target with one ``bitwise_or.reduceat`` over
    the arcs sorted by (dst, src); a bit that is new at level ``L`` puts
    ``v`` at hop distance ``L`` from that source.

    Returns n x len(sources) int32 ``dist`` columns; besides them memory
    holds one word per node and arc.
    """
    src, start, _ = in_arcs
    n = len(start)
    width = len(sources)
    seen = np.zeros(n, dtype=np.uint64)
    seen[sources] = np.uint64(1) << np.arange(width, dtype=np.uint64)
    frontier = seen
    d = np.zeros((n, width), dtype=np.int32)
    # A lone node has no arcs; its zero distance is already right.
    while src.size and frontier.any():
        unseen = ~seen
        # Each level a source has not yet reached v adds one hop to dist.
        d += _bits(unseen, width)
        frontier = np.bitwise_or.reduceat(frontier[src], start) & unseen
        seen |= frontier
    return d


def _predecessors(in_arcs, d):
    """Canonical in-arcs for the ``_bfs_block`` columns ``d`` of some sources.

    The in-arc of ``v`` comes from the lowest id among its in-neighbours one
    hop closer to the source, found by sweeping the sorted in-arcs slot by
    slot, highest slot first, so the lowest id writes last; no in-neighbour
    is closer to a source than the source itself, so its entry stays -1.
    Returns int32 ``in_arc`` columns of the same shape as ``d``.
    """
    _, _, slots = in_arcs
    p = np.full(d.shape, -1, dtype=np.int32)
    for v, u, arc in reversed(slots):
        p[v] = np.where(d[u] + 1 == d[v], arc[:, None], p[v])
    return p


def hop_table(graph: NetworkGraph, sources) -> HopTable:
    """A read-only HopTable of exactly the rows of ``sources``, deduplicated.

    Row ``i`` belongs to the ``i``-th lowest distinct source; ``_bfs_block``
    and ``_predecessors`` search them, 64 at a time.
    """
    # Deduped by a sort: a plain np.unique imports numpy.ma (about 16 ms)
    # under numpy 2.x.
    sources = np.sort(np.asarray(sources, dtype=np.intp))
    sources = sources[np.diff(sources, prepend=-1) != 0]
    in_arcs = graph.in_arcs
    n = graph.n_nodes
    slot = np.full(n, NO_ROW, dtype=np.intp)
    slot[sources] = np.arange(len(sources))
    # Not -n_arcs: a lone node has no arcs, and uint8 holds no -1.
    dtype = np.min_scalar_type(-1 - graph.n_arcs)
    dist = np.empty((len(sources), n), dtype=dtype)
    in_arc = np.empty((len(sources), n), dtype=dtype)
    for at in range(0, len(sources), _BLOCK):
        d = _bfs_block(in_arcs, sources[at:at + _BLOCK])
        dist[at:at + _BLOCK] = d.T
        in_arc[at:at + _BLOCK] = _predecessors(in_arcs, d).T
    for table in (dist, in_arc, slot):
        table.setflags(write=False)
    return HopTable(graph=graph, dist=dist, in_arc=in_arc, slot=slot)


def canonical_paths(hops: HopTable, roots, leaves) -> tuple[np.ndarray, np.ndarray]:
    """Canonical paths ``roots[f] -> leaves[f]`` of many flows at once, as CSR.

    ``arcs[indptr[f]:indptr[f + 1]]`` are the arcs of the canonical path
    from ``roots[f]`` to ``leaves[f]``, in order. Every flow walks the
    ``in_arc`` row of its root up from its leaf, one level per step for all
    flows together: the arc into a node, then the arc into that arc's
    source. Flows are taken longest first, so the flows a level still walks
    are a prefix and every level reads only their arcs. ``hops`` must hold
    the roots' rows.
    """
    rows = hops.slot[roots]
    lengths = hops.dist[rows, leaves]
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    lengths.cumsum(out=indptr[1:])
    arcs = np.empty(indptr[-1], dtype=np.intp)
    order = lengths.argsort(kind="stable")[::-1]
    # Level L walks the flows longer than L.
    walking = np.bincount(lengths)[:0:-1].cumsum()[::-1].tolist()
    node, slot = np.asarray(leaves, dtype=np.intp)[order], indptr[1:][order]
    # Flat offsets of each flow's root row into the ``in_arc`` table.
    base = rows[order] * hops.graph.n_nodes
    in_arc, src = hops.in_arc.reshape(-1), hops.graph.src
    for count in walking:
        slot = slot[:count] - 1
        arcs[slot] = arc = in_arc[base[:count] + node[:count]]
        node = src[arc]
    return indptr, arcs


class PathMemo:
    """``canonical_paths`` on one table, each (root row, leaf row) pair
    walked once and gathered after that; every root and leaf needs a row,
    or IndexError. Arcs come in the table's integer type. Pair (r, l)
    starts at ``start[r, l]`` in an append-only arc buffer grown by
    doubling, whose entry 0 is unused, so 0 means not walked."""

    def __init__(self, hops: HopTable):
        self.hops = hops
        self._start = np.zeros((len(hops.dist), len(hops.dist)), dtype=np.int32)
        self._arcs, self._size = np.empty(256, dtype=hops.in_arc.dtype), 1

    def paths(self, roots, leaves) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = self.hops.slot[roots], self.hops.slot[leaves]
        start = self._start[rows, cols]
        if np.count_nonzero(start) < len(start):
            # One flow per pair walks: each writes its number, and the one read back won.
            flows = (start == 0).nonzero()[0]
            self._start[rows[flows], cols[flows]] = flows
            flows = flows[self._start[rows[flows], cols[flows]] == flows]
            indptr, arcs = canonical_paths(self.hops, np.asarray(roots)[flows],
                                           np.asarray(leaves)[flows])
            size = self._size + len(arcs)
            if size > len(self._arcs):
                self._arcs = np.resize(self._arcs, max(size, 2 * len(self._arcs)))
            self._arcs[self._size:size] = arcs
            self._start[rows[flows], cols[flows]] = indptr[:-1] + self._size
            self._size = size
            start = self._start[rows, cols]
        lengths = self.hops.dist[rows, leaves]
        indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
        lengths.cumsum(out=indptr[1:])
        # Flow f's i-th arc is at ``start[f] + i`` in the buffer.
        shift = start - indptr[:-1]
        return indptr, self._arcs[np.arange(indptr[-1]) + shift.repeat(lengths)]


def gather(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray):
    """Entries of CSR row ``rows[i]`` for every i, in order: (i per entry, entry).

    Row ``r`` is ``values[indptr[r]:indptr[r + 1]]``; a row may be asked
    for any number of times.
    """
    start = indptr[rows]
    lengths = indptr[rows + 1] - start
    owner = np.arange(len(rows)).repeat(lengths)
    shift = start - (lengths.cumsum() - lengths)
    return owner, values[np.arange(len(owner)) + shift[owner]]


def _key_type(n_nodes: int) -> type:
    """The integer type ``nearest`` builds its keys in: int32 while every key,
    at most ``n_nodes**2 - 1``, fits (up to 46,340 nodes), else int64."""
    return np.int32 if n_nodes * n_nodes <= 1 << 31 else np.int64


def nearest(hops: HopTable, candidates) -> np.ndarray | None:
    """Per node v, ``min over candidates c of dist(c, v) * n_nodes + c``, as a
    read-only int64 row; None when there is no candidate. ``key % n_nodes`` is
    the candidate nearest to v, ties to the lowest id; the minimum of two rows
    is that of their candidates together, and a key equals v exactly at a
    candidate. Reads the candidates' own rows, which ``hops`` must hold:
    ``build_graph`` adds both arcs of every edge, so distances are symmetric.
    The candidates x nodes block of keys is built in the graph's
    ``_key_type``, half the bytes of int64 up to 46,340 nodes."""
    candidates = np.asarray(candidates, dtype=np.intp)
    if candidates.size == 0:
        return None
    n = hops.graph.n_nodes
    key = _key_type(n)
    keys = np.multiply(hops.dist[hops.slot[candidates]], n, dtype=key)
    keys += candidates.astype(key)[:, None]
    row = keys.min(axis=0).astype(np.int64)
    row.setflags(write=False)
    return row
