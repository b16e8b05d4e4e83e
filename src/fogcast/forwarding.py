"""Stateless source-routed multicast forwarding plane.

A delivery tree is encoded into a fixed-width forwarding identifier that
travels with the packet; each node forwards on exactly those outgoing arcs
whose label tests positive in the identifier, so the core keeps no
per-group state. Two encodings are provided: one exact bit per arc, and a
Bloom filter over per-arc signatures (smaller, but with false-positive
deliveries). Arc labels are unidirectional; reverse delivery needs its own
identifier.

Trials forward every group of a trial at once. ``label_masks`` holds each
arc's label as a bit mask of ``ceil(width / 64)`` uint64 words, built once
per (graph, scheme) with ``label_arc``. ``deliver_groups`` ORs each group's
tree masks into its identifier, tests every arc against every identifier
(an arc passes when ``fid & mask == mask``) and walks the passing arcs
from all roots together, level by level. The scalar ``label_arc``,
``encode_tree``, ``forward`` and ``deliver`` are the reference
implementation that the kernel is tested against.
"""
from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .rendezvous import MulticastTree
from .topology import NetworkGraph

__all__ = [
    "ExactScheme",
    "BloomScheme",
    "ArcLabel",
    "ForwardingId",
    "label_arc",
    "encode_tree",
    "forward",
    "deliver",
    "label_masks",
    "deliver_groups",
    "carried_arcs",
    "fpr_theoretical",
]

DEFAULT_BLOOM_M = 256
DEFAULT_BLOOM_K = 4
DEFAULT_HASH_SEED = 0x51B0


@dataclass(frozen=True)
class ExactScheme:
    """One bit per arc; width must equal the graph's arc count."""

    width: int


@dataclass(frozen=True)
class BloomScheme:
    """Bloom filter of m bits, k hash positions per arc."""

    m: int = DEFAULT_BLOOM_M
    k: int = DEFAULT_BLOOM_K
    hash_seed: int = DEFAULT_HASH_SEED


Scheme = ExactScheme | BloomScheme


def _width(scheme: Scheme) -> int:
    return scheme.width if isinstance(scheme, ExactScheme) else scheme.m


@dataclass(frozen=True)
class ArcLabel:
    arc_id: int
    positions: tuple[int, ...]


@dataclass(frozen=True)
class ForwardingId:
    """Fixed-width bit vector naming the arcs of one delivery tree."""

    bits: int
    scheme: Scheme

    @property
    def width(self) -> int:
        return _width(self.scheme)

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def test(self, positions: tuple[int, ...]) -> bool:
        return all(self.bits >> p & 1 for p in positions)


def label_arc(scheme: Scheme, arc_id: int) -> ArcLabel:
    """Bit positions owned by ``arc_id`` under ``scheme``.

    Exact labels are the arc id itself; Bloom labels come from seeded
    double hashing, deterministic per (arc_id, m, k, hash seed).
    """
    if isinstance(scheme, ExactScheme):
        if not 0 <= arc_id < scheme.width:
            raise ValueError(f"arc {arc_id} outside exact width {scheme.width}")
        return ArcLabel(arc_id, (arc_id,))
    digest = hashlib.blake2b(
        arc_id.to_bytes(8, "little"),
        digest_size=16,
        salt=scheme.hash_seed.to_bytes(8, "little"),
    ).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    positions = tuple(sorted({(h1 + i * h2) % scheme.m for i in range(scheme.k)}))
    return ArcLabel(arc_id, positions)


def encode_tree(tree: MulticastTree, scheme: Scheme) -> ForwardingId:
    """OR together the labels of every tree arc."""
    bits = 0
    for arc_id in tree.arcs:
        for p in label_arc(scheme, arc_id).positions:
            bits |= 1 << p
    return ForwardingId(bits=bits, scheme=scheme)


def forward(fid: ForwardingId, node: int, graph: NetworkGraph) -> set[int]:
    """Out-arcs of ``node`` whose label tests positive in ``fid``.

    Stateless: the decision is a pure function of the identifier and the
    node's arc labels.
    """
    if isinstance(fid.scheme, ExactScheme) and fid.scheme.width != graph.n_arcs:
        raise ValueError(
            f"exact fid width {fid.scheme.width} does not label a "
            f"{graph.n_arcs}-arc graph"
        )
    return {
        arc_id
        for arc_id in graph.out_arcs[node]
        if fid.test(label_arc(fid.scheme, arc_id).positions)
    }


def deliver(fid: ForwardingId, root: int, graph: NetworkGraph) -> set[int]:
    """Nodes reached by repeatedly forwarding ``fid`` from ``root``.

    A visited-arc guard makes delivery terminate on any identifier,
    including an adversarial all-ones one.
    """
    reached = {root}
    used_arcs: set[int] = set()
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for arc_id in forward(fid, node, graph):
            if arc_id in used_arcs:
                continue
            used_arcs.add(arc_id)
            dst = graph.arcs[arc_id].dst
            frontier.append(dst)
            reached.add(dst)
    return reached


# Elements of the (groups, arcs) word temporary in the mask test.
_TEST_BLOCK = 1 << 14

# Mask tables by (id(graph), scheme); each entry holds a weak reference to
# its graph, which drops the entry when the graph is collected.
_MASK_TABLES: dict[tuple[int, Scheme], tuple[weakref.ref, np.ndarray]] = {}


def label_masks(graph: NetworkGraph, scheme: Scheme) -> np.ndarray:
    """Every arc's label under ``scheme`` as a read-only bit mask table.

    Row ``a`` holds ``ceil(width / 64)`` uint64 words; position ``p`` of
    ``label_arc(scheme, a)`` is bit ``p % 64`` of word ``p // 64``. Built
    once per (graph, scheme) and process; later calls return the table.
    """
    key = (id(graph), scheme)
    hit = _MASK_TABLES.get(key)
    if hit is not None and hit[0]() is graph:
        return hit[1]
    masks = np.zeros((graph.n_arcs, -(-_width(scheme) // 64)), dtype=np.uint64)
    for arc_id in range(graph.n_arcs):
        for p in label_arc(scheme, arc_id).positions:
            masks[arc_id, p // 64] |= np.uint64(1 << (p % 64))
    masks.setflags(write=False)
    _MASK_TABLES[key] = (weakref.ref(graph, lambda _, key=key: _MASK_TABLES.pop(key, None)),
                         masks)
    return masks


def deliver_groups(graph: NetworkGraph, scheme: Scheme, roots, tree_group,
                   tree_arc) -> tuple[np.ndarray, np.ndarray]:
    """Arcs carried when each group's tree is encoded and delivered, all at once.

    Group ``g`` owns the arcs ``tree_arc[tree_group == g]`` (``tree_group``
    sorted) and is delivered from ``roots[g]``; a group without arcs has
    an all-zero identifier and carries nothing. Returns ``(group, arc)``
    pairs sorted by group, then arc: for each group, the union of
    ``forward(fid, v)`` over ``v`` in ``deliver(fid, root)``.
    """
    masks = label_masks(graph, scheme)
    fids = np.zeros((len(roots), masks.shape[1]), dtype=np.uint64)
    present, starts = np.unique(tree_group, return_index=True)
    if present.size:
        fids[present] = np.bitwise_or.reduceat(masks[tree_arc], starts, axis=0)
    return carried_arcs(graph, scheme, fids, roots)


def carried_arcs(graph: NetworkGraph, scheme: Scheme, fids,
                 roots) -> tuple[np.ndarray, np.ndarray]:
    """Arcs carried by identifier ``fids[g]`` delivered from ``roots[g]``.

    ``fids`` has one row of mask words per group, laid out as in
    ``label_masks``. An arc passes when every bit of its mask is set; it
    is carried when it passes and its source is reached from the root over
    passing arcs. Returns ``(group, arc)`` pairs sorted by group, then arc.
    """
    masks = label_masks(graph, scheme)
    roots = np.asarray(roots, dtype=np.intp)
    # One word and one block of groups at a time: the uint64 temporary
    # holds at most _TEST_BLOCK elements.
    passes = np.ones((len(roots), graph.n_arcs), dtype=bool)
    rows = max(1, _TEST_BLOCK // max(graph.n_arcs, 1))
    for lo in range(0, len(roots), rows):
        block = passes[lo:lo + rows]
        for word in range(masks.shape[1]):
            block &= (fids[lo:lo + rows, word, None] & masks[:, word]) == masks[:, word]
    group, arc = np.nonzero(passes)
    src, dst = _arc_ends(graph)
    src, dst = src[arc], dst[arc]
    reached = np.zeros((len(roots), graph.n_nodes), dtype=bool)
    reached[np.arange(len(roots)), roots] = True
    frontier = reached.copy()
    while True:
        step = frontier[group, src]
        if not step.any():
            break
        frontier = np.zeros_like(reached)
        frontier[group[step], dst[step]] = True
        frontier &= ~reached
        reached |= frontier
    carried = reached[group, src]
    return group[carried], arc[carried]


def _arc_ends(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination node of every arc, from the ``src * n + dst`` keys."""
    keys = np.empty_like(graph._arc_keys)
    keys[graph._arc_ids] = graph._arc_keys
    return np.divmod(keys, graph.n_nodes)


def fpr_theoretical(m: int, k: int, n_inserted: int) -> float:
    """Expected Bloom false-positive rate after ``n_inserted`` arcs."""
    if m < 1 or k < 1 or n_inserted < 0:
        raise ValueError("m, k must be >= 1 and n_inserted >= 0")
    if n_inserted == 0:
        return 0.0
    return (1.0 - math.exp(-k * n_inserted / m)) ** k
