"""Stateless source-routed multicast forwarding plane.

A delivery tree is encoded into a fixed-width forwarding identifier that
travels with the packet; each node forwards on exactly those outgoing arcs
whose label tests positive in the identifier, so the core keeps no
per-group state. An identifier is a Bloom filter over per-arc signatures
(LIPSIN-style), which passes false-positive arcs too; the exact scheme a
trial reports charges the tree arcs directly. Arc labels are
unidirectional; reverse delivery needs its own identifier.

Trials forward every group of a trial at once. ``label_masks`` holds each
arc's label as a bit mask of ``ceil(m / 64)`` uint64 words, built once
per (graph, scheme) with ``label_arc``. ``deliver_groups`` ORs each group's
tree masks into its identifier and delivers each distinct (root,
identifier) pair once: the arcs a packet takes depend on nothing else, and
the groups of a trial share few such pairs, since a popular item served
from one point reaches the same clients. ``carried_arcs`` tests every arc
against every identifier (an arc passes when ``fid & mask == mask``) and
walks the passing arcs from all roots together, level by level. The
scalar ``encode_tree``, ``forward`` and ``deliver`` in ``tests/oracles.py``,
built on ``label_arc``, are the reference the kernel is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .topology import NetworkGraph, gather

__all__ = [
    "BloomScheme",
    "label_arc",
    "label_masks",
    "deliver_groups",
    "carried_arcs",
    "fpr_theoretical",
]

DEFAULT_BLOOM_M = 256
DEFAULT_BLOOM_K = 4
DEFAULT_HASH_SEED = 0x51B0


@dataclass(frozen=True)
class BloomScheme:
    """Bloom filter of m bits, k hash positions per arc."""

    m: int = DEFAULT_BLOOM_M
    k: int = DEFAULT_BLOOM_K
    hash_seed: int = DEFAULT_HASH_SEED


def label_arc(scheme: BloomScheme, arc_id: int) -> tuple[int, ...]:
    """Sorted bit positions owned by ``arc_id``: seeded double hashing,
    deterministic per (arc_id, m, k, hash seed)."""
    import hashlib  # here alone: loading it costs every CLI start a few ms
    digest = hashlib.blake2b(
        arc_id.to_bytes(8, "little"),
        digest_size=16,
        salt=scheme.hash_seed.to_bytes(8, "little"),
    ).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return tuple(sorted({(h1 + i * h2) % scheme.m for i in range(scheme.k)}))


# Elements of the (groups, arcs) word temporary in the mask test.
_TEST_BLOCK = 1 << 14


@lru_cache(maxsize=8)
def label_masks(graph: NetworkGraph, scheme: BloomScheme) -> np.ndarray:
    """Every arc's label under ``scheme`` as a read-only bit mask table.

    Row ``a`` holds ``ceil(m / 64)`` uint64 words; position ``p`` of
    ``label_arc(scheme, a)`` is bit ``p % 64`` of word ``p // 64``. Built
    once per (graph, scheme) and process; later calls return the table (a
    graph hashes by identity, and a cached one stays alive to keep its key).
    """
    masks = np.zeros((graph.n_arcs, -(-scheme.m // 64)), dtype=np.uint64)
    for arc_id in range(graph.n_arcs):
        for p in label_arc(scheme, arc_id):
            masks[arc_id, p // 64] |= np.uint64(1 << (p % 64))
    masks.setflags(write=False)
    return masks


def deliver_groups(graph: NetworkGraph, scheme: BloomScheme, roots, tree_group,
                   tree_arc) -> tuple[np.ndarray, np.ndarray]:
    """Arcs carried when each group's tree is encoded and delivered, all at once.

    Group ``g`` owns the arcs ``tree_arc[tree_group == g]`` (``tree_group``
    sorted) and is delivered from ``roots[g]``. Trials pass only groups
    with tree arcs, numbered from 0 in order; a group without arcs would
    have an all-zero identifier and carry nothing. Returns ``(group, arc)``
    pairs sorted by group, then arc: for each group, the union of
    ``forward(fid, v)`` over ``v`` in ``deliver(fid, root)``.

    Each distinct (root, identifier) pair is delivered once, and its arcs
    are copied to every group that shares it. This is exact, because
    ``forward`` and ``deliver`` read nothing but the identifier and the
    root: groups whose trees differ but whose Bloom identifiers collide
    carry the same arcs too.
    """
    masks = label_masks(graph, scheme)
    roots = np.asarray(roots, dtype=np.intp)
    fids = np.zeros((len(roots), masks.shape[1]), dtype=np.uint64)
    present, starts = np.unique(tree_group, return_index=True)
    if present.size:
        fids[present] = np.bitwise_or.reduceat(masks[tree_arc], starts, axis=0)
    # Equal (root, identifier) rows are adjacent once sorted; each run is one tree.
    order = np.lexsort((*fids.T, roots))
    sorted_roots, sorted_fids = roots[order], fids[order]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = ((sorted_roots[1:] != sorted_roots[:-1])
                     | (sorted_fids[1:] != sorted_fids[:-1]).any(axis=1))
    tree_of = np.empty(len(order), dtype=np.intp)
    tree_of[order] = np.cumsum(run_start) - 1
    first = order[run_start]
    tree, arc = carried_arcs(graph, scheme, fids[first], roots[first])
    indptr = np.searchsorted(tree, np.arange(len(first) + 1))
    return gather(indptr, arc, tree_of)


def carried_arcs(graph: NetworkGraph, scheme: BloomScheme, fids,
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
    src, dst = graph.src[arc], graph.dst[arc]
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


def fpr_theoretical(m: int, k: int, n_inserted: int) -> float:
    """Expected Bloom false-positive rate after ``n_inserted`` arcs."""
    if m < 1 or k < 1 or n_inserted < 0:
        raise ValueError("m, k must be >= 1 and n_inserted >= 0")
    if n_inserted == 0:
        return 0.0
    return (1.0 - math.exp(-k * n_inserted / m)) ** k
