"""Stateless source-routed multicast forwarding plane.

A delivery tree is encoded into a fixed-width forwarding identifier that
travels with the packet; each node forwards on exactly those outgoing arcs
whose label tests positive in the identifier, so the core keeps no
per-group state. An identifier is a Bloom filter over per-arc signatures
(LIPSIN-style), which passes false-positive arcs too; the exact scheme a
trial reports charges the tree arcs directly. Arc labels are
unidirectional; reverse delivery needs its own identifier.

Trials forward every group of a trial at once. ``label_masks`` holds each
arc's label as ``ceil(m / 64)`` uint64 words, built once per (scheme, arc
count), as a label depends on nothing else. ``false_positive_arcs``
returns only the arcs each group's identifier carries beyond its tree,
delivering each distinct (root, identifier) pair once and testing only the
out-arcs of the nodes it reaches. The scalar ``encode_tree``, ``forward``
and ``deliver`` in ``tests/oracles.py`` are the reference it is tested
against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .topology import NetworkGraph, gather

__all__ = [
    "BloomScheme",
    "label_arc",
    "label_masks",
    "false_positive_arcs",
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


@cache
def label_masks(scheme: BloomScheme, n_arcs: int) -> np.ndarray:
    """Labels of arcs ``0 .. n_arcs - 1`` under ``scheme`` as a read-only bit
    mask table.

    Row ``a`` holds ``ceil(m / 64)`` uint64 words; position ``p`` of
    ``label_arc(scheme, a)`` is bit ``p % 64`` of word ``p // 64``. Built
    once per (scheme, n_arcs) and process, keyed by value, so graphs of one
    arc count share a table and none is kept alive by it.
    """
    masks = np.zeros((n_arcs, -(-scheme.m // 64)), dtype=np.uint64)
    for arc_id in range(n_arcs):
        for p in label_arc(scheme, arc_id):
            masks[arc_id, p // 64] |= np.uint64(1 << (p % 64))
    masks.setflags(write=False)
    return masks


def false_positive_arcs(graph: NetworkGraph, scheme: BloomScheme, tree_root, tree_group,
                        tree_arc) -> tuple[np.ndarray, np.ndarray]:
    """Arcs each group's identifier carries beyond its own tree, all at once.

    Arc ``tree_arc[i]`` belongs to group ``tree_group[i]`` (sorted), whose
    arcs must form a tree rooted at ``tree_root[i]``. Delivering the group's
    identifier, the OR of its tree masks, from the root carries the union
    of ``forward(fid, v)`` over ``v`` in ``deliver(fid, root)``. Returns
    that union's ``(group, arc)`` pairs outside the group's tree, sorted by
    group, then arc.

    Each distinct (root, identifier) pair is delivered once, from the root
    and arc heads of one tree it encodes (every tree arc passes), testing
    only the out-arcs of reached nodes. If every identifier passes just
    that tree's arcs and every group's tree is as large, nothing else is
    carried. Otherwise the walk goes on from the extra arcs' heads, and each
    group's own tree is taken out, as colliding identifiers can encode others.
    """
    if not len(tree_arc):
        return tree_group[:0], tree_arc[:0]
    masks = label_masks(scheme, graph.n_arcs)
    indptr = np.concatenate(([0], np.flatnonzero(np.diff(tree_group)) + 1, [len(tree_arc)]))
    group, size, root = tree_group[indptr[:-1]], np.diff(indptr), tree_root[indptr[:-1]]
    fids = np.bitwise_or.reduceat(masks.take(tree_arc, axis=0), indptr[:-1], axis=0)
    # Equal (root, identifier) rows are adjacent once sorted; each run is one identifier.
    order = np.lexsort((*fids.T, root))
    sorted_root = root[order]
    run_start = np.ones(len(order), dtype=bool)
    np.not_equal(sorted_root[1:], sorted_root[:-1], out=run_start[1:])
    for word in fids.take(order, axis=0).T:
        run_start[1:] |= word[1:] != word[:-1]
    first = order[run_start]
    unset = ~fids.take(first, axis=0)  # an arc passes when its mask has no unset bit

    owner, arc = gather(indptr, tree_arc, first)
    reached_at = np.concatenate((np.arange(len(first)), owner))
    reached_node = np.concatenate((root[first], graph.dst[arc]))
    at, arc = _passing(graph, masks, unset, reached_at, reached_node)
    # Each identifier passes at least its tree's arcs: equal totals mean just those.
    if len(at) == size[first].sum() and not np.diff(size[order])[~run_start[1:]].any():
        return tree_group[:0], tree_arc[:0]

    n, n_arcs = graph.n_nodes, graph.n_arcs
    reached = np.sort(reached_at * n + reached_node)
    carried = [at * n_arcs + arc]
    while True:
        heads = np.sort(at * n + graph.dst[arc])
        known = reached[np.searchsorted(reached, heads).clip(max=len(reached) - 1)] == heads
        heads = heads[~known & (np.diff(heads, prepend=-1) != 0)]
        if not heads.size:
            break
        reached = np.sort(np.concatenate((reached, heads)))
        at, arc = _passing(graph, masks, unset, *np.divmod(heads, n))
        carried.append(at * n_arcs + arc)
    at, arc = np.divmod(np.sort(np.concatenate(carried)), n_arcs)
    # Every group takes its identifier's arcs, less its own tree.
    ident = (np.cumsum(run_start) - 1)[np.argsort(order)]
    owner, arc = gather(np.searchsorted(at, np.arange(len(first) + 1)), arc, ident)
    keys = owner * n_arcs + arc
    tree_keys = np.repeat(np.arange(len(group)), size) * n_arcs + tree_arc
    at = np.searchsorted(keys, tree_keys).clip(max=len(keys) - 1)
    extra = np.ones(len(keys), dtype=bool)
    extra[at[keys[at] == tree_keys]] = False
    return group[owner[extra]], arc[extra]


def _passing(graph: NetworkGraph, masks, unset, at, nodes) -> tuple[np.ndarray, np.ndarray]:
    """(at, arc) pairs: out-arcs of ``nodes[i]`` whose mask meets no bit of ``unset[at[i]]``."""
    owner, arc = gather(*graph.out_arcs, nodes)
    at = at[owner]
    clash = masks.take(arc, axis=0)
    clash &= unset.take(at, axis=0)
    missing = clash[:, 0].copy()
    for word in clash.T[1:]:
        missing |= word
    passes = missing == 0
    return at[passes], arc[passes]

