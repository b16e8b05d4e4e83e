from __future__ import annotations

import numpy as np
import pytest

from conftest import random_connected_graph
from fogcast import forwarding
from fogcast.forwarding import (
    BloomScheme,
    false_positive_arcs,
    label_arc,
    label_masks,
)
from oracles import (
    ExactScheme,
    ForwardingId,
    MulticastTree,
    adjacency,
    all_pairs,
    arc_label,
    build_tree,
    deliver,
    encode_tree,
    extract_path,
    forward,
    fpr_theoretical,
)


def make_tree(root, leaves, arcs):
    return MulticastTree(root=root, leaves=frozenset(leaves), arcs=frozenset(arcs))


def test_exact_encoding_sets_one_bit_per_arc():
    fid = encode_tree(make_tree(0, {1}, {0, 3, 5}), ExactScheme(width=8))
    assert fid.bits == (1 << 0) | (1 << 3) | (1 << 5)
    assert fid.popcount == 3


def test_single_arc_tree_has_popcount_one():
    fid = encode_tree(make_tree(0, {1}, {4}), ExactScheme(width=8))
    assert fid.popcount == 1


def test_exact_labels_unique_and_in_range():
    scheme = ExactScheme(width=16)
    labels = [arc_label(scheme, a) for a in range(16)]
    assert len(set(labels)) == 16
    with pytest.raises(ValueError):
        arc_label(scheme, 16)


def test_bloom_labels_deterministic_and_bounded():
    scheme = BloomScheme(m=64, k=3)
    for arc in range(50):
        first = label_arc(scheme, arc)
        second = label_arc(scheme, arc)
        assert first == second
        assert all(0 <= p < 64 for p in first)
    other_seed = BloomScheme(m=64, k=3, hash_seed=999)
    assert any(label_arc(scheme, a) != label_arc(other_seed, a) for a in range(50))


def test_bloom_has_no_false_negatives():
    scheme = BloomScheme(m=64, k=3)
    arcs = {2, 9, 17, 33, 48}
    fid = encode_tree(make_tree(0, {1}, arcs), scheme)
    for arc in arcs:
        assert fid.test(label_arc(scheme, arc))


def test_zero_fid_forwards_nowhere(chain4):
    fid = ForwardingId(bits=0, scheme=ExactScheme(width=chain4.n_arcs))
    for node in range(chain4.n_nodes):
        assert forward(fid, node, chain4) == set()


def test_exact_path_fid_forwards_exactly_along_the_path(geant, geant_hops):
    path = extract_path(geant_hops, 5, 30)
    fid = encode_tree(make_tree(5, {30}, path), ExactScheme(width=geant.n_arcs))
    at = 5
    for arc_id in path:
        assert forward(fid, at, geant) == {arc_id}
        at = geant.dst[arc_id]


def test_forward_rejects_mismatched_width(chain4):
    fid = ForwardingId(bits=0, scheme=ExactScheme(width=4))
    with pytest.raises(ValueError):
        forward(fid, 0, chain4)


def test_bloom_forwarding_superset_with_exact_false_positive_set():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 6, 2)  # about 10-14 arcs
    hops = all_pairs(g)
    tree = build_tree(hops, 0, {g.n_nodes - 1})
    scheme = BloomScheme(m=32, k=2)
    fid = encode_tree(tree, scheme)
    for node in range(g.n_nodes):
        exact_out = {a for a, _ in adjacency(g)[node] if a in tree.arcs}
        bloom_out = forward(fid, node, g)
        assert bloom_out >= exact_out
        surplus = {
            a for a, _ in adjacency(g)[node]
            if a not in tree.arcs and fid.test(label_arc(scheme, a))
        }
        assert bloom_out - exact_out == surplus


def test_exact_delivery_reaches_precisely_the_tree_nodes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        hops = all_pairs(g)
        root = int(rng.integers(n))
        leaves = {int(x) for x in rng.choice(n, size=int(rng.integers(1, min(6, n))),
                                             replace=False)}
        tree = build_tree(hops, root, leaves)
        fid = encode_tree(tree, ExactScheme(width=g.n_arcs))
        expected_nodes = {root} | {int(g.dst[a]) for a in tree.arcs}
        assert deliver(fid, root, g) == expected_nodes


def test_bloom_delivery_is_a_superset_of_tree_nodes():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_connected_graph(rng, 15, 8)
        hops = all_pairs(g)
        leaves = {int(x) for x in rng.choice(15, size=4, replace=False)}
        tree = build_tree(hops, 2, leaves)
        fid = encode_tree(tree, BloomScheme(m=64, k=4))
        exact_nodes = {2} | {int(g.dst[a]) for a in tree.arcs}
        assert deliver(fid, 2, g) >= exact_nodes


def test_zero_fid_delivers_to_root_only(chain4):
    fid = ForwardingId(bits=0, scheme=ExactScheme(width=chain4.n_arcs))
    assert deliver(fid, 1, chain4) == {1}


def test_all_ones_fid_terminates(geant):
    fid = ForwardingId(bits=(1 << geant.n_arcs) - 1,
                       scheme=ExactScheme(width=geant.n_arcs))
    assert deliver(fid, 0, geant) == set(range(geant.n_nodes))


def test_fpr_zero_when_nothing_inserted():
    assert fpr_theoretical(256, 4, 0) == 0.0


def test_fpr_saturates_to_one():
    assert fpr_theoretical(1, 1, 10_000) == pytest.approx(1.0, abs=1e-6)


def test_fpr_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fpr_theoretical(0, 4, 1)
    with pytest.raises(ValueError):
        fpr_theoretical(256, 0, 1)


def test_measured_fpr_within_factor_two_of_formula():
    # 500-arc universe, 20 inserted arcs, mean over a fixed seed set
    m, k, inserted = 256, 4, 20
    universe = list(range(500))
    rates = []
    for hash_seed in range(20):
        scheme = BloomScheme(m=m, k=k, hash_seed=hash_seed)
        tree = make_tree(0, {1}, set(universe[:inserted]))
        fid = encode_tree(tree, scheme)
        false_positives = sum(
            fid.test(label_arc(scheme, arc)) for arc in universe[inserted:]
        )
        rates.append(false_positives / (len(universe) - inserted))
    measured = float(np.mean(rates))
    predicted = fpr_theoretical(m, k, inserted)
    assert predicted / 2 <= measured <= predicted * 2


# --- group kernel against the scalar functions ---------------------------------

def scalar_carried(fid, root, graph):
    """Arcs the scalar plane carries: ``forward`` at every delivered node."""
    carried = set()
    for node in deliver(fid, root, graph):
        carried |= forward(fid, node, graph)
    return carried


def by_group(group, arc, n_groups):
    out = [set() for _ in range(n_groups)]
    for g, a in zip(group.tolist(), arc.tolist()):
        out[g].add(a)
    return out


@pytest.mark.parametrize("scheme", [BloomScheme(m=16, k=2), BloomScheme(m=64, k=3),
                                    BloomScheme(m=200, k=5, hash_seed=7)])
def test_label_masks_hold_label_positions(scheme, monkeypatch):
    g = random_connected_graph(np.random.default_rng(2), 5, 0)  # 8 arcs
    labelled = []
    monkeypatch.setattr(forwarding, "label_arc",
                        lambda scheme, arc: labelled.append(arc) or label_arc(scheme, arc))
    # The table is built here, whatever an earlier test left in the cache.
    masks = label_masks.__wrapped__(scheme, g.n_arcs)
    width = ForwardingId(bits=0, scheme=scheme).width
    assert masks.dtype == np.uint64 and masks.shape == (g.n_arcs, -(-width // 64))
    for arc_id in range(g.n_arcs):
        bits = sum(int(word) << (64 * i) for i, word in enumerate(masks[arc_id].tolist()))
        assert bits == encode_tree(make_tree(0, set(), {arc_id}), scheme).bits
    assert not masks.flags.writeable
    # Each arc is labelled once per build; the cache keys by value, so every
    # graph of the arc count reads one table equal to it.
    assert labelled == list(range(g.n_arcs))
    shared = label_masks(scheme, g.n_arcs)
    assert shared.tobytes() == masks.tobytes() and not shared.flags.writeable
    copy = random_connected_graph(np.random.default_rng(2), 5, 0)
    assert label_masks(scheme, copy.n_arcs) is shared


def test_group_kernel_matches_scalar_delivery(geant):
    """Per group, the kernel's false-positive arcs are exactly the arcs of
    ``forward`` over ``deliver`` outside the group's tree, on the bundled
    backbone and 50 random graphs, under the default Bloom scheme and a
    16-bit one whose false positives chain over several hops and close
    cycles. Under a 1-bit scheme every identifier with a bit set passes
    every arc, so a tree with arcs carries all the others."""
    rng = np.random.default_rng(31)
    graphs = [geant] + [random_connected_graph(rng, int(rng.integers(4, 31)),
                                               int(rng.integers(0, 20)))
                        for _ in range(50)]
    chained = cycles = 0
    for g in graphs:
        hops = all_pairs(g)
        trees = [build_tree(hops, int(root), {int(x) for x in rng.choice(
                     g.n_nodes, size=int(rng.integers(1, min(6, g.n_nodes))), replace=False)})
                 for root in rng.integers(0, g.n_nodes, size=6)]
        trees.append(make_tree(int(rng.integers(g.n_nodes)), set(), set()))  # no arcs
        for scheme in (BloomScheme(), BloomScheme(m=16, k=2)):
            for tree, extra in zip(trees, kernel_matches_scalar(g, scheme, trees)):
                tree_nodes = {tree.root} | {int(g.dst[a]) for a in tree.arcs}
                chained += sum(g.src[a] not in tree_nodes for a in extra)
                cycles += sum(a ^ 1 in extra | tree.arcs for a in extra)
        got = kernel_matches_scalar(g, BloomScheme(m=1, k=1), trees)
        assert got == [set(range(g.n_arcs)) - t.arcs if t.arcs else set() for t in trees]
    assert chained > 0 and cycles > 0


def is_tree(graph, tree):
    """Whether ``tree.arcs`` form a tree rooted at ``tree.root``: each arc
    leaves a node reached from the root and enters a node reached by no
    other arc."""
    reached, left = {tree.root}, set(tree.arcs)
    while left:
        step = {a for a in left if graph.src[a] in reached}
        heads = [int(graph.dst[a]) for a in step]
        if not step or len(set(heads)) < len(heads) or reached & set(heads):
            return False
        reached |= set(heads)
        left -= step
    return True


def test_group_kernel_delivers_each_distinct_identifier_once(geant, geant_hops):
    """Groups that share a (root, identifier) pair are delivered once but
    keep their own trees: a repeated tree, a tree grown by an arc its
    16-bit identifier already passes, and one grown tree that passes
    exactly its own arcs ahead of the smaller tree it collides with. Pairs
    that differ in the root alone, or in an identifier word past the first,
    are delivered twice. Every group, empty ones between them, gets exactly
    the arcs of ``forward`` over ``deliver`` from its own root outside its
    own tree."""
    tree = build_tree(geant_hops, 3, {20, 30})
    small, bloom = BloomScheme(m=16, k=2), BloomScheme()
    surplus = next(a for a in growing(geant, tree)
                   if encode_tree(tree, small).test(label_arc(small, a)))
    # Arcs from different nodes with one 16-bit label, the second carried
    # from the first's source, that carry different arcs from the two.
    a, b = next((a, b) for a in range(geant.n_arcs) for b in range(geant.n_arcs)
                if label_arc(small, a) == label_arc(small, b) and geant.src[a] != geant.src[b]
                and b in (first := scalar_carried(encode_tree(single(geant, a), small),
                                                  int(geant.src[a]), geant))
                and first - {b} != scalar_carried(encode_tree(single(geant, b), small),
                                                  int(geant.src[b]), geant) - {b})
    other = build_tree(geant_hops, 11, {0, 25})
    empty = set()
    trees = [tree, make_tree(3, empty, empty), grow(geant, tree, surplus), single(geant, a),
             make_tree(3, empty, empty), other, single(geant, b), make_tree(20, empty, empty),
             tree, other]
    assert encode_tree(trees[2], small) == encode_tree(tree, small)
    assert encode_tree(single(geant, a), small) == encode_tree(single(geant, b), small)
    for scheme in (bloom, small):
        got = kernel_matches_scalar(geant, scheme, trees)
    assert surplus in got[0] and surplus not in got[2]

    # Identifiers equal in their first word only: a tree grown by one arc
    # and by two others, all with default bits past that word alone.
    w0, w1 = wide_arcs(geant, bloom, tree)[:2]
    w2 = next(w for w in wide_arcs(geant, bloom, grow(geant, tree, w1)) if w != w0)
    pair = [grow(geant, tree, w0), grow(geant, grow(geant, tree, w1), w2)]
    first, second = (encode_tree(t, bloom).bits for t in pair)
    assert first != second and (first ^ second) & (1 << 64) - 1 == 0
    kernel_matches_scalar(geant, bloom, pair)

    # A one-arc tree grown by an arc its 16-bit identifier passes, such that
    # the grown tree passes nothing more, listed first.
    e, x = next((e, x) for e in range(geant.n_arcs) for x in growing(geant, single(geant, e))
                if encode_tree(single(geant, e), small).test(label_arc(small, x))
                and scalar_carried(encode_tree(grow(geant, single(geant, e), x), small),
                                   int(geant.src[e]), geant) == {e, x})
    pair = [grow(geant, single(geant, e), x), single(geant, e)]
    assert kernel_matches_scalar(geant, small, pair) == [set(), {x}]


def kernel_matches_scalar(graph, scheme, trees):
    """Each tree's false-positive arcs from one kernel call, checked sorted
    and against the scalar plane; a list of sets, one per tree. The
    identifiers the kernel delivers are one per distinct (root, identifier)
    pair of the trees with arcs."""
    assert all(is_tree(graph, t) for t in trees)
    tree_group = np.concatenate([np.full(len(t.arcs), i) for i, t in enumerate(trees)])
    tree_arc = np.concatenate([sorted(t.arcs) for t in trees]).astype(np.intp)
    tree_root = np.array([t.root for t in trees])[tree_group]
    delivered = []

    def spy(graph, masks, unset, at, nodes):
        delivered.append(len(unset))
        return passing(graph, masks, unset, at, nodes)

    passing = forwarding._passing
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forwarding, "_passing", spy)
        group, arc = false_positive_arcs(graph, scheme, tree_root, tree_group, tree_arc)
    pairs = {(t.root, encode_tree(t, scheme).bits) for t in trees if t.arcs}
    assert set(delivered) == ({len(pairs)} if pairs else set())
    assert (np.diff(group * graph.n_arcs + arc) > 0).all()
    got = by_group(group, arc, len(trees))
    for t, extra in zip(trees, got):
        assert extra == scalar_carried(encode_tree(t, scheme), t.root, graph) - t.arcs
    return got


def growing(graph, tree):
    """Arcs that grow ``tree`` by one node: out of a tree node, into a new one."""
    nodes = {tree.root} | {int(graph.dst[a]) for a in tree.arcs}
    return [a for a in range(graph.n_arcs)
            if graph.src[a] in nodes and graph.dst[a] not in nodes]


def wide_arcs(graph, scheme, tree):
    """Arcs that grow ``tree`` and whose label, not passed yet, lies past the
    identifier's first word."""
    fid = encode_tree(tree, scheme)
    return [a for a in growing(graph, tree)
            if min(label_arc(scheme, a)) >= 64 and not fid.test(label_arc(scheme, a))]


def grow(graph, tree, arc):
    return make_tree(tree.root, tree.leaves | {int(graph.dst[arc])}, tree.arcs | {arc})


def single(graph, arc):
    """The one-arc tree of ``arc``, rooted at its source."""
    return make_tree(int(graph.src[arc]), {int(graph.dst[arc])}, {arc})
