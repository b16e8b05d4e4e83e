from __future__ import annotations

import numpy as np
import pytest

from conftest import random_connected_graph
from fogcast import forwarding
from fogcast.forwarding import (
    BloomScheme,
    carried_arcs,
    deliver_groups,
    fpr_theoretical,
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
    masks = label_masks(g, scheme)
    width = ForwardingId(bits=0, scheme=scheme).width
    assert masks.dtype == np.uint64 and masks.shape == (g.n_arcs, -(-width // 64))
    for arc_id in range(g.n_arcs):
        bits = sum(int(word) << (64 * i) for i, word in enumerate(masks[arc_id].tolist()))
        assert bits == encode_tree(make_tree(0, set(), {arc_id}), scheme).bits
    assert label_masks(g, scheme) is masks
    assert not masks.flags.writeable
    # Each arc is labelled once per (graph, scheme), however often it is asked.
    assert labelled == list(range(g.n_arcs))


def test_group_kernel_matches_scalar_delivery(geant):
    """Per group, the kernel carries exactly the arcs of ``forward`` over
    ``deliver``, on the bundled backbone and 50 random graphs, under the
    default Bloom scheme and a 16-bit one whose false positives chain over
    several hops and close cycles."""
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
        roots = np.array([t.root for t in trees])
        tree_group = np.concatenate([np.full(len(t.arcs), i) for i, t in enumerate(trees)])
        tree_arc = np.concatenate([sorted(t.arcs) for t in trees]).astype(np.intp)
        for scheme in (BloomScheme(), BloomScheme(m=16, k=2)):
            got = by_group(*deliver_groups(g, scheme, roots, tree_group, tree_arc), len(trees))
            for tree, carried in zip(trees, got):
                fid = encode_tree(tree, scheme)
                assert carried == scalar_carried(fid, tree.root, g)
                tree_nodes = {tree.root} | {int(g.dst[a]) for a in tree.arcs}
                extra = carried - tree.arcs
                chained += sum(g.src[a] not in tree_nodes for a in extra)
                cycles += sum(a ^ 1 in carried for a in extra)

            # An all-ones identifier from every root carries every arc.
            words = label_masks(g, scheme).shape[1]
            ones = np.full((len(roots), words), np.iinfo(np.uint64).max, dtype=np.uint64)
            fid = ForwardingId(bits=(1 << scheme.m) - 1, scheme=scheme)
            got = by_group(*carried_arcs(g, scheme, ones, roots), len(roots))
            for root, carried in zip(roots.tolist(), got):
                assert carried == scalar_carried(fid, root, g) == set(range(g.n_arcs))
    assert chained > 0 and cycles > 0


def test_group_kernel_delivers_each_distinct_identifier_once(geant, geant_hops, monkeypatch):
    """Groups sharing a (root, identifier) pair cost one delivery: repeated
    trees, one arc set from two roots, two arc sets whose 16-bit Bloom
    identifiers collide, identifiers equal in their first word only and
    empty trees between them. Every group still carries the arcs of
    ``forward`` over ``deliver`` from its own root."""
    tree = build_tree(geant_hops, 3, {20, 30})
    small = BloomScheme(m=16, k=2)
    bits = encode_tree(tree, small).bits
    # An arc the 16-bit identifier of ``tree`` already passes collides with it.
    surplus = next(a for a in range(geant.n_arcs) if a not in tree.arcs
                   and ForwardingId(bits, small).test(label_arc(small, a)))
    # An arc whose default-scheme bits, not all set yet, lie past the first
    # word leaves that word of the identifier as it was.
    bloom = BloomScheme()
    fid = encode_tree(tree, bloom)
    wide = next(a for a in range(geant.n_arcs) if a not in tree.arcs
                and min(label_arc(bloom, a)) >= 64 and not fid.test(label_arc(bloom, a)))
    other = build_tree(geant_hops, 11, {0, 25})
    empty = set()
    trees = [tree, make_tree(3, empty, empty), make_tree(3, {20, 30}, tree.arcs | {wide}),
             tree, make_tree(20, {30}, tree.arcs), make_tree(3, empty, empty),
             make_tree(3, {20, 30}, tree.arcs | {surplus}), other,
             make_tree(12, {0, 25}, other.arcs), make_tree(20, empty, empty), tree, other]
    roots = np.array([t.root for t in trees])
    tree_group = np.concatenate([np.full(len(t.arcs), i) for i, t in enumerate(trees)])
    tree_arc = np.concatenate([sorted(t.arcs) for t in trees]).astype(np.intp)
    assert encode_tree(trees[6], small).bits == bits
    wide_bits = encode_tree(trees[2], bloom).bits
    assert wide_bits != fid.bits and (wide_bits ^ fid.bits) & (1 << 64) - 1 == 0

    delivered = []

    def spy(graph, scheme, fids, roots):
        delivered.extend(
            (int(root), sum(int(word) << 64 * i for i, word in enumerate(row)))
            for root, row in zip(roots.tolist(), fids))
        return carried_arcs(graph, scheme, fids, roots)

    monkeypatch.setattr("fogcast.forwarding.carried_arcs", spy)
    for scheme in (bloom, small):
        delivered.clear()
        group, arc = deliver_groups(geant, scheme, roots, tree_group, tree_arc)
        keys = group * geant.n_arcs + arc
        assert (np.diff(keys) > 0).all()
        for t, carried in zip(trees, by_group(group, arc, len(trees))):
            assert carried == scalar_carried(encode_tree(t, scheme), t.root, geant)
        pairs = [(t.root, encode_tree(t, scheme).bits) for t in trees]
        assert sorted(delivered) == sorted(set(pairs))
