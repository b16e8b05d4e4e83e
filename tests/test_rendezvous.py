from __future__ import annotations

import numpy as np
import pytest

from conftest import bfs_distances, random_connected_graph
from oracles import (
    SCOPE_HTTP,
    SCOPE_MICRO,
    NoSubscriberError,
    RendezvousTable,
    ScopedName,
    adjacency,
    all_pairs,
    build_tree,
    extract_path,
    wildcard_match,
)

FQDN = "svc.example.net"


def test_subscribe_creates_single_entry():
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 3)
    assert table.subscribers(name) == {3}


def test_subscribe_is_idempotent():
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 3).subscribe(name, 3)
    assert table.subscribers(name) == {3}


def test_fog_and_cloud_gateways_share_the_service_subscription():
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 1)  # fog gateway
    table.subscribe(name, 9)  # cloud gateway
    assert table.subscribers(name) == {1, 9}


def test_scoped_name_validation():
    with pytest.raises(ValueError):
        ScopedName("FTP", FQDN)
    with pytest.raises(ValueError):
        ScopedName(SCOPE_MICRO, FQDN, "/a*b")
    with pytest.raises(ValueError):
        ScopedName(SCOPE_MICRO, FQDN, "/a*b*")
    ScopedName(SCOPE_MICRO, FQDN, "/bundle/*")  # trailing wildcard is legal


@pytest.mark.parametrize(
    "pattern,url,expected",
    [
        ("/video/*", "/video/seg17", True),
        ("/video/*", "/img/a", False),
        ("/exact", "/exact", True),
        ("/exact", "/exact2", False),
        ("*", "/anything", True),
    ],
)
def test_wildcard_match(pattern, url, expected):
    assert wildcard_match(pattern, url) is expected


def test_wildcard_match_rejects_malformed_patterns():
    with pytest.raises(ValueError):
        wildcard_match("/a*/b", "/a/b")


def test_match_single_subscriber(chain4):
    hops = all_pairs(chain4)
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 3)
    assert table.match(hops, name, 0) == 3


def test_match_prefers_nearest_subscriber(chain4):
    hops = all_pairs(chain4)
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 1).subscribe(name, 3)
    assert table.match(hops, name, 0) == 1


def test_publisher_matches_itself_at_distance_zero(chain4):
    hops = all_pairs(chain4)
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 2).subscribe(name, 0)
    assert table.match(hops, name, 2) == 2


def test_match_tie_breaks_to_lowest_node_id(star4):
    hops = all_pairs(star4)
    table = RendezvousTable()
    name = ScopedName(SCOPE_HTTP, FQDN)
    table.subscribe(name, 3).subscribe(name, 1)
    assert table.match(hops, name, 0) == 1


def test_match_without_subscribers_raises(chain4):
    hops = all_pairs(chain4)
    with pytest.raises(NoSubscriberError):
        RendezvousTable().match(hops, ScopedName(SCOPE_HTTP, FQDN), 0)


def test_match_equals_exhaustive_minimum_on_random_trials(geant, geant_hops):
    rng = np.random.default_rng(7)
    name = ScopedName(SCOPE_HTTP, FQDN)
    for _ in range(50):
        table = RendezvousTable()
        subscribers = rng.choice(geant.n_nodes, size=6, replace=False)
        for node in subscribers:
            table.subscribe(name, int(node))
        publisher = int(rng.integers(geant.n_nodes))
        oracle_dist = bfs_distances(geant, publisher)
        expected = min(sorted(int(s) for s in subscribers),
                       key=lambda s: (oracle_dist[s], s))
        assert table.match(geant_hops, name, publisher) == expected


def test_match_invariant_under_subscription_order(geant_hops):
    name = ScopedName(SCOPE_HTTP, FQDN)
    nodes = [30, 4, 17, 9, 22]
    forward_table = RendezvousTable()
    reverse_table = RendezvousTable()
    for n in nodes:
        forward_table.subscribe(name, n)
    for n in reversed(nodes):
        reverse_table.subscribe(name, n)
    for publisher in range(geant_hops.graph.n_nodes):
        assert (forward_table.match(geant_hops, name, publisher)
                == reverse_table.match(geant_hops, name, publisher))


def test_micro_scope_resolves_concrete_urls_against_wildcards(chain4):
    hops = all_pairs(chain4)
    table = RendezvousTable()
    table.subscribe(ScopedName(SCOPE_MICRO, FQDN, "/items/*"), 3)
    table.subscribe(ScopedName(SCOPE_MICRO, FQDN, "/other/*"), 1)
    publication = ScopedName(SCOPE_MICRO, FQDN, "/items/42")
    assert table.match(hops, publication, 0) == 3
    with pytest.raises(NoSubscriberError):
        table.match(hops, ScopedName(SCOPE_MICRO, FQDN, "/nowhere/1"), 0)


def test_micro_scope_ignores_other_services(chain4):
    hops = all_pairs(chain4)
    table = RendezvousTable()
    table.subscribe(ScopedName(SCOPE_MICRO, "other.example", "/items/*"), 1)
    with pytest.raises(NoSubscriberError):
        table.match(hops, ScopedName(SCOPE_MICRO, FQDN, "/items/1"), 0)


# --- delivery trees --------------------------------------------------------

def test_single_leaf_tree_is_the_shortest_path(geant, geant_hops):
    tree = build_tree(geant_hops, 0, [20])
    assert tree.arcs == frozenset(extract_path(geant_hops, 0, 20))


def test_chain_tree_shares_prefix_arcs(chain4):
    hops = all_pairs(chain4)
    tree = build_tree(hops, 0, {1, 2})
    assert len(tree.arcs) == 2  # a->b, b->c; the a->b arc is shared


def test_empty_leaf_set_rejected(geant_hops):
    with pytest.raises(ValueError):
        build_tree(geant_hops, 0, [])


def test_tree_equals_union_of_paths_on_random_leaf_sets(geant, geant_hops):
    rng = np.random.default_rng(13)
    for _ in range(40):
        root = int(rng.integers(geant.n_nodes))
        leaves = {int(x) for x in rng.choice(geant.n_nodes, size=5, replace=False)}
        tree = build_tree(geant_hops, root, leaves)
        expected = set()
        for leaf in leaves:
            expected.update(extract_path(geant_hops, root, leaf))
        assert tree.arcs == expected
        total = sum(int(geant_hops.dist[root, leaf]) for leaf in leaves)
        longest = max(int(geant_hops.dist[root, leaf]) for leaf in leaves)
        assert longest <= len(tree.arcs) <= total


def test_tree_hop_distance_matches_table(geant, geant_hops):
    rng = np.random.default_rng(3)
    for _ in range(20):
        root = int(rng.integers(geant.n_nodes))
        leaves = {int(x) for x in rng.choice(geant.n_nodes, size=4, replace=False)}
        tree = build_tree(geant_hops, root, leaves)
        # BFS restricted to tree arcs must reach each leaf in dist(root, leaf)
        dist = {root: 0}
        frontier = [root]
        arc_set = set(tree.arcs)
        while frontier:
            nxt = []
            for u in frontier:
                for arc_id, v in adjacency(geant)[u]:
                    if arc_id in arc_set:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
            frontier = nxt
        for leaf in leaves:
            assert dist[leaf] == geant_hops.dist[root, leaf]


def test_random_graph_match_oracle():
    rng = np.random.default_rng(21)
    name = ScopedName(SCOPE_HTTP, FQDN)
    for _ in range(15):
        g = random_connected_graph(rng, 12, 6)
        hops = all_pairs(g)
        table = RendezvousTable()
        subs = sorted({int(x) for x in rng.integers(0, 12, size=4)})
        for s in subs:
            table.subscribe(name, s)
        for publisher in range(12):
            oracle = bfs_distances(g, publisher)
            assert table.match(hops, name, publisher) == min(
                subs, key=lambda s: (oracle[s], s))
