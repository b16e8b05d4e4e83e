from __future__ import annotations

import numpy as np
import pytest

from conftest import bfs_distances
from fogcast.service_router import fog_cache_items
from fogcast.workload import build_catalogue
from oracles import (
    DnsConfig,
    all_pairs,
    build_rendezvous,
    dns_select,
    ldns_of,
    resolve_request,
    resolve_request_dns,
)


@pytest.fixture()
def catalogue():
    return build_catalogue(100, 0.8, (20e6,), seed=1)


FOG_ITEMS = fog_cache_items(0.1, 100)


def test_client_hosting_an_ldns_resolves_locally(chain4):
    hops = all_pairs(chain4)
    assert ldns_of(2, (0, 2), hops) == 2


def test_nearest_ldns_wins(chain4):
    hops = all_pairs(chain4)
    assert ldns_of(1, (3, 0), hops) == 0  # distances 2 vs 1


def test_ldns_of_matches_brute_force(geant, geant_hops):
    rng = np.random.default_rng(31)
    for _ in range(30):
        ldns = tuple(int(x) for x in rng.choice(geant.n_nodes, size=4, replace=False))
        client = int(rng.integers(geant.n_nodes))
        oracle = bfs_distances(geant, client)
        assert ldns_of(client, ldns, geant_hops) == min(
            sorted(ldns), key=lambda n: (oracle[n], n))


def test_selection_is_nearest_to_the_resolver_not_the_client(chain4):
    hops = all_pairs(chain4)
    # client at a (0), resolver at d (3), replicas at a and c: the resolver
    # returns c, a two-hop client path although a zero-hop replica exists.
    selected = dns_select(3, (0, 2), hops)
    assert selected == 2
    assert hops.dist[0, selected] == 2


def test_colocated_resolver_selects_like_the_native_match(chain4, catalogue):
    hops = all_pairs(chain4)
    table = build_rendezvous([1], [3])
    for client in range(4):
        native = resolve_request(client, 1, [3], FOG_ITEMS, table, hops, catalogue)
        selected = dns_select(client, (1, 3), hops)
        assert selected == native.service_point


def test_dns_select_matches_brute_force(geant, geant_hops):
    rng = np.random.default_rng(17)
    for _ in range(30):
        points = tuple(int(x) for x in rng.choice(geant.n_nodes, size=5, replace=False))
        resolver = int(rng.integers(geant.n_nodes))
        oracle = bfs_distances(geant, resolver)
        assert dns_select(resolver, points, geant_hops) == min(
            sorted(points), key=lambda n: (oracle[n], n))


def test_cached_item_needs_one_leg(chain4, catalogue):
    hops = all_pairs(chain4)
    config = DnsConfig(ldns=(0,), fog=(1,), cloud=(3,), fog_items=FOG_ITEMS)
    plan = resolve_request_dns(0, 1, config, hops, float(catalogue.bitrates[0]))
    assert len(plan.legs) == 1
    assert plan.client_path_hops == 1


def test_uncached_item_pulls_from_the_nearest_cloud(chain4, catalogue):
    hops = all_pairs(chain4)
    config = DnsConfig(ldns=(0,), fog=(1,), cloud=(3,), fog_items=FOG_ITEMS)
    plan = resolve_request_dns(0, 99, config, hops, float(catalogue.bitrates[98]))
    assert [(leg.src, leg.dst) for leg in plan.legs] == [(0, 1), (1, 3)]
    assert plan.client_path_hops == 1


def test_missing_cloud_is_a_configuration_error(chain4, catalogue):
    hops = all_pairs(chain4)
    config = DnsConfig(ldns=(0,), fog=(1, 3), cloud=(), fog_items=FOG_ITEMS)
    with pytest.raises(ValueError):
        resolve_request_dns(0, 99, config, hops, float(catalogue.bitrates[98]))


def test_config_validation():
    with pytest.raises(ValueError):
        DnsConfig(ldns=(), fog=(1,), cloud=(3,), fog_items=FOG_ITEMS)
    with pytest.raises(ValueError):
        DnsConfig(ldns=(0,), fog=(), cloud=(), fog_items=FOG_ITEMS)


def test_baseline_paths_dominate_native_paths(geant, geant_hops, catalogue):
    rng = np.random.default_rng(8)
    for _ in range(25):
        fog = [int(x) for x in rng.choice(geant.n_nodes, size=3, replace=False)]
        cloud = [int(x) for x in rng.choice(geant.n_nodes, size=2, replace=False)]
        ldns = tuple(int(x) for x in rng.choice(geant.n_nodes, size=2, replace=False))
        table = build_rendezvous(fog, cloud)
        config = DnsConfig(ldns=ldns, fog=tuple(fog), cloud=tuple(cloud), fog_items=FOG_ITEMS)
        for client in range(geant.n_nodes):
            for item in (1, 99):
                native = resolve_request(client, item, cloud, FOG_ITEMS, table,
                                         geant_hops, catalogue)
                baseline = resolve_request_dns(client, item, config, geant_hops,
                                               float(catalogue.bitrates[item - 1]))
                assert baseline.client_path_hops >= native.client_path_hops
