from __future__ import annotations

import math

import numpy as np
import pytest

from fogcast.rendezvous import MulticastTree, NoSubscriberError, build_tree
from fogcast.service_router import (
    CatchmentGroup,
    build_rendezvous,
    catchment_group,
    group_rate,
    item_url,
    make_profiles,
    multicast_load,
    resolve_request,
)
from fogcast.topology import all_pairs
from fogcast.workload import build_catalogue


@pytest.fixture()
def catalogue():
    return build_catalogue(100, 0.8, (20e6,), seed=1)


def test_profiles_cache_model(catalogue):
    profiles = make_profiles([1, 2], [3], catalogue, fog_cache_fraction=0.1)
    assert profiles[3].cached_items == frozenset(range(1, 101))
    assert profiles[1].cached_items == frozenset(range(1, 11))
    assert profiles[1].cached_items < profiles[3].cached_items
    assert profiles[1].role == "fog" and profiles[3].role == "cloud"


def test_colocated_node_keeps_the_cloud_profile(catalogue):
    profiles = make_profiles([2], [2], catalogue)
    assert profiles[2].role == "cloud"


def test_fog_cache_fraction_validated(catalogue):
    with pytest.raises(ValueError):
        make_profiles([1], [2], catalogue, fog_cache_fraction=0.0)


def test_item_cached_at_nearest_fog_needs_one_leg(chain4, catalogue):
    hops = all_pairs(chain4)
    profiles = make_profiles([1], [3], catalogue)
    table = build_rendezvous(profiles)
    plan = resolve_request(0, 5, profiles, table, hops, catalogue)
    assert len(plan.legs) == 1
    assert plan.legs[0].src == 0 and plan.legs[0].dst == 1
    assert plan.client_path_hops == 1


def test_uncached_item_adds_the_micro_service_leg(chain4, catalogue):
    hops = all_pairs(chain4)
    profiles = make_profiles([1], [3], catalogue)
    table = build_rendezvous(profiles)
    plan = resolve_request(0, 99, profiles, table, hops, catalogue)
    # request to the fog gateway, then the bundle pull from the cloud
    assert len(plan.legs) == 2
    assert (plan.legs[0].src, plan.legs[0].dst) == (0, 1)
    assert (plan.legs[1].src, plan.legs[1].dst) == (1, 3)
    assert plan.client_path_hops == 1  # fallback leg never counts


def test_client_colocated_with_cloud_is_served_locally(chain4, catalogue):
    hops = all_pairs(chain4)
    profiles = make_profiles([1], [3], catalogue)
    table = build_rendezvous(profiles)
    plan = resolve_request(3, 99, profiles, table, hops, catalogue)
    assert plan.client_path_hops == 0
    assert len(plan.legs) == 1


def test_unserviceable_item_without_cloud_coverage(chain4, catalogue):
    hops = all_pairs(chain4)
    profiles = make_profiles([1], [], catalogue)  # no cloud anywhere
    table = build_rendezvous(profiles)
    with pytest.raises(NoSubscriberError):
        resolve_request(0, 99, profiles, table, hops, catalogue)


def test_item_urls_are_concrete():
    assert item_url(17) == "/items/17"


# --- catchment windowing ----------------------------------------------------

def test_catchment_groups_split_at_window_boundaries():
    groups = catchment_group([(0.0, 1), (0.05, 2), (0.2, 3)], 0.1)
    assert [g.size for g in groups] == [2, 1]
    assert groups[0].members == {1, 2}
    assert groups[1].members == {3}
    assert groups[0].window_start == 0.0
    assert groups[1].window_start == pytest.approx(0.2)


def test_simultaneous_requests_form_one_group():
    groups = catchment_group([(1.0, 1), (1.0, 2), (1.0, 3)], 0.0)
    assert len(groups) == 1
    assert groups[0].size == 3


def test_zero_interval_with_distinct_times_gives_one_group_each():
    groups = catchment_group([(0.0, 1), (0.5, 2), (1.0, 3)], 0.0)
    assert [g.size for g in groups] == [1, 1, 1]


def test_suppression_never_loses_members():
    rng = np.random.default_rng(2)
    for _ in range(50):
        times = np.sort(rng.uniform(0, 60, size=int(rng.integers(1, 200))))
        arrivals = [(float(t), int(i)) for i, t in enumerate(times)]
        for interval in (0.0, 0.1, 1.0, 10.0):
            groups = catchment_group(arrivals, interval)
            assert sum(g.size for g in groups) == len(arrivals)


def test_unsorted_arrivals_rejected():
    with pytest.raises(ValueError):
        catchment_group([(1.0, 1), (0.5, 2)], 1.0)
    with pytest.raises(ValueError):
        catchment_group([(0.0, 1)], -1.0)


def test_group_rate_boundary_values():
    assert group_rate(5.0, 0.0) == 5.0
    assert group_rate(0.0, 3.0) == 0.0
    assert group_rate(0.0, math.inf) == 0.0
    assert group_rate(np.array([0.0, 4.0]), math.inf).tolist() == [0.0, 0.0]
    assert group_rate(np.array([0.0, 5.0, 1.0]), 0.0).tolist() == [0.0, 5.0, 1.0]
    with pytest.raises(ValueError):
        group_rate(-1.0, 0.0)
    with pytest.raises(ValueError):
        group_rate(np.array([1.0, -1.0]), 0.0)


def test_group_rate_monotone_in_interval():
    rates = [group_rate(2.0, t) for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def simulate_group_rate(rate: float, interval: float, horizon: float, seed: int) -> float:
    """Event-driven windowing oracle over Poisson arrivals."""
    rng = np.random.default_rng(seed)
    t = 0.0
    groups = 0
    window_end = -1.0
    while t < horizon:
        for gap in rng.exponential(1.0 / rate, size=100_000).tolist():
            t += gap
            if t >= horizon:
                break
            if t > window_end:
                groups += 1
                window_end = t + interval
    return groups / horizon


def test_group_rate_matches_event_driven_oracle():
    simulated = simulate_group_rate(1.0, 1.0, horizon=1_000_000.0, seed=99)
    assert simulated == pytest.approx(0.5, abs=0.01)
    assert group_rate(1.0, 1.0) == 0.5


# --- multicast load ---------------------------------------------------------

def test_multicast_load_uniform_over_tree_arcs():
    tree = MulticastTree(root=0, leaves=frozenset({4}), arcs=frozenset({1, 5, 7, 9}))
    load = multicast_load(1.0, tree, 20e6)
    assert load == {1: 20e6, 5: 20e6, 7: 20e6, 9: 20e6}
    assert sum(load.values()) == pytest.approx(80e6)


def test_zero_group_rate_means_zero_load():
    tree = MulticastTree(root=0, leaves=frozenset({1}), arcs=frozenset({0}))
    assert multicast_load(0.0, tree, 20e6) == {0: 0.0}


def test_multicast_load_total_scales_with_tree_size(geant, geant_hops):
    rng = np.random.default_rng(4)
    for _ in range(10):
        root = int(rng.integers(geant.n_nodes))
        leaves = {int(x) for x in rng.choice(geant.n_nodes, size=6, replace=False)}
        tree = build_tree(geant_hops, root, leaves)
        load = multicast_load(0.25, tree, 40e6)
        assert sum(load.values()) == pytest.approx(len(tree.arcs) * 0.25 * 40e6)
