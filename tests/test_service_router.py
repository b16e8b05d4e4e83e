from __future__ import annotations

import numpy as np
import pytest

from conftest import count_windows
from fogcast.service_router import fog_cache_items, group_rate, resolve_nodes
from fogcast.workload import build_catalogue
from oracles import (NoSubscriberError, all_pairs, build_rendezvous, item_url,
                     resolve_request)

FOG_ITEMS = fog_cache_items(0.1, 100)


@pytest.fixture()
def catalogue():
    return build_catalogue(100, 0.8, (20e6,), seed=1)


def test_profiles_cache_model(chain4):
    assert fog_cache_items(0.1, 100) == 10
    assert fog_cache_items(0.001, 100) == 1  # at least one item
    assert fog_cache_items(1.0, 100) == 100
    # Clients 0 and 2 are served by fog points 1 and 2, which pull from
    # cloud point 3, client 3 by cloud point 3 itself: a fog point holds
    # items 1..10, a cloud point every item.
    clients, client_of = np.array([0, 2, 3]), np.repeat(np.arange(3), 2)
    items = np.array([10, 11, 10, 11, 11, 100])
    point, origin = resolve_nodes(all_pairs(chain4), clients, (1, 2), (3,))
    assert point.tolist() == [1, 2, 3]
    assert origin[point].tolist() == [3, 3, -1]
    # Pulled: the requests past the cache at a point with an origin.
    pulled = np.where(items > 10, origin[point][client_of], -1)
    assert pulled.tolist() == [-1, 3, -1, 3, -1, -1]


def test_colocated_node_keeps_the_cloud_profile(chain4):
    # Node 2 is fog and cloud: it serves every item, and node 1 pulls misses from it.
    clients = np.array([1, 2])
    point, origin = resolve_nodes(all_pairs(chain4), clients, (1, 2), (2,))
    assert point.tolist() == [1, 2]
    assert origin[point].tolist() == [2, -1]


def test_item_cached_at_nearest_fog_needs_one_leg(chain4, catalogue):
    hops = all_pairs(chain4)
    table = build_rendezvous([1], [3])
    plan = resolve_request(0, 5, [3], FOG_ITEMS, table, hops, catalogue)
    assert len(plan.legs) == 1
    assert plan.legs[0].src == 0 and plan.legs[0].dst == 1
    assert plan.client_path_hops == 1


def test_uncached_item_adds_the_micro_service_leg(chain4, catalogue):
    hops = all_pairs(chain4)
    table = build_rendezvous([1], [3])
    plan = resolve_request(0, 99, [3], FOG_ITEMS, table, hops, catalogue)
    # request to the fog gateway, then the bundle pull from the cloud
    assert len(plan.legs) == 2
    assert (plan.legs[0].src, plan.legs[0].dst) == (0, 1)
    assert (plan.legs[1].src, plan.legs[1].dst) == (1, 3)
    assert plan.client_path_hops == 1  # fallback leg never counts


def test_client_colocated_with_cloud_is_served_locally(chain4, catalogue):
    hops = all_pairs(chain4)
    table = build_rendezvous([1], [3])
    plan = resolve_request(3, 99, [3], FOG_ITEMS, table, hops, catalogue)
    assert plan.client_path_hops == 0
    assert len(plan.legs) == 1


def test_unserviceable_item_without_cloud_coverage(chain4, catalogue):
    hops = all_pairs(chain4)
    table = build_rendezvous([1], [])  # no cloud anywhere
    with pytest.raises(NoSubscriberError):
        resolve_request(0, 99, [], FOG_ITEMS, table, hops, catalogue)


def test_item_urls_are_concrete():
    assert item_url(17) == "/items/17"


# --- catchment windowing ----------------------------------------------------
# Trials use the analytic ``group_rate``; the windowing rule it models is
# pinned down on the event-driven oracle ``conftest.count_windows``, and
# acceptance criterion 8 checks ``group_rate`` against windows it counts.

def test_windows_split_at_window_boundaries():
    assert count_windows([0.0, 0.05, 0.2], 0.1) == 2
    # an arrival at exactly start + interval still joins the window
    assert count_windows([0.0, 0.25, 0.5], 0.25) == 2
    assert count_windows([0.0, 0.25, 0.5], 0.5) == 1


def test_simultaneous_requests_form_one_group():
    assert count_windows([1.0, 1.0, 1.0], 0.0) == 1


def test_zero_interval_with_distinct_times_gives_one_group_each():
    assert count_windows([0.0, 0.5, 1.0], 0.0) == 3


def test_windows_bounded_by_arrivals_and_shrink_with_interval():
    rng = np.random.default_rng(2)
    for _ in range(50):
        times = np.sort(rng.uniform(0, 60, size=int(rng.integers(1, 200)))).tolist()
        windows = [count_windows(times, t) for t in (0.0, 0.1, 1.0, 10.0, 60.0)]
        assert windows[0] == len(set(times))
        assert all(a >= b for a, b in zip(windows, windows[1:]))
        assert windows[-1] == 1


def test_unsorted_arrivals_rejected():
    with pytest.raises(ValueError):
        count_windows([1.0, 0.5], 1.0)
    with pytest.raises(ValueError):
        count_windows([0.0], -1.0)


def test_group_rate_boundary_values():
    assert group_rate(5.0, 0.0) == 5.0
    assert group_rate(1.0, 1.0) == 0.5
    assert group_rate(0.0, 3.0) == 0.0
    assert group_rate(np.array([0.0, 5.0, 1.0]), 0.0).tolist() == [0.0, 5.0, 1.0]


def test_group_rate_monotone_in_interval():
    rates = [group_rate(2.0, t) for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
