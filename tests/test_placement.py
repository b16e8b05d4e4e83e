from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import write_synthetic
from fogcast.placement import Placement, PlacementError, place_all, place_points
from fogcast.topology import HopRows, load_topology
from fogcast.workload import assign_population, load_population


def choice_reference(weights: np.ndarray, k: int, seed: int) -> tuple[int, ...]:
    """Reference draw: one ``rng.choice`` per pick, as ``place_points`` drew
    before it took its doubles from one ``rng.random(k)``."""
    weights = np.asarray(weights, dtype=np.float64)
    if k < 1 or k > len(weights):
        raise PlacementError(f"k={k} outside 1..{len(weights)}")
    positive = int((weights > 0).sum())
    if k > positive:
        raise PlacementError(f"k={k} exceeds the {positive} positive-weight node(s)")
    rng = np.random.default_rng(seed)
    remaining = weights.copy()
    chosen: list[int] = []
    for _ in range(k):
        probs = remaining / remaining.sum()
        node = int(rng.choice(len(remaining), p=probs))
        chosen.append(node)
        remaining[node] = 0.0
    return tuple(sorted(chosen))


def assert_draws_equal_reference(weights: np.ndarray, seeds: range) -> None:
    """Seed s draws k = 1 + s % 16 points, so every k of 1..16 is covered."""
    for seed in seeds:
        k = 1 + seed % 16
        assert place_points(weights, k, seed) == choice_reference(weights, k, seed), (seed, k)


def test_draw_equals_choice_reference_on_bundled_weights(geant_rows, geant_population):
    for weights in (geant_population, geant_rows.centrality):
        assert_draws_equal_reference(weights, range(2048))


def test_draw_equals_choice_reference_on_2000_node_backbone(tmp_path):
    topology, population = write_synthetic(tmp_path, 1)
    graph = load_topology(topology)
    assert graph.n_nodes == 2000
    populations = assign_population(graph, load_population(population))
    for weights in (populations, HopRows(graph).centrality):
        assert_draws_equal_reference(weights, range(2048))


def test_draw_equals_choice_reference_at_cdf_boundaries():
    """Weights whose first cdf value lies within a few ulps of the seed's
    first draw: only ``rng.choice``'s own float operations pick its node."""
    for seed in range(300):
        u = np.random.default_rng(seed).random()
        for scale in (1.0, 3.0, 0.7, 1e3):
            head, tail = u * scale, (1 - u) * scale
            for step in range(-3, 4):
                weights = np.array([head + step * np.spacing(head), tail / 3, 2 * tail / 3])
                for k in (1, 2):
                    assert place_points(weights, k, seed) == choice_reference(weights, k, seed)


@pytest.mark.parametrize("weights", [
    [0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 2.0, 2.0, 2.0, 1.0],
    [1.0] * 16,
    [0.0] * 5 + [3.0] * 16 + [0.0] * 5,
    [1e-300, 1e-300, 1.0, 1e300, 1e300, 0.0, 0.5, 0.5] * 2,
], ids=["zeros_and_ties", "all_tied", "zero_margins", "extreme_ties"])
def test_draw_equals_choice_reference_with_zeros_and_ties(weights):
    weights = np.array(weights)
    for seed in range(2048):
        k = 1 + seed % np.count_nonzero(weights)
        assert place_points(weights, k, seed) == choice_reference(weights, k, seed), (seed, k)


@pytest.mark.parametrize("bad, shown", [(-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf"),
                                        (-math.inf, "-inf")])
def test_negative_nan_and_infinite_weights_are_named(bad, shown):
    weights = np.array([1.0, 2.0, 0.0, bad, 3.0, -1.0])
    with pytest.raises(PlacementError, match=f"^node 3 has weight {shown};"):
        place_points(weights, 1, seed=1)


def test_k_equals_n_selects_every_node():
    assert place_points(np.array([5.0, 1.0, 2.0]), 3, seed=1) == (0, 1, 2)


def test_only_positive_weight_node_is_chosen():
    assert place_points(np.array([1.0, 0.0, 0.0]), 1, seed=99) == (0,)


def test_zero_weight_nodes_never_selected_while_positive_remain():
    weights = np.array([3.0, 0.0, 1.0, 0.0, 2.0])
    for seed in range(200):
        chosen = place_points(weights, 3, seed)
        assert set(chosen) == {0, 2, 4}


def test_requesting_more_than_positive_weight_nodes_fails():
    with pytest.raises(PlacementError):
        place_points(np.array([1.0, 0.0]), 2, seed=1)
    with pytest.raises(PlacementError):
        place_points(np.array([1.0]), 0, seed=1)


def test_no_repeats_within_a_draw():
    rng = np.random.default_rng(0)
    for seed in range(100):
        weights = rng.random(12) + 0.01
        chosen = place_points(weights, 7, seed)
        assert len(chosen) == len(set(chosen)) == 7


def test_selection_frequency_proportional_to_weight():
    weights = np.array([3.0, 1.0])
    hits = sum(place_points(weights, 1, seed)[0] == 0 for seed in range(100_000))
    assert hits / 100_000 == pytest.approx(0.75, abs=0.01)


def test_place_all_role_sizes(geant_rows, geant_population):
    placement = place_all(
        geant_rows, geant_population,
        {"fog": ("pop", 2), "cloud": ("pop", 2), "ldns": ("pop", 0)},
        seed=5,
    )
    assert len(placement.fog) == 2
    assert len(placement.cloud) == 2
    assert placement.ldns == ()


def test_place_all_deterministic(geant_rows, geant_population):
    roles = {"fog": ("pop", 3), "cloud": ("cls", 2), "ldns": ("pop", 4)}
    a = place_all(geant_rows, geant_population, roles, seed=17)
    b = place_all(geant_rows, geant_population, roles, seed=17)
    assert a == b


def test_roles_draw_independent_streams(geant_rows, geant_population):
    # the fog draw must not move when another role's k changes
    with_ldns = place_all(
        geant_rows, geant_population,
        {"fog": ("pop", 3), "cloud": ("pop", 2), "ldns": ("pop", 6)}, seed=23,
    )
    without_ldns = place_all(
        geant_rows, geant_population,
        {"fog": ("pop", 3), "cloud": ("pop", 2), "ldns": ("pop", 0)}, seed=23,
    )
    assert with_ldns.fog == without_ldns.fog
    assert with_ldns.cloud == without_ldns.cloud


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_pop_mode_selection_tracks_population(geant_rows, geant_population):
    freq = np.zeros(geant_rows.graph.n_nodes)
    for seed in range(50):
        placement = place_all(
            geant_rows, geant_population,
            {"fog": ("pop", 4), "cloud": ("pop", 4), "ldns": ("pop", 0)}, seed=seed,
        )
        for node in placement.fog + placement.cloud:
            freq[node] += 1
    assert spearman(freq, geant_population.astype(float)) > 0.5


def test_cls_mode_weights_are_closeness(star4):
    hops = HopRows(star4)
    # center holds closeness 1.0 vs 0.6 leaves; with k=1 it should dominate
    hits = sum(
        place_all(hops, np.ones(4), {"fog": ("cls", 1), "cloud": ("cls", 0),
                                     "ldns": ("cls", 0)}, seed=s).fog[0] == 0
        for s in range(2000)
    )
    assert hits / 2000 == pytest.approx(1.0 / (1.0 + 3 * 0.6), abs=0.03)
