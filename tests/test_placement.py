from __future__ import annotations

import numpy as np
import pytest

from conftest import write_graphml, write_synthetic
from fogcast import experiment
from fogcast.data import bundled_population, bundled_topology
from fogcast.placement import PickOrder
from fogcast.topology import load_topology
from fogcast.workload import assign_population, load_population


def choice_reference(weights: np.ndarray, k: int, seed: int) -> tuple[int, ...]:
    """Reference draw: one ``rng.choice`` per pick, as placement drew before
    ``PickOrder`` took its doubles from one ``rng.random`` stream."""
    weights = np.asarray(weights, dtype=np.float64)
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
        assert PickOrder(weights, seed).first(k) == choice_reference(weights, k, seed), (seed, k)


def test_draw_equals_choice_reference_on_bundled_weights(geant, geant_population):
    for weights in (geant_population, geant.closeness):
        assert_draws_equal_reference(weights, range(2048))


def test_draw_equals_choice_reference_on_2000_node_backbone(tmp_path):
    topology, population = write_synthetic(tmp_path, 1)
    graph = load_topology(topology)
    assert graph.n_nodes == 2000
    populations = assign_population(graph, load_population(population))
    for weights in (populations, graph.closeness):
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
                    assert PickOrder(weights, seed).first(k) == choice_reference(weights, k, seed)


# Request sequences for one pick order: growing, shrinking, repeated, and
# eight seeded ones of five requests each.
REQUEST_SEQUENCES = [(8, 2, 5), tuple(range(1, 9)), (3, 3, 1), (16, 1, 9, 9)] + [
    tuple(int(k) for k in row)
    for row in np.random.default_rng(15).integers(1, 17, size=(8, 5))
]


def assert_orders_equal_fresh_draws(weights: np.ndarray, seeds: range) -> None:
    """Every ``first(k)`` of a pick order equals a fresh draw of k points,
    whatever was asked of the order before."""
    for seed in seeds:
        for requests in REQUEST_SEQUENCES:
            order = PickOrder(weights, seed)
            for k in requests:
                expected = choice_reference(weights, k, seed)
                assert order.first(k) == expected, (seed, requests, k)


def test_pick_order_is_request_order_independent_on_bundled_weights(geant, geant_population):
    for weights in (geant_population, geant.closeness):
        assert_orders_equal_fresh_draws(weights, range(48))


def test_pick_order_is_request_order_independent_on_2000_node_backbone(tmp_path):
    topology, population = write_synthetic(tmp_path, 1)
    graph = load_topology(topology)
    populations = assign_population(graph, load_population(population))
    for weights in (populations, graph.closeness):
        assert_orders_equal_fresh_draws(weights, range(16))


def test_pick_order_of_zero_weights_and_ties():
    weights = np.array([0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0, 1.0,
                        1.0, 0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    assert np.count_nonzero(weights) == 14
    for seed in range(64):
        order = PickOrder(weights, seed)
        for k in (1, 7, 14, 3):
            assert order.first(k) == choice_reference(weights, k, seed), (seed, k)
        assert order.first(0) == ()


def test_pick_order_over_its_support_keeps_the_total_of_all_weights():
    """Float weights with zeros interleaved, whose pairwise sum over every
    node differs in its last bits from the sum over the positive ones: the
    draw, run over the positive nodes alone, must still take the total over
    all of them, as ``rng.choice`` does, for every k."""
    rng = np.random.default_rng(1)
    weights = rng.lognormal(0.0, 2.0, size=40)
    weights[rng.random(40) < 0.35] = 0.0
    positive = np.count_nonzero(weights)
    assert positive == 29
    assert weights.sum().tobytes() != weights[weights > 0].sum().tobytes()
    for seed in range(64):
        order = PickOrder(weights, seed)
        for k in range(1, positive + 1):
            assert order.first(k) == choice_reference(weights, k, seed), (seed, k)

    # Zeros around a first weight within a few ulps of the seed's first
    # draw, where the total's last bits decide the first pick: in some of
    # these cases the positive weights' own total would pick another node.
    moved = 0
    for seed in range(64):
        u = np.random.default_rng(seed).random()
        for scale in (1.0, 3.0, 0.7, 1e3):
            head, tail = u * scale, (1 - u) * scale
            for step in range(-3, 4):
                weights = np.zeros(24)
                support = np.array([1, 5, 9, 14, 22])
                weights[support] = [head + step * np.spacing(head), tail / 7, 2 * tail / 7,
                                    3 * tail / 7, tail / 7]
                expected = choice_reference(weights, 1, seed)
                assert PickOrder(weights, seed).first(1) == expected, (seed, scale, step)
                cdf = (weights[support] / weights[support].sum()).cumsum()
                cdf /= cdf[-1]
                moved += (int(support[cdf.searchsorted(u, side="right")]),) != expected
    assert moved > 0


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
        assert PickOrder(weights, seed).first(k) == choice_reference(weights, k, seed), (seed, k)


def test_k_equals_n_selects_every_node():
    assert PickOrder(np.array([5.0, 1.0, 2.0]), 1).first(3) == (0, 1, 2)


def test_only_positive_weight_node_is_chosen():
    assert PickOrder(np.array([1.0, 0.0, 0.0]), 99).first(1) == (0,)


def test_zero_weight_nodes_never_selected_while_positive_remain():
    weights = np.array([3.0, 0.0, 1.0, 0.0, 2.0])
    for seed in range(200):
        chosen = PickOrder(weights, seed).first(3)
        assert set(chosen) == {0, 2, 4}


def test_no_repeats_within_a_draw():
    rng = np.random.default_rng(0)
    for seed in range(100):
        weights = rng.random(12) + 0.01
        chosen = PickOrder(weights, seed).first(7)
        assert len(chosen) == len(set(chosen)) == 7


def test_selection_frequency_proportional_to_weight():
    weights = np.array([3.0, 1.0])
    hits = sum(PickOrder(weights, seed).first(1)[0] == 0 for seed in range(100_000))
    assert hits / 100_000 == pytest.approx(0.75, abs=0.01)


def pipeline_picks(files, mode: str, counts, seed: int) -> tuple[tuple[int, ...], ...]:
    """Fog, cloud and LDNS points as ``run_trial`` takes them: each role's
    first k picks of its order in ``experiment._trial_index``, drawn anew."""
    picks, _, _ = experiment._trial_index(experiment._load_context(*files), seed)
    return tuple(picks(mode, role, k)[0] for role, k in zip(("fog", "cloud", "ldns"), counts))


BUNDLED = (str(bundled_topology()), str(bundled_population()))


def test_roles_draw_independent_streams():
    # the fog and cloud draws must not move when another role's k changes
    with_ldns = pipeline_picks(BUNDLED, "pop", (3, 2, 6), seed=23)
    without_ldns = pipeline_picks(BUNDLED, "pop", (3, 2, 0), seed=23)
    assert with_ldns[:2] == without_ldns[:2]
    # and the roles of one trial seed draw on different streams
    for seed in range(20):
        assert len(set(pipeline_picks(BUNDLED, "pop", (4, 4, 4), seed))) == 3, seed


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_pop_mode_selection_tracks_population(geant, geant_population):
    freq = np.zeros(geant.n_nodes)
    for seed in range(50):
        fog, cloud, _ = pipeline_picks(BUNDLED, "pop", (4, 4, 0), seed)
        for node in fog + cloud:
            freq[node] += 1
    assert spearman(freq, geant_population.astype(float)) > 0.5


def test_cls_mode_weights_are_closeness(tmp_path):
    # star4 with one user at every node: population weighs the four nodes
    # alike, while the hub holds closeness 1.0 against 0.6 at each leaf
    coords = [("hub", 0.0, 0.0), ("l1", 1.0, 0.0), ("l2", 0.0, 1.0), ("l3", -1.0, 0.0)]
    top, pop = tmp_path / "star4.graphml", tmp_path / "star4.txt"
    write_graphml(top, coords, [(0, 1), (0, 2), (0, 3)])
    pop.write_text("".join(f"{lat},{lon},1\n" for _, lat, lon in coords))
    files = (str(top), str(pop))
    assert experiment._load_context(*files).populations.tolist() == [1, 1, 1, 1]
    hits = sum(pipeline_picks(files, "cls", (1, 0, 0), seed=s)[0] == (0,) for s in range(2000))
    assert hits / 2000 == pytest.approx(1.0 / (1.0 + 3 * 0.6), abs=0.03)
