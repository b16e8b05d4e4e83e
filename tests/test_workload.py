from __future__ import annotations

import math

import numpy as np
import pytest

from fogcast.topology import build_graph
from fogcast.workload import (
    PopulationCell,
    WorkloadError,
    assign_population,
    build_catalogue,
    draw_demand,
    load_population,
)


def haversine_oracle(lat1, lon1, lat2, lon2):
    # independent reimplementation for the nearest-node scan
    r = 6371.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * r * math.atan2(math.sqrt(a), math.sqrt(1 - a))


# --- population grid -------------------------------------------------------

def test_load_population_parses_records_and_comments(tmp_path):
    f = tmp_path / "pop.txt"
    f.write_text("# header\n51.5,-0.1,1000  # city\n\n48.8,2.3,500\n")
    cells = load_population(f)
    assert cells == [PopulationCell(51.5, -0.1, 1000), PopulationCell(48.8, 2.3, 500)]


@pytest.mark.parametrize("body", ["51.5,-0.1", "x,y,z", "1,2,-5", "1,2,0\n4,5,0"])
def test_load_population_rejects_bad_files(tmp_path, body):
    f = tmp_path / "pop.txt"
    f.write_text(body + "\n")
    with pytest.raises(WorkloadError):
        load_population(f)


def test_single_cell_goes_to_nearest_node(star4):
    totals = assign_population(star4, [PopulationCell(1.01, 0.0, 500)])
    assert totals[1] == 500
    assert totals.sum() == 500


def test_equidistant_cell_ties_to_lowest_node_id():
    g = build_graph(
        [("a", 0.0, -1.0), ("b", 0.0, 1.0)],
        [(0, 1)],
    )
    totals = assign_population(g, [PopulationCell(0.0, 0.0, 7)])
    assert totals[0] == 7 and totals[1] == 0


def test_empty_grid_rejected(star4):
    with pytest.raises(WorkloadError):
        assign_population(star4, [])


def test_geant_assignment_matches_linear_scan_oracle(geant, geant_population):
    from fogcast.data import bundled_population

    cells = load_population(bundled_population())
    expected = np.zeros(geant.n_nodes, dtype=np.int64)
    for cell in cells:
        best = min(
            range(geant.n_nodes),
            key=lambda i: (haversine_oracle(cell.lat, cell.lon,
                                            geant.nodes[i].lat, geant.nodes[i].lon), i),
        )
        expected[best] += cell.count
    assert (geant_population == expected).all()
    assert geant_population.sum() == sum(c.count for c in cells)


# --- catalogue -------------------------------------------------------------

def test_single_item_catalogue_has_probability_one():
    cat = build_catalogue(1, 0.8, (20e6,), seed=1)
    assert cat.probabilities[0] == pytest.approx(1.0)


def test_two_item_catalogue_alpha_one():
    cat = build_catalogue(2, 1.0, (20e6,), seed=1)
    assert cat.probabilities[0] == pytest.approx(2 / 3)
    assert cat.probabilities[1] == pytest.approx(1 / 3)


def test_top_probability_matches_direct_summation():
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=1)
    harmonic = math.fsum(j ** -0.8 for j in range(1, 1001))
    assert cat.probabilities[0] == pytest.approx(1 / harmonic, rel=1e-12)


def test_catalogue_is_a_strictly_decreasing_distribution():
    for alpha in (0.2, 0.8, 1.5):
        cat = build_catalogue(400, alpha, (20e6, 40e6), seed=9)
        assert (np.diff(cat.probabilities) < 0).all()
        assert cat.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(np.unique(cat.bitrates)) <= {20e6, 40e6}


def test_catalogue_deterministic_per_seed():
    a = build_catalogue(50, 0.8, (20e6, 40e6, 60e6), seed=7)
    b = build_catalogue(50, 0.8, (20e6, 40e6, 60e6), seed=7)
    c = build_catalogue(50, 0.8, (20e6, 40e6, 60e6), seed=8)
    assert (a.bitrates == b.bitrates).all()
    assert not (a.bitrates == c.bitrates).all()


def test_catalogue_rejects_bad_inputs():
    with pytest.raises(WorkloadError):
        build_catalogue(0, 0.8, (20e6,), seed=1)
    with pytest.raises(WorkloadError):
        build_catalogue(10, 0.8, (), seed=1)
    with pytest.raises(WorkloadError):
        build_catalogue(10, -0.1, (20e6,), seed=1)


# --- demand ----------------------------------------------------------------

def test_single_node_single_item_demand_is_exact():
    cat = build_catalogue(1, 0.8, (20e6,), seed=1)
    demand = draw_demand(np.array([0, 10, 0]), cat, 0.4, 70e9, seed=1)
    assert demand.requests == {(1, 1): 3500}
    assert demand.offered_bitrate == pytest.approx(70e9)


def test_zero_load_fraction_gives_empty_demand(geant_population):
    cat = build_catalogue(10, 0.8, (20e6,), seed=1)
    demand = draw_demand(geant_population, cat, 0.0, 70e9, seed=1)
    assert demand.requests == {}
    assert demand.offered_bitrate == 0.0


def test_all_zero_population_rejected():
    cat = build_catalogue(10, 0.8, (20e6,), seed=1)
    with pytest.raises(WorkloadError):
        draw_demand(np.zeros(5, dtype=np.int64), cat, 0.4, 70e9, seed=1)


def test_offered_bitrate_consistent_with_requests(geant_population):
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=3)
    demand = draw_demand(geant_population, cat, 0.4, 70e9, seed=3)
    recomputed = sum(count * cat.bitrate(item)
                     for (_, item), count in demand.requests.items())
    assert demand.offered_bitrate == pytest.approx(recomputed)
    assert demand.total_requests == sum(demand.requests.values())


def per_node_demand(populations, catalogue, load_fraction, target_bitrate, seed):
    """Reference draw: one ``rng.choice`` per node, counted item by item."""
    requests: dict[tuple[int, int], int] = {}
    offered = 0.0
    if load_fraction > 0.0:
        budget = target_bitrate / catalogue.mean_bitrate
        weights = load_fraction * np.asarray(populations).astype(np.float64)
        shares = weights / weights.sum()
        rng = np.random.default_rng(seed)
        for node in range(len(populations)):
            users = int(round(budget * shares[node]))
            if users == 0:
                continue
            items = rng.choice(catalogue.n, size=users, p=catalogue.probabilities)
            ids, counts = np.unique(items, return_counts=True)
            for idx, count in zip(ids, counts):
                requests[(node, int(idx) + 1)] = int(count)
                offered += float(count) * catalogue.bitrate(int(idx) + 1)
    return requests, offered


@pytest.mark.parametrize("load_fraction", [0.0, 0.4, 1.0])
def test_demand_equals_per_node_reference(geant_population, load_fraction):
    # Sparse populations leave nodes with zero people, and tiny ones round
    # to zero users.
    sparse = geant_population.copy()
    sparse[::3] = 0
    sparse[1::7] = 1
    for populations in (geant_population, sparse):
        for seed in range(5):
            # Bitrates that are not integers make the offered sum depend on
            # its order.
            cat = build_catalogue(300 + 50 * seed, 0.8, (math.pi * 1e7, math.e * 1e7, 0.3e7),
                                  seed=seed)
            demand = draw_demand(populations, cat, load_fraction, 70e9, seed=seed)
            requests, offered = per_node_demand(populations, cat, load_fraction, 70e9, seed)
            assert list(demand.requests.items()) == list(requests.items())
            assert demand.offered_bitrate == offered
            assert demand.total_requests == sum(requests.values())
    assert (sparse == 0).any()

def test_demand_deterministic_per_seed(geant_population):
    cat = build_catalogue(100, 0.8, (20e6, 40e6), seed=5)
    a = draw_demand(geant_population, cat, 0.4, 70e9, seed=11)
    b = draw_demand(geant_population, cat, 0.4, 70e9, seed=11)
    assert a.requests == b.requests


def test_mean_offered_bitrate_calibrated_to_target(geant_population):
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=1)
    offered = [
        draw_demand(geant_population, cat, 0.4, 70e9, seed=s).offered_bitrate
        for s in range(100)
    ]
    assert np.mean(offered) == pytest.approx(70e9, rel=0.01)


def chi_square_critical(df: int, z: float) -> float:
    # Wilson-Hilferty approximation of the chi-square quantile
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def test_item_frequencies_follow_catalogue_distribution():
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=2)
    # one giant node so that the user budget lands in one sampling stream
    populations = np.array([1000])
    target = 100_000 * cat.mean_bitrate  # 1e5 users
    counts = np.zeros(cat.n)
    for seed in range(4):
        demand = draw_demand(populations, cat, 1.0, target / 4, seed=seed)
        for (_, item), count in demand.requests.items():
            counts[item - 1] += count
    total = counts.sum()
    assert total == pytest.approx(100_000, rel=0.01)
    expected = cat.probabilities * total
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < chi_square_critical(cat.n - 1, z=2.3263)  # 1% significance
