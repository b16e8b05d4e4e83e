from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from fogcast.topology import build_graph
from fogcast.workload import (
    _GUIDE_BUCKETS,
    WorkloadError,
    _guide_search,
    assign_population,
    build_catalogue,
    draw_demand,
    great_circle_km,
    load_population,
)


def haversine_oracle(lat1, lon1, lat2, lon2):
    # independent reimplementation for the nearest-node scan
    r = 6371.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * r * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def _great_circle_km(lat1, lon1, lat2, lon2):
    """``great_circle_km`` on broadcast numpy arrays, whose sin and cos may
    differ from math's by an ulp or so."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(lon2 - lon1)
    a = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * 6371.0 * np.arcsin(np.sqrt(a))


# --- population grid -------------------------------------------------------

def cells_of(*records):
    """The ``(lat, lon, count)`` arrays ``load_population`` returns for ``records``."""
    lat, lon, count = zip(*records)
    return np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64), np.array(
        count, dtype=np.int64)


def test_load_population_parses_records_and_comments(tmp_path):
    f = tmp_path / "pop.txt"
    f.write_text("# header\n51.5,-0.1,1000  # city\n\n48.8,2.3,500\n")
    lat, lon, count = load_population(f)
    assert (lat.tolist(), lon.tolist(), count.tolist()) == ([51.5, 48.8], [-0.1, 2.3], [1000, 500])
    assert (lat.dtype, lon.dtype, count.dtype) == (np.float64, np.float64, np.int64)
    # Coordinates on the edge of their ranges, and a total just below 2**63.
    f.write_text(f"-90,-180,{2**62}\n90,180,{2**62 - 1}\n")
    assert load_population(f)[2].sum() == 2**63 - 1


@pytest.mark.parametrize("body", [
    "51.5,-0.1", "x,y,z", "1,2,-5", "1,2,0\n4,5,0", "nan,nan,500", "95.0,8.6,1000", "1,-180.5,5",
    "1,2,100000000000000000000", "1,2,5000000000000000000\n3,4,5000000000000000000",
])
def test_load_population_rejects_bad_files(tmp_path, body):
    f = tmp_path / "pop.txt"
    f.write_text(body + "\n")
    with pytest.raises(WorkloadError):
        load_population(f)


def test_single_cell_goes_to_nearest_node(star4):
    totals = assign_population(star4, cells_of((1.01, 0.0, 500)))
    assert totals[1] == 500
    assert totals.sum() == 500


def test_equidistant_cell_ties_to_lowest_node_id():
    g = build_graph(
        [("a", 0.0, -1.0), ("b", 0.0, 1.0)],
        [(0, 1)],
    )
    totals = assign_population(g, cells_of((0.0, 0.0, 7)))
    assert totals[0] == 7 and totals[1] == 0


def test_empty_grid_rejected(tmp_path):
    """A file of no records is rejected where it is read, as a grid of
    zero counts is, so assignment never sees an empty grid."""
    f = tmp_path / "pop.txt"
    f.write_text("# no records\n\n")
    with pytest.raises(WorkloadError, match="pop.txt: population grid holds no people$"):
        load_population(f)


def test_geant_assignment_matches_linear_scan_oracle(geant, geant_population):
    from fogcast.data import bundled_population

    cells = load_population(bundled_population())
    expected = np.zeros(geant.n_nodes, dtype=np.int64)
    lat, lon = geant.lat.tolist(), geant.lon.tolist()
    for cell_lat, cell_lon, count in zip(*(column.tolist() for column in cells)):
        best = min(
            range(geant.n_nodes),
            key=lambda i: (haversine_oracle(cell_lat, cell_lon, lat[i], lon[i]), i),
        )
        expected[best] += count
    assert (geant_population == expected).all()
    assert geant_population.sum() == cells[2].sum()


def scan_nearest(graph, cell_lat, cell_lon):
    """The scalar linear scan: first strict minimum of great_circle_km in node order."""
    best, best_d = 0, math.inf
    for node, (lat, lon) in enumerate(zip(graph.lat.tolist(), graph.lon.tolist())):
        d = great_circle_km(cell_lat, cell_lon, lat, lon)
        if d < best_d:
            best, best_d = node, d
    return best


def scan_totals(graph, cells):
    totals = np.zeros(graph.n_nodes, dtype=np.int64)
    for lat, lon, count in zip(*(column.tolist() for column in cells)):
        totals[scan_nearest(graph, lat, lon)] += count
    return totals


def _chain(positions):
    return build_graph([(f"n{i}", lat, lon) for i, (lat, lon) in enumerate(positions)],
                       [(i - 1, i) for i in range(1, len(positions))])


def test_assignment_equals_scalar_scan_on_bundled_and_random_grids(geant):
    from fogcast.data import bundled_population

    cells = load_population(bundled_population())
    assert (assign_population(geant, cells) == scan_totals(geant, cells)).all()
    rng = np.random.default_rng(31)
    graph = _chain(list(zip(rng.uniform(-90, 90, 2000).tolist(),
                            rng.uniform(-180, 180, 2000).tolist())))
    cells = (rng.uniform(-90, 90, 300), rng.uniform(-180, 180, 300),
             rng.integers(1, 10**6, 300, dtype=np.int64))
    totals = assign_population(graph, cells)
    assert totals.dtype == np.int64
    assert (totals == scan_totals(graph, cells)).all()
    assert totals.sum() == cells[2].sum()
    # Harder inputs: nodes with duplicate coordinates, on both poles and on
    # longitude +-180; cells exactly on nodes, on the poles at any longitude,
    # on the antimeridian from either side and near the antipodes of nodes.
    nodes = list(zip(rng.uniform(-80, 80, 40).tolist(), rng.uniform(-179, 179, 40).tolist()))
    nodes += nodes[:5] + [(90.0, 0.0), (90.0, 45.0), (-90.0, -120.0), (-90.0, 120.0),
                          (10.0, 180.0), (10.0, -180.0), (-35.5, 180.0), (89.999, 180.0)]
    graph = _chain(nodes)
    lat, lon = (np.array(axis) for axis in zip(*nodes))
    near_antipodes = (-lat + rng.normal(0, 1e-6, len(lat)),
                      np.where(lon > 0, lon - 180, lon + 180) + rng.normal(0, 1e-6, len(lon)))
    cell_lat = np.concatenate([lat, [90.0, 90.0, -90.0, -90.0, 10.0, 10.0, -35.5, 0.0, 0.0],
                               np.clip(near_antipodes[0], -90, 90), -lat])
    cell_lon = np.concatenate([lon, [-77.0, 180.0, 0.0, 33.3, -180.0, 180.0, -180.0, 180.0,
                                     -180.0],
                               np.clip(near_antipodes[1], -180, 180),
                               np.where(lon > 0, lon - 180, lon + 180)])
    cells = (cell_lat, cell_lon, np.arange(1, len(cell_lat) + 1, dtype=np.int64))
    assert (assign_population(graph, cells) == scan_totals(graph, cells)).all()


def test_equidistant_and_ulp_close_nodes_resolve_as_the_scalar_scan():
    # Cell (lat, lon) between nodes (lat, lon - dx) and (lat, lon + dx): the two
    # distances are equal or some ulps apart, and numpy's order of the two
    # sometimes differs from great_circle_km's.
    rng = np.random.default_rng(32)
    lat, lon, dx = (rng.uniform(low, high, 20000) for low, high in ((30, 60), (-10, 30), (0.01, 2)))
    west = _great_circle_km(lat, lon, lat, lon - dx)
    east = _great_circle_km(lat, lon, lat, lon + dx)
    kinds = {"tie": [], "ulp": [], "flip": []}
    for i, (a, b) in enumerate(zip(west.tolist(), east.tolist())):
        w = great_circle_km(lat[i], lon[i], lat[i], lon[i] - dx[i])
        e = great_circle_km(lat[i], lon[i], lat[i], lon[i] + dx[i])
        if (a < b, a == b) != (w < e, w == e):
            kinds["flip"].append(i)
        elif w == e:
            kinds["tie"].append(i)
        elif abs(w - e) <= 4 * math.ulp(w):
            kinds["ulp"].append(i)
    assert all(kinds.values())
    for i in kinds["flip"] + kinds["tie"][:40] + kinds["ulp"][:40]:
        for pair in ((lon[i] - dx[i], lon[i] + dx[i]), (lon[i] + dx[i], lon[i] - dx[i])):
            graph = _chain([(lat[i], pair[0]), (lat[i], pair[1])])
            totals = assign_population(graph, cells_of((lat[i], lon[i], 1)))
            assert totals[scan_nearest(graph, float(lat[i]), float(lon[i]))] == 1
    # A node without usable coordinates (NaN) is skipped, as by the scan.
    graph = _chain([(math.nan, 0.0), (5.0, 5.0), (1.0, 1.0)])
    assert scan_nearest(graph, 0.0, 0.0) == 2
    assert assign_population(graph, cells_of((0.0, 0.0, 2))).tolist() == [0, 0, 2]
    # Exact ties among three or more nodes go to the lowest id.
    graph = _chain([(10.0, 5.0), (0.0, 1.0), (0.0, -1.0), (10.0, 5.0), (1.0, 0.0)])
    assert assign_population(graph, cells_of((0.0, 0.0, 3))).tolist() == [0, 3, 0, 0, 0]
    assert assign_population(graph, cells_of((10.0, 5.0, 3))).tolist() == [3, 0, 0, 0, 0]


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


# Catalogue sizes and Zipf exponents of the exactness tests: one item, a few,
# the default, and more items than guide buckets; flat to steep.
LAWS = list(product((1, 10, 1000, 70000), (0.0, 0.8, 1.5, 3.0)))


def fresh_law(n, alpha):
    """Probabilities, cdf and guide as a fresh, uncached computation makes them."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(alpha))
    probabilities = weights / weights.sum()
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    return probabilities, cdf, cdf.searchsorted(edges, side="right")


@pytest.mark.parametrize("n, alpha", LAWS)
def test_cached_catalogue_arrays_are_read_only_and_fresh(n, alpha):
    first = build_catalogue(n, alpha, (20e6, 40e6), seed=1)
    second = build_catalogue(n, alpha, (20e6, 40e6), seed=2)
    probabilities, cdf, guide = fresh_law(n, alpha)
    assert first.probabilities.tobytes() == probabilities.tobytes()
    assert first.cdf.tobytes() == cdf.tobytes()
    assert (first.guide == guide).all()
    for name in ("probabilities", "cdf", "guide"):
        assert getattr(second, name) is getattr(first, name)
    for array in (first.probabilities, first.cdf, first.guide, first.bitrates):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("n, alpha", LAWS)
def test_guide_search_equals_searchsorted_at_every_edge(n, alpha):
    cat = build_catalogue(n, alpha, (20e6,), seed=1)
    cdf = cat.cdf
    below, above = np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)
    edges = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
    draws = np.concatenate([cdf, below, above, edges, np.nextafter(edges, 1.0),
                            [np.nextafter(1.0, 0.0)]])
    draws = draws[(draws >= 0) & (draws < 1)]
    expected = cdf.searchsorted(draws, side="right")
    assert (_guide_search(cdf, cat.guide, draws) == expected).all()
    # Shuffled draws take the same answers.
    order = np.random.default_rng(n).permutation(len(draws))
    assert (_guide_search(cdf, cat.guide, draws[order]) == expected[order]).all()


# --- demand ----------------------------------------------------------------

def offered_loads(demand, catalogue) -> np.ndarray:
    """Bitrate of each request: its users times its item's bitrate."""
    return demand.counts * catalogue.bitrates[demand.items - 1]


def test_single_node_single_item_demand_is_exact():
    cat = build_catalogue(1, 0.8, (20e6,), seed=1)
    demand = draw_demand(np.array([0, 10, 0]), cat, 70e9, seed=1)
    assert demand.requests == {(1, 1): 3500}
    assert offered_loads(demand, cat).sum() == pytest.approx(70e9)


def test_offered_bitrate_consistent_with_requests(geant_population):
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=3)
    demand = draw_demand(geant_population, cat, 70e9, seed=3)
    recomputed = sum(count * cat.bitrates[item - 1]
                     for (_, item), count in demand.requests.items())
    assert offered_loads(demand, cat).sum() == pytest.approx(recomputed)
    assert demand.total_requests == sum(demand.requests.values())


def per_node_demand(populations, catalogue, target_bitrate, seed):
    """Reference draw: one ``rng.choice`` per node, counted item by item."""
    requests: dict[tuple[int, int], int] = {}
    offered = 0.0
    budget = target_bitrate / catalogue.mean_bitrate
    weights = np.asarray(populations).astype(np.float64)
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
            offered += float(count) * float(catalogue.bitrates[idx])
    return requests, offered


def test_demand_equals_per_node_reference(geant_population):
    # Sparse populations leave nodes with zero people, and tiny ones round
    # to zero users.
    sparse = geant_population.copy()
    sparse[::3] = 0
    sparse[1::7] = 1
    # Bitrates that are not integers make the offered sum depend on its order.
    bitrates = (math.pi * 1e7, math.e * 1e7, 0.3e7)
    cases = [(300 + 50 * seed, 0.8, seed) for seed in range(5)]
    cases += [(n, alpha, 7 + at) for at, (n, alpha) in enumerate(LAWS)]
    for populations in (geant_population, sparse):
        for n, alpha, seed in cases:
            cat = build_catalogue(n, alpha, bitrates, seed=seed)
            demand = draw_demand(populations, cat, 70e9, seed=seed)
            requests, offered = per_node_demand(populations, cat, 70e9, seed)
            assert list(demand.requests.items()) == list(requests.items())
            # Summed left to right in request order, as the reference sums.
            assert float(np.cumsum(offered_loads(demand, cat))[-1]) == offered
            assert demand.total_requests == sum(requests.values())
            # The clients are the distinct request nodes, ascending, and
            # client_of maps each request to its node's client.
            assert demand.clients.tolist() == sorted({node for node, _ in requests})
            assert demand.clients[demand.client_of].tolist() == [node for node, _ in requests]
            assert not (demand.clients.flags.writeable or demand.client_of.flags.writeable)
    assert (sparse == 0).any()

def test_demand_deterministic_per_seed(geant_population):
    cat = build_catalogue(100, 0.8, (20e6, 40e6), seed=5)
    a = draw_demand(geant_population, cat, 70e9, seed=11)
    b = draw_demand(geant_population, cat, 70e9, seed=11)
    assert a.requests == b.requests


def test_mean_offered_bitrate_calibrated_to_target(geant_population):
    cat = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed=1)
    offered = [
        offered_loads(draw_demand(geant_population, cat, 70e9, seed=s), cat).sum()
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
        demand = draw_demand(populations, cat, target / 4, seed=seed)
        for (_, item), count in demand.requests.items():
            counts[item - 1] += count
    total = counts.sum()
    assert total == pytest.approx(100_000, rel=0.01)
    expected = cat.probabilities * total
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < chi_square_critical(cat.n - 1, z=2.3263)  # 1% significance
