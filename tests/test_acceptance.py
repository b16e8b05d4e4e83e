"""Acceptance suite: every exit criterion at its stated tolerance.

Headline backhaul runs use the delivery-capacity convention (fallback pull
traffic excluded, ``count_fallback=False``) on the bundled fixture with a
pinned base seed; one line per criterion is printed with the measured
values.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import random_connected_graph, simulated_group_rate
from fogcast.data import bundled_population, bundled_topology
from fogcast.dns_baseline import DnsConfig, resolve_request_dns
from fogcast.experiment import (
    ScenarioConfig,
    _SALT_CATALOGUE,
    _SALT_DEMAND,
    backhaul,
    run_sweep,
    run_trial,
    trial_seed,
)
from fogcast.forwarding import BloomScheme, ExactScheme, deliver, encode_tree, fpr_theoretical, label_arc
from fogcast.placement import place_all
from fogcast.rendezvous import build_tree
from fogcast.service_router import build_rendezvous, group_rate, make_profiles, resolve_request
from fogcast.topology import HopRows, all_pairs, load_topology
from fogcast.workload import assign_population, build_catalogue, draw_demand, load_population

BASE_SEED = 3
TRIALS = 50
TARGET = 70e9
CATCHMENTS = (0.1, 1.0, 10.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def icn_config(fog_k: int, cloud_k: int, catchment=()) -> ScenarioConfig:
    return ScenarioConfig(
        arch="icn", fog_k=fog_k, cloud_k=cloud_k, mode="pop",
        catchment=tuple(catchment), trials=TRIALS, base_seed=BASE_SEED,
        count_fallback=False,
    )


def dns_config(fog_k: int, cloud_k: int, ldns_k: int) -> ScenarioConfig:
    return ScenarioConfig(
        arch="dns", fog_k=fog_k, cloud_k=cloud_k, ldns_k=ldns_k, mode="pop",
        trials=TRIALS, base_seed=BASE_SEED, count_fallback=False,
    )


@pytest.fixture(scope="module")
def grid_run():
    """Full fog x cloud grid, 50 trials each, with catchment variants."""
    start = time.perf_counter()
    results = {}
    for fog_k in (2, 4, 6, 8):
        for cloud_k in (2, 4, 6, 8):
            config = icn_config(fog_k, cloud_k, CATCHMENTS)
            outcomes = [run_trial(config, i) for i in range(TRIALS)]
            results[(fog_k, cloud_k)] = {
                "unicast": [backhaul(o.unicast) for o in outcomes],
                "catchment": {
                    t: [backhaul(o.by_catchment[t]) for o in outcomes]
                    for t in CATCHMENTS
                },
                "samples": np.concatenate([o.unicast.path_samples for o in outcomes]),
            }
    return {"results": results, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def dns_runs():
    configs = {
        (2, 2, 2): dns_config(2, 2, 2),
        (2, 2, 8): dns_config(2, 2, 8),
        (2, 8, 8): dns_config(2, 8, 8),
    }
    means = {}
    for key, config in configs.items():
        means[key] = float(np.mean([
            backhaul(run_trial(config, i).unicast) for i in range(TRIALS)
        ]))
    return means


def test_criterion_1_topology_dimensions():
    start = time.perf_counter()
    graph = load_topology(bundled_topology())
    elapsed = time.perf_counter() - start
    ok = graph.n_nodes == 37 and graph.n_arcs == 116 and elapsed < 1.0
    report(1, ok, f"{graph.n_nodes} nodes, {graph.n_arcs} arcs in {elapsed * 1e3:.0f} ms")


def test_criterion_2_service_point_scaling(grid_run):
    results = grid_run["results"]
    base = np.mean(results[(2, 2)]["unicast"])
    fog_red = 100 * (1 - np.mean(results[(8, 2)]["unicast"]) / base)
    cloud_red = 100 * (1 - np.mean(results[(2, 8)]["unicast"]) / base)
    elapsed = grid_run["elapsed"]
    ok = (28 <= fog_red <= 48) and (40 <= cloud_red <= 60) and elapsed < 120
    report(2, ok, f"fog 2->8 cuts {fog_red:.1f}% (38+-10), cloud 2->8 cuts "
                  f"{cloud_red:.1f}% (50+-10); grid took {elapsed:.0f} s (< 120)")


def test_criterion_3_backhaul_brackets_demand(grid_run):
    means = [np.mean(cell["unicast"]) for cell in grid_run["results"].values()]
    low, high = min(means), max(means)
    ok = low >= 0.5 * TARGET and high <= 2.5 * TARGET
    report(3, ok, f"grid means span {low / 1e9:.1f}-{high / 1e9:.1f} Gb/s "
                  f"(need 35-175)")


def test_criterion_4_dns_baseline_scaling(dns_runs):
    ldns_red = 100 * (1 - dns_runs[(2, 2, 8)] / dns_runs[(2, 2, 2)])
    svc_red = 100 * (1 - dns_runs[(2, 8, 8)] / dns_runs[(2, 2, 8)])
    folds = [v / TARGET for v in dns_runs.values()]
    ok = (15 <= ldns_red <= 35) and (8 <= svc_red <= 28) \
        and min(folds) >= 1.0 and max(folds) <= 2.0
    report(4, ok, f"LDNS 2->8 cuts {ldns_red:.1f}% (25+-10), service 2->8 cuts "
                  f"{svc_red:.1f}% (18+-10), backhaul {min(folds):.2f}-"
                  f"{max(folds):.2f}x demand (need 1-2x)")


def test_criterion_5_path_length_ecdf(grid_run):
    config = icn_config(1, 1)
    two_points = np.concatenate([
        run_trial(config, i).unicast.path_samples for i in range(TRIALS)
    ])
    sixteen_points = grid_run["results"][(8, 8)]["samples"]
    local2 = 100 * float((two_points == 0).mean())
    le2_2 = 100 * float((two_points <= 2).mean())
    local16 = 100 * float((sixteen_points == 0).mean())
    le2_16 = 100 * float((sixteen_points <= 2).mean())
    shrunk = int(two_points.max()) > int(sixteen_points.max())
    ok = (2 <= local2 <= 18) and le2_2 >= 65 and local16 >= 30 and le2_16 >= 90 and shrunk
    report(5, ok, f"2 points: {local2:.1f}% local (10+-8), {le2_2:.0f}% <=2 hops (>=65); "
                  f"16 points: {local16:.0f}% local (>=30), {le2_16:.0f}% <=2 hops (>=90); "
                  f"max {int(two_points.max())} -> {int(sixteen_points.max())}")


def _matched_resolutions(fog_k: int, cloud_k: int, ldns_k: int, trial_index: int):
    """Native and baseline hop counts for identical placement and demand."""
    graph = load_topology(bundled_topology())
    hops = all_pairs(graph)
    populations = assign_population(graph, load_population(bundled_population()))
    seed = trial_seed(BASE_SEED, trial_index)
    placement = place_all(
        HopRows(graph), populations,
        {"fog": ("pop", fog_k), "cloud": ("pop", cloud_k), "ldns": ("pop", ldns_k)},
        seed,
    )
    catalogue = build_catalogue(1000, 0.8, (20e6, 40e6, 60e6), seed ^ _SALT_CATALOGUE)
    demand = draw_demand(populations, catalogue, 0.4, TARGET, seed ^ _SALT_DEMAND)
    profiles = make_profiles(placement.fog, placement.cloud, catalogue)
    table = build_rendezvous(profiles)
    config = DnsConfig(
        ldns=placement.ldns,
        service_points=tuple(sorted(set(placement.fog) | set(placement.cloud))),
        profiles=profiles,
    )
    pairs = []
    for (node, item) in demand.requests:
        native = resolve_request(node, item, profiles, table, hops, catalogue)
        baseline = resolve_request_dns(node, item, config, hops, catalogue.bitrate(item))
        pairs.append((native.client_path_hops, baseline.client_path_hops))
    return pairs


def test_criterion_6_baseline_never_beats_native_paths():
    checked = 0
    violations = 0
    for fog_k, cloud_k in ((2, 2), (4, 4)):
        for ldns_k in (2, 8):
            for trial_index in range(TRIALS):
                for native, baseline in _matched_resolutions(
                        fog_k, cloud_k, ldns_k, trial_index):
                    checked += 1
                    if baseline < native:
                        violations += 1
    ok = violations == 0 and checked > 0
    report(6, ok, f"{checked} matched requests across 4 configs x {TRIALS} trials, "
                  f"{violations} shorter baseline paths")


def test_criterion_7_catchment_monotonicity(grid_run):
    worst = 0.0
    trials_checked = 0
    for cell in grid_run["results"].values():
        uni = cell["unicast"]
        for i in range(len(uni)):
            b01 = cell["catchment"][0.1][i]
            b1 = cell["catchment"][1.0][i]
            b10 = cell["catchment"][10.0][i]
            trials_checked += 1
            worst = max(worst, b10 - b1, b1 - b01, b01 - uni[i])
    ok = worst <= 1e-6
    report(7, ok, f"T=10 <= T=1 <= T=0.1 <= unicast in all {trials_checked} trials "
                  f"(worst violation {worst:.2e} b/s)")


def test_criterion_8_aggregation_model_validation():
    horizon = 1_000_000.0
    worst = 0.0
    for rate in (0.1, 1.0, 10.0):
        for interval in (0.1, 1.0, 10.0):
            simulated = simulated_group_rate(rate, interval, horizon,
                                             seed=int(rate * 1000 + interval))
            analytic = group_rate(rate, interval)
            worst = max(worst, abs(simulated - analytic) / analytic)
    ok = worst <= 0.02
    report(8, ok, f"analytic vs windowing oracle over {horizon:.0e} s: "
                  f"worst relative error {100 * worst:.2f}% (<= 2%)")


def test_criterion_9_forwarding_exactness():
    rng = np.random.default_rng(11)
    exact_failures = 0
    bloom_failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        hops = all_pairs(g)
        root = int(rng.integers(n))
        leaves = {int(x) for x in
                  rng.choice(n, size=int(rng.integers(1, min(6, n))), replace=False)}
        tree = build_tree(hops, root, leaves)
        tree_nodes = {root} | {g.arcs[a].dst for a in tree.arcs}
        if deliver(encode_tree(tree, ExactScheme(width=g.n_arcs)), root, g) != tree_nodes:
            exact_failures += 1
        if not deliver(encode_tree(tree, BloomScheme()), root, g) >= tree_nodes:
            bloom_failures += 1

    # measured Bloom FPR on the 500-arc universe, against the formula
    m, k, inserted = 256, 4, 20
    rates = []
    for hash_seed in range(20):
        scheme = BloomScheme(m=m, k=k, hash_seed=hash_seed)
        bits = 0
        for arc in range(inserted):
            for p in label_arc(scheme, arc).positions:
                bits |= 1 << p
        hits = sum(
            all(bits >> p & 1 for p in label_arc(scheme, arc).positions)
            for arc in range(inserted, 500)
        )
        rates.append(hits / (500 - inserted))
    measured = float(np.mean(rates))
    predicted = fpr_theoretical(m, k, inserted)
    fpr_ok = predicted / 2 <= measured <= predicted * 2

    ok = exact_failures == 0 and bloom_failures == 0 and fpr_ok
    report(9, ok, f"200 trees: {exact_failures} exact mismatches, "
                  f"{bloom_failures} bloom non-supersets; measured FPR "
                  f"{measured:.4f} vs formula {predicted:.4f} (within 2x)")


def test_criterion_10_byte_identical_sweeps(tmp_path):
    configs = [
        ScenarioConfig(arch="icn", fog_k=k, cloud_k=2, catchment=(0.1, 1.0),
                       trials=3, base_seed=BASE_SEED)
        for k in (2, 4)
    ]
    for label, jobs in (("seq1", 1), ("seq2", 1), ("par", 2)):
        run_sweep(configs, out_dir=tmp_path / label, jobs=jobs)
    names = ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt")
    identical = all(
        (tmp_path / "seq1" / name).read_bytes()
        == (tmp_path / "seq2" / name).read_bytes()
        == (tmp_path / "par" / name).read_bytes()
        for name in names
    )
    report(10, identical, "repeated and parallel sweeps byte-identical across "
                          f"{len(names)} output files")


def test_bloom_and_dns_sweeps_byte_identical(tmp_path):
    """Criterion 10's byte-identity for the Bloom scheme and the DNS baseline."""
    configs = [
        ScenarioConfig(arch="icn", fog_k=k, cloud_k=2, catchment=(0.1, 1.0),
                       scheme="bloom", trials=3, base_seed=BASE_SEED)
        for k in (2, 4)
    ] + [
        ScenarioConfig(arch="dns", fog_k=k, cloud_k=2, ldns_k=2, trials=3,
                       base_seed=BASE_SEED)
        for k in (2, 4)
    ]
    names = ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt")
    for label, jobs in (("seq", 1), ("par", 2)):
        run_sweep(configs, out_dir=tmp_path / label, jobs=jobs)
    for name in names:
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
    assert "bloom" in (tmp_path / "seq" / "manifest.txt").read_text()
