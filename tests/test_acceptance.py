"""Acceptance suite: every exit criterion at its stated tolerance.

Headline backhaul runs use the delivery-capacity convention (fallback pull
traffic excluded, ``count_fallback=False``) on the bundled fixture with a
pinned base seed; one line per criterion is printed with the measured
values. The grid's per-trial backhaul is also compared with its golden,
``tests/data/golden/acceptance/backhaul.csv``.

Criteria 6 and 9 run the kernels trials run. Criterion 6 resolves every
request of its trials with ``resolve_nodes``, on each trial's shared draws
and pick orders, once at the client and once through its nearest LDNS.
Criterion 9 delivers its Bloom trees with ``false_positive_arcs``: each
tree and its false-positive arcs must make up exactly what the scalar
``forward`` over ``deliver`` carries. Its exact-scheme and false-positive
rate checks stay with the scalar oracles, since trials charge exact trees
directly. Each kernel is tied to its oracle elsewhere:
``test_per_node_kernel_matches_scalar_resolvers`` (tests/test_experiment.py)
and ``test_group_kernel_matches_scalar_delivery`` (tests/test_forwarding.py).
"""
from __future__ import annotations

import time
from itertools import product

import numpy as np
import pytest

from conftest import random_connected_graph, simulated_group_rate
from fogcast.data import bundled_topology
from fogcast.experiment import (
    BACKHAUL_HEADER,
    ScenarioConfig,
    _load_context,
    _pick_order,
    _trial_draws,
    backhaul,
    row_label,
    run_sweep,
    run_trial,
    trial_seed,
)
from fogcast.forwarding import BloomScheme, false_positive_arcs, fpr_theoretical, label_arc
from fogcast.placement import place_all
from fogcast.service_router import fog_cache_items, group_rate, resolve_nodes
from fogcast.topology import load_topology
from oracles import ExactScheme, all_pairs, build_tree, deliver, encode_tree, forward
from test_golden import GOLDEN, check_text

BASE_SEED = 3
TRIALS = 50
TARGET = 70e9
CATCHMENTS = (0.1, 1.0, 10.0)


def pooled_hops(outcomes) -> np.ndarray:
    """The trials' hop histograms summed: users per hop count."""
    histograms = [o.unicast.hop_counts for o in outcomes]
    pooled = np.zeros(max(len(h) for h in histograms), dtype=np.int64)
    for h in histograms:
        pooled[:len(h)] += h
    return pooled


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
                "hops": pooled_hops(outcomes),
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
    two_points = pooled_hops([run_trial(config, i) for i in range(TRIALS)])
    sixteen_points = grid_run["results"][(8, 8)]["hops"]
    local2 = 100 * two_points[0] / two_points.sum()
    le2_2 = 100 * two_points[:3].sum() / two_points.sum()
    local16 = 100 * sixteen_points[0] / sixteen_points.sum()
    le2_16 = 100 * sixteen_points[:3].sum() / sixteen_points.sum()
    max2, max16 = (int(np.flatnonzero(h)[-1]) for h in (two_points, sixteen_points))
    ok = (2 <= local2 <= 18) and le2_2 >= 65 and local16 >= 30 and le2_16 >= 90 and max2 > max16
    report(5, ok, f"2 points: {local2:.1f}% local (10+-8), {le2_2:.0f}% <=2 hops (>=65); "
                  f"16 points: {local16:.0f}% local (>=30), {le2_16:.0f}% <=2 hops (>=90); "
                  f"max {max2} -> {max16}")


def test_criterion_6_baseline_never_beats_native_paths():
    """Every request of a dns trial, resolved by the trials' kernel with and
    without its LDNS points, on the trial's shared draws and placement."""
    configs = [dns_config(k, k, ldns_k) for k in (2, 4) for ldns_k in (2, 8)]
    checked = shorter = longer = 0
    # Trial-major, as sweeps run: each trial index draws its workload once.
    for trial_index, config in product(range(TRIALS), configs):
        inputs = (config.topology_path, config.population_path)
        seed = trial_seed(config.base_seed, trial_index)
        placement = place_all(config.fog_k, config.cloud_k, config.ldns_k,
                              lambda role: _pick_order(seed, *inputs, config.mode, role))
        hops = _load_context(*inputs)[1].table(placement.fog + placement.cloud + placement.ldns)
        fog_items = fog_cache_items(config.fog_cache_fraction, config.n_items)
        _, demand, _ = _trial_draws(seed, *inputs, config.n_items, config.alpha,
                                    config.bitrates, config.target_bitrate, fog_items)
        clients, client_of = demand.clients, demand.client_of
        client_hops = []
        for resolvers in ((), placement.ldns):
            point, _ = resolve_nodes(hops, clients, placement.fog, placement.cloud, resolvers)
            client_hops.append(hops.dist[hops.slot[point], clients][client_of])
        native, baseline = client_hops
        checked += len(client_of)
        shorter += int((baseline < native).sum())
        longer += int((baseline > native).sum())
    ok = shorter == 0 and longer > 0
    report(6, ok, f"{checked} matched requests across {len(configs)} configs x {TRIALS} "
                  f"trials, {shorter} shorter baseline paths, {longer} strictly longer (> 0)")


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
    kernel_failures = 0
    delivered = 0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        hops = all_pairs(g)
        root = int(rng.integers(n))
        leaves = {int(x) for x in
                  rng.choice(n, size=int(rng.integers(1, min(6, n))), replace=False)}
        tree = build_tree(hops, root, leaves)
        tree_nodes = {root} | {int(g.dst[a]) for a in tree.arcs}
        if deliver(encode_tree(tree, ExactScheme(width=g.n_arcs)), root, g) != tree_nodes:
            exact_failures += 1
        if not deliver(encode_tree(tree, BloomScheme()), root, g) >= tree_nodes:
            bloom_failures += 1
        if tree.arcs:
            # As a Bloom trial delivers a group: one root, its tree arcs sorted.
            # The tree and the kernel's false positives make up what the
            # scalar plane carries, and do not meet.
            arcs = np.array(sorted(tree.arcs), dtype=np.intp)
            _, extra = false_positive_arcs(g, BloomScheme(), np.full_like(arcs, root),
                                           np.zeros_like(arcs), arcs)
            extra = set(extra.tolist())
            fid = encode_tree(tree, BloomScheme())
            carried = set().union(*(forward(fid, node, g) for node in deliver(fid, root, g)))
            delivered += 1
            kernel_failures += bool(extra & tree.arcs) or tree.arcs | extra != carried

    # measured Bloom FPR on the 500-arc universe, against the formula
    m, k, inserted = 256, 4, 20
    rates = []
    for hash_seed in range(20):
        scheme = BloomScheme(m=m, k=k, hash_seed=hash_seed)
        bits = 0
        for arc in range(inserted):
            for p in label_arc(scheme, arc):
                bits |= 1 << p
        hits = sum(
            all(bits >> p & 1 for p in label_arc(scheme, arc))
            for arc in range(inserted, 500)
        )
        rates.append(hits / (500 - inserted))
    measured = float(np.mean(rates))
    predicted = fpr_theoretical(m, k, inserted)
    fpr_ok = predicted / 2 <= measured <= predicted * 2

    ok = exact_failures == bloom_failures == kernel_failures == 0 and delivered > 0 and fpr_ok
    report(9, ok, f"200 trees: {exact_failures} exact mismatches, "
                  f"{bloom_failures} bloom non-supersets; {delivered} trees with arcs "
                  f"through false_positive_arcs, {kernel_failures} mismatches; measured FPR "
                  f"{measured:.4f} vs formula {predicted:.4f} (within 2x)")


@pytest.mark.parametrize("sweep", ["icn", "bloom_and_dns", "chain"])
def test_criterion_10_byte_identical_sweeps(sweep, chain_setup, tmp_path):
    """Two sequential runs and one with two jobs write the same bytes: icn
    with catchment, Bloom beside the DNS baseline, and the four-node chain."""
    top, pop = chain_setup
    configs = {
        "icn": [ScenarioConfig(arch="icn", fog_k=k, cloud_k=2, catchment=(0.1, 1.0),
                               trials=3, base_seed=BASE_SEED) for k in (2, 4)],
        "bloom_and_dns": [
            ScenarioConfig(arch="icn", fog_k=k, cloud_k=2, catchment=(0.1, 1.0),
                           scheme="bloom", trials=3, base_seed=BASE_SEED) for k in (2, 4)
        ] + [
            ScenarioConfig(arch="dns", fog_k=k, cloud_k=2, ldns_k=2, trials=3,
                           base_seed=BASE_SEED) for k in (2, 4)
        ],
        "chain": [ScenarioConfig(arch="icn", fog_k=k, cloud_k=1, catchment=(0.1,),
                                 topology_path=top, population_path=pop, n_items=3,
                                 target_bitrate=2e9, trials=3) for k in (1, 2)],
    }[sweep]
    for label, jobs in (("seq1", 1), ("seq2", 1), ("par", 2)):
        run_sweep(configs, out_dir=tmp_path / label, jobs=jobs)
    names = ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt")
    identical = all(
        (tmp_path / "seq1" / name).read_bytes()
        == (tmp_path / "seq2" / name).read_bytes()
        == (tmp_path / "par" / name).read_bytes()
        for name in names
    )
    report(10, identical, f"{sweep}: repeated and parallel sweeps byte-identical across "
                          f"{len(names)} output files")
    # The manifest names each config's scheme: the Bloom sweep ran Bloom.
    manifest = (tmp_path / "seq1" / "manifest.txt").read_text()
    assert all(f"scheme = {config.scheme}" in manifest for config in configs)


def test_acceptance_grid_matches_golden(grid_run):
    """The grid's backhaul, row for row as ``run_sweep`` writes it, equals
    the golden written by ``python tests/test_golden.py``."""
    lines = [BACKHAUL_HEADER]
    for (fog_k, cloud_k), cell in grid_run["results"].items():
        prefix = row_label(icn_config(fog_k, cloud_k))
        for interval, values in [(0.0, cell["unicast"]), *cell["catchment"].items()]:
            lines += [f"{prefix},{interval!r},{trial},{value!r}"
                      for trial, value in enumerate(values)]
    check_text("\n".join(lines) + "\n", GOLDEN / "acceptance" / "backhaul.csv")
