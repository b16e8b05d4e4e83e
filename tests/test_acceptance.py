"""Acceptance suite: every exit criterion at its stated tolerance.

Headline backhaul runs use the delivery-capacity convention (fallback pull
traffic excluded, ``count_fallback=False``) on the bundled fixture with a
pinned base seed; one line per criterion is printed with the measured
values. Criteria 2-5, 7 and 11 read what ``run_sweep`` writes or returns; the
acceptance grid, ``test_golden.ACCEPTANCE``, is swept once, and its three
CSVs are also compared with their goldens, so the published means and
pooled path lengths are pinned where the paper's results are checked.

Criteria 6 and 9 run the kernels trials run. Criterion 6 resolves every
request of its trials with ``resolve_nodes``, on each trial's shared draws,
picks and nearest-point rows, once at the client and once through its
nearest LDNS.
Criterion 9 delivers its Bloom trees with ``false_positive_arcs``: each
tree and its false-positive arcs must make up exactly what the scalar
``forward`` over ``deliver`` carries. Its exact-scheme and false-positive
rate checks stay with the scalar oracles, since trials charge exact trees
directly. Each kernel is tied to its oracle elsewhere:
``test_per_node_kernel_matches_scalar_resolvers`` (tests/test_experiment.py)
and ``test_group_kernel_matches_scalar_delivery`` (tests/test_forwarding.py).
"""
from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph, simulated_group_rate
from fogcast.data import bundled_topology
from fogcast.experiment import (
    ScenarioConfig,
    _load_context,
    _trial_index,
    load_grid,
    run_sweep,
    trial_seed,
)
from fogcast.forwarding import BloomScheme, false_positive_arcs, label_arc
from fogcast.service_router import group_rate, resolve_nodes
from fogcast.topology import hop_table, load_topology
from oracles import (ExactScheme, all_pairs, build_tree, deliver, encode_tree, forward,
                     fpr_theoretical)
import test_golden
from test_golden import check_golden

BASE_SEED = 3
TRIALS = 50
TARGET = 70e9


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dns_config(fog_k: int, cloud_k: int, ldns_k: int) -> ScenarioConfig:
    return ScenarioConfig(
        arch="dns", fog_k=fog_k, cloud_k=cloud_k, ldns_k=ldns_k, mode="pop",
        trials=TRIALS, base_seed=BASE_SEED, count_fallback=False,
    )


def read_sweep(out: Path) -> dict:
    """What a sweep wrote to ``out``: per file and (fog_k, cloud_k), the last
    column grouped by the first past ``mode``, so ``backhaul`` holds each
    interval's per-trial values and ``pathlen`` each hop count's fraction."""
    written: dict = {"backhaul": {}, "pathlen": {}}
    for name, table in written.items():
        for line in (out / f"{name}.csv").read_text().splitlines()[1:]:
            _, fog_k, cloud_k, _, _, first, *_, last = line.split(",")
            cell = table.setdefault((int(fog_k), int(cloud_k)), {})
            cell.setdefault(float(first), []).append(float(last))
    return written


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """The acceptance grid, swept as ``fogcast sweep`` runs it: trial-major, with shared draws."""
    out = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    test_golden.sweep("acceptance", out)
    return {"out": out, "elapsed": time.perf_counter() - start, **read_sweep(out)}


@pytest.fixture(scope="module")
def dns_runs():
    """Mean unicast backhaul of three baseline configs, from one sweep."""
    keys = [(2, 2, 2), (2, 2, 8), (2, 8, 8)]
    results = run_sweep([dns_config(*key) for key in keys])
    return {key: result.mean_backhaul[0.0] for key, result in zip(keys, results)}


def test_criterion_1_topology_dimensions():
    start = time.perf_counter()
    graph = load_topology(bundled_topology())
    elapsed = time.perf_counter() - start
    ok = graph.n_nodes == 37 and graph.n_arcs == 116 and elapsed < 1.0
    report(1, ok, f"{graph.n_nodes} nodes, {graph.n_arcs} arcs in {elapsed * 1e3:.0f} ms")


def test_criterion_2_service_point_scaling(grid_run):
    means = {key: np.mean(cell[0.0]) for key, cell in grid_run["backhaul"].items()}
    fog_red = 100 * (1 - means[(8, 2)] / means[(2, 2)])
    cloud_red = 100 * (1 - means[(2, 8)] / means[(2, 2)])
    elapsed = grid_run["elapsed"]
    ok = (28 <= fog_red <= 48) and (40 <= cloud_red <= 60) and elapsed < 120
    report(2, ok, f"fog 2->8 cuts {fog_red:.1f}% (38+-10), cloud 2->8 cuts "
                  f"{cloud_red:.1f}% (50+-10); grid took {elapsed:.2f} s (< 120)")


def test_criterion_3_backhaul_brackets_demand(grid_run):
    means = [np.mean(cell[0.0]) for cell in grid_run["backhaul"].values()]
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


def path_shares(ecdf: dict) -> tuple[float, float, int]:
    """A written ECDF's percent of users 0 and at most 2 hops from their
    service point, and its longest path."""
    steps = [(int(hops), fraction) for hops, (fraction,) in ecdf.items()]
    local = 100 * steps[0][1] if steps[0][0] == 0 else 0.0
    within_two = 100 * next((f for hops, f in reversed(steps) if hops <= 2), 0.0)
    return local, within_two, steps[-1][0]


def test_criterion_5_path_length_ecdf(grid_run, tmp_path):
    # Two service points: the grid's config at fog 1, cloud 1, swept alone.
    grid_config = load_grid(grid_run["out"] / "grid.cfg")[0]
    run_sweep([dataclasses.replace(grid_config, fog_k=1, cloud_k=1)], out_dir=tmp_path)
    local2, le2_2, max2 = path_shares(read_sweep(tmp_path)["pathlen"][(1, 1)])
    local16, le2_16, max16 = path_shares(grid_run["pathlen"][(8, 8)])
    ok = (2 <= local2 <= 18) and le2_2 >= 65 and local16 >= 30 and le2_16 >= 90 and max2 > max16
    report(5, ok, f"2 points: {local2:.1f}% local (10+-8), {le2_2:.0f}% <=2 hops (>=65); "
                  f"16 points: {local16:.0f}% local (>=30), {le2_16:.0f}% <=2 hops (>=90); "
                  f"max {max2} -> {max16}")


def test_criterion_6_baseline_never_beats_native_paths():
    """Every request of a dns trial, resolved by the trials' kernel with and
    without its LDNS points, on the trial's shared draws and placement."""
    configs = [dns_config(k, k, ldns_k) for k in (2, 4) for ldns_k in (2, 8)]
    context = _load_context(configs[0].topology_path, configs[0].population_path)
    checked = shorter = longer = 0
    # Trial-major, as sweeps run: each trial index draws its workload once.
    for trial_index in range(TRIALS):
        picks, row, draws = _trial_index(context, trial_seed(BASE_SEED, trial_index))
        for config in configs:
            roles = [(config.mode, role, k) for role, k in (("fog", config.fog_k),
                                                            ("cloud", config.cloud_k),
                                                            ("ldns", config.ldns_k))]
            hops = hop_table(context.graph, [point for role in roles for point in picks(*role)[0]])
            fog, cloud, ldns = (row(*role, hops) for role in roles)
            _, demand, *_ = draws(config.n_items, config.alpha, config.bitrates,
                                  config.target_bitrate)
            clients, client_of = demand.clients, demand.client_of
            client_hops = []
            for resolvers in (None, ldns):
                point = resolve_nodes(clients, fog, cloud, resolvers)
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
    for cell in grid_run["backhaul"].values():
        for uni, b01, b1, b10 in zip(cell[0.0], cell[0.1], cell[1.0], cell[10.0]):
            trials_checked += 1
            worst = max(worst, b10 - b1, b1 - b01, b01 - uni)
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


def test_criterion_11_dns_never_beats_icn_backhaul(grid_run, tmp_path):
    """The paper's headline as a paired comparison. A trial's draws and
    service points depend on the base seed and trial index alone, so trial i
    of each ``dns`` config below, on an acceptance cell's fog and cloud
    counts with LDNS 2, 4 or 8, pairs with trial i of that cell's ``icn``
    config in ``grid_run`` (common random numbers). With fallback not
    counted, the ``dns`` unicast backhaul is at least ``icn``'s in every
    pair: no ``dns`` client path is shorter (criterion 6), and unicast is
    the bitrate times the users' summed hops. The paper gives no size for
    the gap, so its spread is reported and not bounded."""
    cells = list(grid_run["backhaul"])
    run_sweep([dns_config(fog, cloud, ldns) for fog, cloud in cells for ldns in (2, 4, 8)],
              out_dir=tmp_path)
    dns: dict = {}
    for line in (tmp_path / "backhaul.csv").read_text().splitlines()[1:]:
        _, fog, cloud, ldns, _, _, _, value = line.split(",")
        dns.setdefault((int(fog), int(cloud), int(ldns)), []).append(float(value))
    ratios, sd_ratios, below = [], [], 0
    for (fog, cloud, ldns), values in dns.items():
        icn, values = np.array(grid_run["backhaul"][fog, cloud][0.0]), np.array(values)
        below += int((values < icn).sum())
        ratios.extend(values / icn)
        sd_ratios.append(np.std(values - icn) / np.sqrt(np.var(values) + np.var(icn)))
    low, median, high = np.percentile(ratios, [5, 50, 95])
    ok = below == 0 and len(ratios) == len(cells) * 3 * TRIALS
    report(11, ok, f"{len(ratios)} paired trials, {below} with dns below icn (need 0); dns/icn "
                   f"median {median:.2f}, 5-95% {low:.2f}-{high:.2f}, min {min(ratios):.3f}; "
                   f"paired SD {min(sd_ratios):.2f}-{max(sd_ratios):.2f}x the unpaired")


def test_acceptance_grid_matches_golden(grid_run):
    """The grid's ``backhaul.csv``, ``pathlen.csv`` and ``summary.csv``, as
    ``run_sweep`` wrote them, equal the goldens written by
    ``python tests/test_golden.py``."""
    check_golden("acceptance", grid_run["out"])
