from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import gc
import hashlib
import importlib
import multiprocessing
import os
import pkgutil
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fogcast.data import bundled_population, bundled_topology
from fogcast.experiment import (
    ConfigError,
    ScenarioConfig,
    TrialMetrics,
    UNICAST,
    backhaul,
    ecdf,
    grid_configs,
    load_grid,
    run_sweep,
    run_trial,
    trial_seed,
)
import fogcast
import oracles
from conftest import (Bloom16, cli_error, random_connected_graph, resolve, write_graphml,
                      write_synthetic)
from fogcast import cli, experiment, forwarding, topology
from fogcast.forwarding import BloomScheme
from fogcast.service_router import fog_cache_items
from fogcast.topology import NO_ROW, NetworkGraph, load_topology
from fogcast.workload import CHUNK_DURATION, build_catalogue
from oracles import all_pairs, fresh_placement


@pytest.fixture()
def single_node_setup(tmp_path):
    top = tmp_path / "one.graphml"
    write_graphml(top, [("solo", 50.0, 8.0)], [])
    pop = tmp_path / "one.txt"
    pop.write_text("50.0,8.0,1000\n")
    return str(top), str(pop)


# --- configuration ----------------------------------------------------------

def test_defaults_point_at_bundled_fixtures():
    config = ScenarioConfig()
    assert config.topology_path == str(bundled_topology())
    assert config.population_path == str(bundled_population())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(arch="p2p"),
        dict(mode="random"),
        dict(scheme="xor"),
        dict(trials=0),
        dict(arch="icn", ldns_k=2),
        dict(arch="dns", ldns_k=0),
        dict(arch="dns", ldns_k=2, catchment=(1.0,)),
        dict(catchment=(-1.0,)),
        dict(fog_k=-1),
        dict(cloud_k=-2),
        dict(arch="dns", ldns_k=-1),
        dict(scheme="bloom", catchment=(0.0,)),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        ScenarioConfig(**kwargs)


def test_trial_seeds_mix_base_and_index():
    seeds = {trial_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(1, 0) != trial_seed(2, 0)
    assert trial_seed(5, 7) == trial_seed(5, 7)


# --- run_trial --------------------------------------------------------------

def test_single_node_trial_is_all_local(single_node_setup):
    top, pop = single_node_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, catchment=(0.1, 1.0),
        topology_path=top, population_path=pop, n_items=5, trials=1,
    )
    outcome = run_trial(config, 0)
    assert backhaul(outcome.unicast) == 0.0
    assert len(outcome.unicast.hop_counts) == 1
    assert outcome.unicast.hop_counts[0] > 0
    for metrics in outcome.by_catchment.values():
        assert backhaul(metrics) == 0.0


def test_trial_without_demand_has_zero_float_loads(chain_setup):
    top, pop = chain_setup
    # A target this small rounds every node's users to zero.
    config = ScenarioConfig(arch="icn", fog_k=1, cloud_k=1, catchment=(1.0,), target_bitrate=1.0,
                            topology_path=top, population_path=pop, n_items=3, trials=1)
    outcome = run_trial(config, 0)
    assert outcome.unicast.hop_counts.size == 0
    for metrics in outcome.variants().values():
        assert metrics.arc_load.dtype == np.float64
        assert backhaul(metrics) == 0.0


def test_key_sums_equal_a_dict_of_sums():
    """``_key_sums`` of entries packed ``key << count_bits | count`` gives the
    distinct keys, ascending, and each key's summed counts: random keys with
    repeats, one key, no keys, and keys at the widest width the gate admits,
    63 bits with the count."""
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(20):
        count_bits = int(rng.integers(1, 12))
        keys = rng.integers(0, int(rng.integers(1, 200)), size=int(rng.integers(1, 300)))
        cases.append((keys, rng.integers(1, 1 << count_bits, size=len(keys)), count_bits))
    cases.append((np.array([5]), np.array([3]), 2))
    cases.append((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0))
    wide = rng.integers(0, 1 << 43, size=500)
    wide[:100] = wide[100:200]
    wide[0] = (1 << 43) - 1
    counts = rng.integers(1, 1 << 20, size=500)
    counts[0] = (1 << 20) - 1
    assert (wide << 20 | counts).max() == (1 << 63) - 1
    cases.append((wide, counts, 20))
    for keys, counts, count_bits in cases:
        sums: dict[int, int] = {}
        for key, count in zip(keys.tolist(), counts.tolist()):
            sums[key] = sums.get(key, 0) + count
        packed = keys << count_bits | counts
        got_keys, got_sums = experiment._key_sums(packed, count_bits)
        assert list(zip(got_keys.tolist(), got_sums.tolist())) == sorted(sums.items())
    assert sum(len(set(keys.tolist())) < len(keys) for keys, *_ in cases) > 10


def one_node_inputs(tmp_path) -> tuple[str, str]:
    """The 2,000-node synthetic backbone with all its people on node 0."""
    top, _ = write_synthetic(tmp_path, 1)
    graph = load_topology(top)
    pop = tmp_path / "one_node.txt"
    pop.write_text(f"{float(graph.lat[0])!r},{float(graph.lon[0])!r},1000\n")
    return top, str(pop)


def test_catchment_keys_past_63_bits_fail_before_any_trial(tmp_path, monkeypatch, fresh_contexts):
    """A million items and a million users on one node of 2,000 nodes and
    4,798 arcs need 11 + 20 + 13 + 20 = 64 bits of packed tree key: the
    sweep stops with one error line before any trial. Half the items, or no
    catchment interval (nothing is packed), pass the check."""
    top, pop = one_node_inputs(tmp_path)
    trials = count_calls(monkeypatch, "run_trial")
    flags = ["--topology", top, "--population", pop, "--fog", "1", "--cloud", "1",
             "--bitrates", "20e6", "--target-bitrate", "2e13", "--trials", "1"]
    out = tmp_path / "out"
    assert cli_error(["run", *flags, "--items", "1000000", "--catchment", "1",
                      "--out", str(out)], out) == (
        "fogcast: error: config icn,1,1,0,pop: catchment keys need 11 node + 20 item + "
        "13 arc + 20 count bits = 64, over 63")
    assert trials == []
    config = ScenarioConfig(fog_k=1, cloud_k=1, bitrates=(20e6,), target_bitrate=2e13,
                            topology_path=top, population_path=pop, n_items=10**6)
    for fits in (dataclasses.replace(config, n_items=500000, catchment=(1.0,)), config):
        assert experiment._check_fits(fits) is experiment._contexts[top, pop]


def test_trials_deterministic(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, catchment=(0.1,),
        topology_path=top, population_path=pop, n_items=3,
        target_bitrate=2e9, trials=1, base_seed=4,
    )
    first = run_trial(config, 0)
    second = run_trial(config, 0)
    assert (first.unicast.arc_load == second.unicast.arc_load).all()
    assert (first.unicast.hop_counts == second.unicast.hop_counts).all()
    other = run_trial(config, 1)
    assert not (first.unicast.arc_load == other.unicast.arc_load).all()


def _resolution_cases():
    """The bundled backbone, then 50 random graphs, each with a placement
    where one node is both fog and cloud; then the bundled backbone with the
    placements of acceptance criterion 6's configs (up to 8 LDNS points),
    from their shared pick orders at trial indices 0-2. Every node is a
    client of four requests."""
    rng = np.random.default_rng(5)
    graphs = [load_topology(bundled_topology())]
    graphs += [random_connected_graph(rng, n, int(rng.integers(0, n)))
               for n in rng.integers(2, 30, size=50).tolist()]
    for graph in graphs:
        n = graph.n_nodes
        fog = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False).tolist()
        cloud = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist()
        ldns = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist()
        nodes = np.repeat(np.arange(n), 4)
        items = rng.integers(1, 21, size=len(nodes))
        yield all_pairs(graph), fog, sorted(set(cloud) | {fog[0]}), ldns, nodes, items
    hops = all_pairs(graphs[0])
    inputs = (str(bundled_topology()), str(bundled_population()))
    nodes = np.repeat(np.arange(graphs[0].n_nodes), 4)
    for index in range(3):
        seed = trial_seed(3, index)  # the criterion's base seed
        picks, _, _ = experiment._trial_index(experiment._load_context(*inputs), seed)
        for k, ldns_k in ((2, 2), (2, 8), (4, 2), (4, 8)):
            fog, cloud, ldns = (list(picks("pop", role, count)[0])
                                for role, count in (("fog", k), ("cloud", k), ("ldns", ldns_k)))
            yield hops, fog, cloud, ldns, nodes, rng.integers(1, 21, size=len(nodes))


def test_per_node_kernel_matches_scalar_resolvers():
    """Every request's service point, and every client's pull origin, equal
    the scalar resolvers': the origin is the pull leg of a request for the
    last item, past every fog cache, at the client's node."""
    catalogue = build_catalogue(20, 0.8, (20e6,), seed=3)
    ties = 0
    for hops, fog, cloud, ldns, nodes, items in _resolution_cases():
        fog_items = fog_cache_items(0.25, catalogue.n)
        table = oracles.build_rendezvous(fog, cloud)
        dns_config = oracles.DnsConfig(ldns=tuple(ldns), fog=tuple(fog), cloud=tuple(cloud),
                                       fog_items=fog_items)
        clients, client_of = np.unique(nodes, return_inverse=True)
        kernels = {
            "icn": resolve(hops, clients, fog, cloud),
            "dns": resolve(hops, clients, fog, cloud, ldns),
        }

        def plans(node, item):
            return {
                "icn": oracles.resolve_request(node, item, cloud, fog_items, table, hops,
                                               catalogue),
                "dns": oracles.resolve_request_dns(node, item, dns_config, hops, 20e6),
            }

        for c, node in enumerate(clients.tolist()):
            for arch, plan in plans(node, catalogue.n).items():
                point, origin = kernels[arch]
                leg = plan.legs[1].dst if len(plan.legs) > 1 else -1
                assert origin[point[c]] == leg, (arch, node)
        for i, (node, item) in enumerate(zip(nodes.tolist(), items.tolist())):
            by_arch = plans(node, item)
            for arch, plan in by_arch.items():
                point, origin = kernels[arch]
                assert point[client_of[i]] == plan.service_point, (arch, node, item)
                pulled = origin[point[client_of[i]]] if item > fog_items else -1
                assert pulled == (plan.legs[1].dst if len(plan.legs) > 1 else -1)
                assert hops.dist[node, point[client_of[i]]] == plan.client_path_hops
            ties += sum(hops.dist[node, p] == hops.dist[node, by_arch["icn"].service_point]
                        for p in set(fog) | set(cloud)) > 1
    assert ties > 0

    # Trials route through the per-node kernel alone: no fogcast module
    # holds a scalar oracle for them to call.
    moved = {name for name, value in vars(oracles).items()
             if getattr(value, "__module__", None) == oracles.__name__}
    for info in pkgutil.iter_modules(fogcast.__path__):
        assert not moved & set(vars(importlib.import_module(f"fogcast.{info.name}"))), info.name
    for config in (ScenarioConfig(arch="icn", fog_k=4, cloud_k=4, catchment=(1.0,), trials=1),
                   ScenarioConfig(arch="dns", fog_k=4, cloud_k=4, ldns_k=4, trials=1)):
        assert backhaul(run_trial(config, 0).unicast) > 0


@pytest.mark.parametrize("arch, ldns_k", [("icn", 0), ("dns", 2)])
def test_missing_role_is_named_for_both_architectures(arch, ldns_k):
    """``run_trial`` rejects what ``fogcast run`` rejects, with its text,
    before any draw: no point at all, or no cloud point while fog points
    cache only the top 10% of items."""
    for fog_k, named in ((0, "no service point (fog = 0 and cloud = 0)"),
                         (4, "no cloud point to serve items past the fog cache")):
        config = ScenarioConfig(arch=arch, fog_k=fog_k, cloud_k=0, ldns_k=ldns_k, trials=1)
        with pytest.raises(ConfigError) as info:
            run_trial(config, 0)
        assert str(info.value) == f"config {arch},{fog_k},0,{ldns_k},pop: {named}"


# Per backbone, (config fields, trial indices) of each case.
CATCHMENT_CASES = {
    "chain": [(dict(fog_k=1, cloud_k=1, n_items=3, target_bitrate=2e9, base_seed=seed), indices)
              for seed, indices in ((1, range(5)), (9, range(1)))],
    "bundled": [(dict(fog_k=fog_k, cloud_k=cloud_k, count_fallback=fallback, base_seed=3),
                 range(10))
                for fog_k, cloud_k in ((2, 2), (2, 8), (8, 2), (8, 8))
                for fallback in (True, False)],
    "synthetic_2000": [(dict(fog_k=fog_k, cloud_k=4, base_seed=5), range(2)) for fog_k in (4, 8)],
}


@pytest.mark.parametrize("backbone", list(CATCHMENT_CASES))
def test_catchment_loads_bounded_arc_by_arc(backbone, chain_setup, tmp_path):
    """On every arc: the smallest positive T reproduces unicast within 1e-12
    under the exact scheme, load falls as T grows under both schemes, exact
    catchment load stays within unicast, and Bloom leaves unicast byte-equal
    and carries at least the exact load. On the 2,000-node backbone some
    Bloom false-positive arc carries more than unicast."""
    top, pop = backbone_files(backbone, chain_setup, tmp_path)
    intervals = (float(np.nextafter(0, 1)), 0.1, 1.0, 10.0)
    above_unicast = 0
    for fields, indices in CATCHMENT_CASES[backbone]:
        base = dict(fields, catchment=intervals, topology_path=top, population_path=pop)
        for index in indices:
            exact = run_trial(ScenarioConfig(**base, scheme="exact"), index)
            bloom = run_trial(ScenarioConfig(**base, scheme="bloom"), index)
            unicast = exact.unicast.arc_load
            assert metric_bytes(bloom)[0] == metric_bytes(exact)[0]
            loads = {scheme: [outcome.by_catchment[t].arc_load for t in intervals]
                     for scheme, outcome in (("exact", exact), ("bloom", bloom))}
            assert loads["exact"][0] == pytest.approx(unicast, rel=1e-12, abs=0)
            assert (loads["exact"][1] <= unicast).all()
            for scheme_loads in loads.values():
                for smaller, larger in zip(scheme_loads, scheme_loads[1:]):
                    assert (larger <= smaller).all()
            for exact_load, bloom_load in zip(loads["exact"], loads["bloom"]):
                assert (bloom_load >= exact_load).all()
                above_unicast += int((bloom_load > unicast).sum())
    assert above_unicast > 0 or backbone != "synthetic_2000"


# One trial per row. Together the rows take every value of arch, mode,
# scheme, count_fallback and fog_cache_fraction, and list 0 in catchment;
# rows that share a seed differ in mode and run one after the other.
REFERENCE_ROWS = [
    dict(arch="icn", mode="pop", fog_k=2, cloud_k=2, catchment=(0.0, 0.1, 1.0, 10.0), base_seed=3),
    dict(arch="icn", mode="cls", fog_k=3, cloud_k=1, catchment=(0.1, 1.0), scheme="bloom",
         base_seed=3),
    dict(arch="icn", mode="pop", fog_k=2, cloud_k=1, catchment=(0.0, 1.0), scheme="bloom",
         fog_cache_fraction=1.0, base_seed=5),
    dict(arch="icn", mode="cls", fog_k=1, cloud_k=2, catchment=(0.1, 10.0),
         count_fallback=False, base_seed=5),
    dict(arch="dns", mode="pop", fog_k=2, cloud_k=1, ldns_k=2, fog_cache_fraction=1.0,
         base_seed=7),
    dict(arch="dns", mode="cls", fog_k=2, cloud_k=2, ldns_k=1, base_seed=7),
]

# Bitrates that are not integers: loads are then rounded, and the per-client
# regrouping of unicast loads holds only within 1e-12.
FRACTIONAL_ROW = dict(arch="icn", mode="pop", fog_k=2, cloud_k=2, catchment=(0.1, 1.0),
                      bitrates=(1.5e6 / 7, 2.25e6 / 7, 3.3e6 / 7), target_bitrate=7e8,
                      base_seed=11)


def metric_bytes(outcome):
    """Every variant of a trial as (key, load bytes, histogram bytes)."""
    return [(key, m.arc_load.tobytes(), m.hop_counts.tobytes())
            for key, m in outcome.variants().items()]


def backbone_files(backbone, chain_setup, tmp_path):
    """Topology and population paths of a named backbone ('' for bundled)."""
    if backbone.startswith("synthetic_"):
        n_nodes = int(backbone.removeprefix("synthetic_"))
        return write_synthetic(tmp_path, 1, n_nodes, n_nodes // 5)
    return {"chain": chain_setup}.get(backbone, ("", ""))


def reference_counters(rows, top, pop):
    """Trial 0 of each row through ``run_trial`` and ``oracles.reference_trial``:
    the hop histogram bit for bit, unicast loads bit for bit when every
    bitrate is an integer (and within 1e-12 relative otherwise), catchment
    loads within 1e-12 relative, arc by arc. A Bloom row that passes no
    false-positive arc equals the exact scheme byte for byte. Returns the
    summed counters."""
    seen = {"pulls": 0, "fp_arcs": 0}
    for row in rows:
        config = ScenarioConfig(topology_path=top, population_path=pop, trials=1, **row)
        got = run_trial(config, 0)
        want, counters = oracles.reference_trial(config, 0)
        assert list(got.variants()) == list(want.variants())
        if all(float(b).is_integer() for b in config.bitrates):
            assert got.unicast.arc_load.tobytes() == want.unicast.arc_load.tobytes()
        else:
            assert got.unicast.arc_load == pytest.approx(want.unicast.arc_load, rel=1e-12, abs=0)
        assert got.unicast.hop_counts.tolist() == want.unicast.hop_counts.tolist()
        for interval, metrics in want.by_catchment.items():
            assert got.by_catchment[interval].arc_load == pytest.approx(
                metrics.arc_load, rel=1e-12, abs=0), interval
        assert counters["pulls"] == 0 or config.fog_cache_fraction < 1
        if config.scheme == "bloom" and not counters["fp_arcs"]:
            exact = dataclasses.replace(config, scheme="exact")
            assert metric_bytes(run_trial(exact, 0)) == metric_bytes(got)
        seen = {key: seen[key] + counters[key] for key in seen}
    return seen


@pytest.mark.parametrize("backbone", ["bundled", "chain", "synthetic_100", "synthetic_300"])
def test_run_trial_equals_reference_trial(backbone, chain_setup, tmp_path):
    """``run_trial`` equals ``oracles.reference_trial`` on every row (see
    ``reference_counters``), and on the bundled and 300-node backbones on a
    row with fractional bitrates. The rows pull, and Bloom identifiers pass
    false-positive arcs on every backbone but the chain; where they pass
    none, Bloom equals the exact scheme byte for byte."""
    rows = REFERENCE_ROWS + ([FRACTIONAL_ROW] if backbone in ("bundled", "synthetic_300")
                             else [])
    seen = reference_counters(rows, *backbone_files(backbone, chain_setup, tmp_path))
    assert seen["pulls"] > 0
    assert seen["fp_arcs"] > 0 or backbone == "chain"


@pytest.mark.parametrize("backbone", ["bundled", "synthetic_300"])
def test_run_trial_equals_reference_trial_under_16_bit_bloom(backbone, tmp_path, monkeypatch):
    """The Bloom rows of ``REFERENCE_ROWS`` again, with the 16-bit scheme in
    both ``run_trial`` and the reference: the default one passes few
    false-positive arcs on these backbones, so whole trials would seldom
    reach the Bloom kernel's walk or its per-group subtraction."""
    monkeypatch.setattr(experiment, "BloomScheme", Bloom16)
    monkeypatch.setattr(oracles, "BloomScheme", Bloom16)
    rows = [row for row in REFERENCE_ROWS if row.get("scheme") == "bloom"]
    seen = reference_counters(rows, *backbone_files(backbone, None, tmp_path))
    assert seen["fp_arcs"] > 0


@pytest.mark.parametrize("scheme", ["exact", "bloom"])
@pytest.mark.parametrize("backbone", ["bundled", "synthetic_300"])
def test_each_interval_alone_equals_it_among_three(backbone, scheme, tmp_path, monkeypatch):
    """Relation (e): a catchment interval's variant is the same trial,
    byte for byte, alone as among three intervals, and so is unicast. The
    configs count fallback, so pulls ride along, and Bloom runs the 16-bit
    scheme, so false-positive arcs do; no oracle is needed."""
    monkeypatch.setattr(experiment, "BloomScheme", Bloom16)
    fp_arcs = []
    false_positive_arcs = experiment.false_positive_arcs
    monkeypatch.setattr(experiment, "false_positive_arcs",
                        lambda *args: fp_arcs.append(false_positive_arcs(*args)) or fp_arcs[-1])
    top, pop = backbone_files(backbone, None, tmp_path)
    intervals = (0.1, 1.0, 10.0)
    pulled = 0
    for fog_k, cloud_k in ((2, 2), (4, 2), (8, 4)):
        config = ScenarioConfig(topology_path=top, population_path=pop, fog_k=fog_k,
                                cloud_k=cloud_k, catchment=intervals, scheme=scheme, trials=2)
        for index in range(config.trials):
            together = metric_bytes(run_trial(config, index))
            for at, interval in enumerate(intervals):
                alone = run_trial(dataclasses.replace(config, catchment=(interval,)), index)
                assert metric_bytes(alone) == [together[0], together[1 + at]], interval
            unpulled = run_trial(dataclasses.replace(config, count_fallback=False), index)
            pulled += unpulled.unicast.arc_load.tobytes() != together[0][1]
    assert pulled > 0
    assert (scheme == "exact") == (not fp_arcs)
    assert scheme == "exact" or any(len(group) for group, _ in fp_arcs)


@pytest.mark.parametrize("fog_k, cloud_k", [(2, 2), (4, 4), (8, 2), (0, 3)])
def test_unicast_backhaul_is_the_bitrate_times_the_users_hops(fog_k, cloud_k):
    """Relation (a): with one bitrate and fallback not counted, a trial's
    unicast backhaul is the bitrate times its users' summed hops,
    ``sum(h * hop_counts[h])``, exactly. It ties the per-arc loads of
    ``backhaul.csv`` to the histogram of ``pathlen.csv``, two code paths."""
    config = ScenarioConfig(fog_k=fog_k, cloud_k=cloud_k, bitrates=(40e6,),
                            count_fallback=False, trials=20)
    for index in range(config.trials):
        unicast = run_trial(config, index).unicast
        user_hops = int(np.arange(len(unicast.hop_counts)) @ unicast.hop_counts)
        assert user_hops > 0
        assert backhaul(unicast) == 40e6 * CHUNK_DURATION * user_hops, index


@pytest.mark.parametrize("count_fallback", [False, True])
@pytest.mark.parametrize("fog_k, cloud_k", [(2, 2), (4, 4), (8, 2)])
def test_dns_with_an_ldns_at_every_populated_node_equals_icn(fog_k, cloud_k, count_fallback,
                                                            geant_population):
    """Relation (b): every bundled node is populated, so ``dns`` under ``pop``
    with 37 LDNS points resolves each client at its own node, as ``icn``
    does: arc loads and hop histograms are equal byte for byte."""
    assert len(geant_population) == 37 and (geant_population > 0).all()
    icn = ScenarioConfig(fog_k=fog_k, cloud_k=cloud_k, count_fallback=count_fallback, trials=20)
    dns = dataclasses.replace(icn, arch="dns", ldns_k=37)
    for index in range(icn.trials):
        assert metric_bytes(run_trial(dns, index)) == metric_bytes(run_trial(icn, index)), index


def test_zero_interval_row_is_unicast_under_bloom(monkeypatch, tmp_path):
    """Listing T = 0 adds no variant: a Bloom grid's ``T = 0.0`` rows are
    unicast, with or without 0 in ``catchment``, even when a 16-bit filter
    passes many false-positive arcs."""
    monkeypatch.setattr(experiment, "BloomScheme", lambda: BloomScheme(m=16, k=2))
    rows = {}
    for catchment in ("0.1,1", "0,0.1,1"):
        configs = grid_configs({"scheme": "bloom", "fog": "2,8", "cloud": "4",
                                "catchment": catchment, "trials": "3", "seed": "7"})
        run_sweep(configs, out_dir=tmp_path / catchment)
        lines = (tmp_path / catchment / "backhaul.csv").read_text().splitlines()[1:]
        rows[catchment] = [line for line in lines if line.split(",")[5] == "0.0"]
    assert len(rows["0.1,1"]) == 2 * 3
    assert rows["0,0.1,1"] == rows["0.1,1"]


def test_held_rows_never_change_results(fresh_contexts, monkeypatch):
    configs = [ScenarioConfig(fog_k=4, cloud_k=4, mode=mode, catchment=(0.1, 1.0), trials=8)
               for mode in ("pop", "cls")]
    configs.append(ScenarioConfig(arch="dns", fog_k=4, cloud_k=2, ldns_k=3, mode="cls", trials=8))
    searches = count_calls(monkeypatch, "hop_table")
    walks = count_calls(monkeypatch, "canonical_paths")

    def outcomes(held=None):
        fresh_contexts()
        if held is not None:  # the context then holds the first `held` populated rows
            context = experiment._load_context(configs[0].topology_path,
                                               configs[0].population_path)
            rows = np.flatnonzero(context.populations)[:held]
            context.memo = topology.PathMemo(topology.hop_table(context.graph, rows))
        searches.clear()
        walks.clear()
        return [metric_bytes(run_trial(c, i)) for c in configs for i in range(c.trials)]

    # Every node of the bundled backbone is populated: the context's table
    # is the only one searched, and its memo walks every path.
    expected = outcomes()
    assert len(searches) == 1 and walks == []
    # Contexts that hold three of its 37 rows, then none: every trial then
    # searches a table of its own points and walks its paths on it.
    for held in (3, 0):
        assert outcomes(held) == expected
        assert len(searches) == len(walks) == sum(config.trials for config in configs)


def test_pipeline_builds_no_n_by_n_table(tmp_path, monkeypatch, fresh_contexts):
    top, pop = write_synthetic(tmp_path, 1)
    searched = []
    hop_table = experiment.hop_table

    def refuse_all_rows(graph, sources):
        if len(sources) == graph.n_nodes:
            raise AssertionError("the pipeline built an all-pairs table")
        searched[-1].append(sorted(set(sources.tolist())))
        return hop_table(graph, sources)

    monkeypatch.setattr(experiment, "hop_table", refuse_all_rows)
    configs = [ScenarioConfig(fog_k=8, cloud_k=8, mode=mode, catchment=(0.1, 1.0, 10.0),
                              topology_path=top, population_path=pop, trials=2)
               for mode in ("pop", "cls")]
    tracemalloc.start()
    try:
        searched.append([])
        context = experiment._load_context(top, pop)
        graph, held, populations = context.graph, context.memo.hops, context.populations
        for config in configs:
            for index in range(config.trials):
                searched.append([])
                run_trial(config, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The held table is the populated nodes' rows, and only theirs.
    populated = np.flatnonzero(populations)
    assert len(populated) == 271
    assert searched[0] == [populated.tolist()]
    assert np.flatnonzero(held.slot != NO_ROW).tolist() == populated.tolist()
    assert held.dist.shape == held.in_arc.shape == (271, graph.n_nodes)
    # 4,798 arcs: int16 holds every arc id, half the bytes of int32.
    assert graph.n_arcs == 4798 and held.dist.dtype == held.in_arc.dtype == np.int16
    # A pop trial searches no row; a cls trial one table of its own points.
    trials = [(config, index) for config in configs for index in range(config.trials)]
    for (config, index), tables in zip(trials, searched[1:]):
        if config.mode == "pop":
            assert tables == []
        else:
            placement = fresh_placement(graph, populations, "cls", config.fog_k, config.cloud_k,
                                        0, trial_seed(config.base_seed, index))
            assert tables == [sorted(set(placement.fog + placement.cloud))]
    # The n x n dist and in_arc tables alone would take 16 MB on 2,000 nodes.
    assert graph.n_nodes == 2000 and peak < 16e6


# --- metrics ----------------------------------------------------------------

def test_backhaul_sums_a_three_hop_flow():
    load = np.zeros(10)
    for arc in (0, 4, 7):
        load[arc] += 20e6
    metrics = TrialMetrics(arc_load=load, hop_counts=np.array([0, 0, 0, 1]))
    assert backhaul(metrics) == pytest.approx(60e6)


def test_backhaul_of_empty_load_map_is_zero():
    metrics = TrialMetrics(arc_load=np.zeros(4), hop_counts=np.array([1]))
    assert backhaul(metrics) == 0.0


def test_ecdf_steps():
    assert ecdf([2, 0, 2]) == [(0, 0.5), (2, 1.0)]


def test_ecdf_single_value():
    assert ecdf([0, 0, 0, 0, 0, 3]) == [(5, 1.0)]


def test_ecdf_rejects_empty_input():
    for hop_counts in ([], [0, 0]):
        with pytest.raises(ValueError):
            ecdf(hop_counts)


def test_ecdf_is_a_cdf():
    rng = np.random.default_rng(1)
    samples = rng.integers(0, 15, size=500)
    points = ecdf(np.bincount(samples))
    values, counts = np.unique(samples, return_counts=True)
    assert points == [(int(v), float(f)) for v, f in zip(values, np.cumsum(counts) / 500)]
    fractions = [f for _, f in points]
    assert all(0 < f <= 1 for f in fractions)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


# --- sweeps -----------------------------------------------------------------

def test_single_config_sweep(chain_setup, tmp_path):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, topology_path=top, population_path=pop,
        n_items=3, target_bitrate=2e9, trials=1,
    )
    results = run_sweep([config], out_dir=tmp_path / "out")
    assert len(results) == 1
    assert results[0].trials == 1
    assert UNICAST in results[0].mean_backhaul
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt"):
        assert (tmp_path / "out" / name).exists()
    assert run_sweep([]) == run_sweep([], jobs=2) == []  # no config runs no trial


def test_summary_row_count_is_configs_times_variants(chain_setup, tmp_path):
    top, pop = chain_setup
    configs = [
        ScenarioConfig(arch="icn", fog_k=k, cloud_k=1, catchment=(0.1, 1.0, 10.0),
                       topology_path=top, population_path=pop, n_items=3,
                       target_bitrate=2e9, trials=2)
        for k in (1, 2)
    ]
    run_sweep(configs, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(lines) - 1 == len(configs) * (1 + 3)
    backhaul_lines = (tmp_path / "out" / "backhaul.csv").read_text().splitlines()
    assert len(backhaul_lines) - 1 == len(configs) * (1 + 3) * 2


def test_mean_backhaul_decreases_with_more_fog_points(tmp_path):
    configs = [
        ScenarioConfig(arch="icn", fog_k=k, cloud_k=2, trials=10,
                       count_fallback=False, base_seed=3)
        for k in (2, 8)
    ]
    results = run_sweep(configs)
    assert results[1].mean_backhaul[UNICAST] < results[0].mean_backhaul[UNICAST]


def test_manifest_lists_trial_seeds(chain_setup, tmp_path):
    top, pop = chain_setup
    config = ScenarioConfig(arch="icn", fog_k=1, cloud_k=1, topology_path=top,
                            population_path=pop, n_items=3, target_bitrate=2e9,
                            trials=2, base_seed=42)
    run_sweep([config], out_dir=tmp_path / "out")
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert str(trial_seed(42, 0)) in manifest
    assert str(trial_seed(42, 1)) in manifest
    # Provenance: the versions that ran, and the sha256 of each input file.
    lines = manifest.splitlines()
    assert lines[:5] == ["[versions]", f"fogcast = {fogcast.__version__}",
                         f"python = {platform.python_version()}",
                         f"numpy = {np.__version__}", ""]
    for name, path in (("topology", top), ("population", pop)):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert lines.count(f"{name}_sha256 = {digest}") == 1


def test_manifest_seeds_stay_per_config(chain_setup, tmp_path):
    """Configs of different base seeds and trial counts each list their own
    derived seeds, though the manifest joins each (seed, trials) once."""
    top, pop = chain_setup
    runs = ((1, 3), (2, 5), (1, 5), (1, 3))
    configs = [ScenarioConfig(fog_k=fog, cloud_k=1, topology_path=top, population_path=pop,
                              n_items=3, target_bitrate=2e9, trials=trials, base_seed=base)
               for fog, (base, trials) in enumerate(runs, start=1)]
    run_sweep(configs, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("trial_seeds = ")] == [
        "trial_seeds = " + ",".join(str(trial_seed(base, i)) for i in range(trials))
        for base, trials in runs]


@pytest.mark.parametrize("trials", [1, 2, 9, 129, 2000])
def test_block_summaries_equal_per_row_ones(trials):
    """``run_sweep``'s summaries, one mean and one std over a config's
    (variants x trials) block, equal ``np.mean`` and ``np.std`` of each row
    to the last bit, for values from 1e3 to 1e12."""
    rng = np.random.default_rng(trials)
    for variants in (1, 4):
        block = np.empty((variants, trials))
        for index in range(trials):  # filled as _run_configs does, a trial at a time
            block[:, index] = 10.0 ** rng.uniform(3, 12, size=variants)
        assert repr(block.mean(axis=1).tolist()) == repr([float(np.mean(row)) for row in block])
        assert repr(block.std(axis=1).tolist()) == repr([float(np.std(row)) for row in block])


def test_manifest_hashes_inputs_once_per_context(chain_setup, tmp_path, monkeypatch,
                                                 fresh_contexts):
    """Sweeps of one loaded context hash its two files once in all."""
    top, pop = chain_setup
    hashed = count_calls(monkeypatch, "_sha256")
    config = ScenarioConfig(fog_k=1, cloud_k=1, topology_path=top, population_path=pop,
                            n_items=3, target_bitrate=2e9, trials=1)
    for at in range(3):
        run_sweep([config, dataclasses.replace(config, fog_k=2)], out_dir=tmp_path / str(at))
    assert sorted(args[0] for args in hashed) == sorted([top, pop])


def test_manifest_hashes_the_inputs_the_trials_read(chain_setup, tmp_path, monkeypatch,
                                                    fresh_contexts):
    """A population file rewritten after the first trial leaves the
    manifest with the digest of the file the trials read."""
    top, pop = chain_setup
    read = Path(pop).read_bytes()
    run_trial = experiment.run_trial

    def rewriting(*args):
        outcome = run_trial(*args)
        Path(pop).write_text("50.0,0.0,1\n50.0,1.0,1\n50.0,2.0,1\n50.0,3.0,1\n")
        return outcome

    monkeypatch.setattr(experiment, "run_trial", rewriting)
    config = ScenarioConfig(fog_k=1, cloud_k=1, topology_path=top, population_path=pop,
                            n_items=3, target_bitrate=2e9, trials=2)
    run_sweep([config], out_dir=tmp_path / "out")
    assert Path(pop).read_bytes() != read
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert f"population_sha256 = {hashlib.sha256(read).hexdigest()}" in lines


def test_second_sweep_reads_an_edited_input(tmp_path, fresh_contexts):
    """A population file edited between two sweeps of one process: the second
    sweep's four files equal a fresh ``fogcast`` process's bytes, and its
    manifest holds the edited file's sha256."""
    pop = tmp_path / "population.txt"
    pop.write_bytes(Path(bundled_population()).read_bytes())
    argv = ["run", "--population", str(pop), "--trials", "2", "--seed", "1", "--out"]
    assert cli.main([*argv, str(tmp_path / "before")]) == 0
    lines = []
    for line in pop.read_text().splitlines():  # counts east of 10 degrees E times 50
        if line and not line.startswith("#"):
            lat, lon, count = line.split("#")[0].split(",")
            line = f"{lat},{lon},{int(count) * 50 if float(lon) > 10 else count}"
        lines.append(line)
    pop.write_text("\n".join(lines) + "\n")
    assert cli.main([*argv, str(tmp_path / "after")]) == 0
    fresh = [*argv, str(tmp_path / "fresh")]
    code = f"from fogcast import cli; raise SystemExit(cli.main({fresh!r}))"
    subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                   env=dict(os.environ, PYTHONPATH="src"), capture_output=True, check=True)
    files = ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt")
    for name in files:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "before" / "summary.csv").read_bytes() != (
        tmp_path / "after" / "summary.csv").read_bytes()
    digest = hashlib.sha256(pop.read_bytes()).hexdigest()
    assert f"population_sha256 = {digest}" in (tmp_path / "after" / "manifest.txt").read_text()


def test_unchanged_inputs_keep_their_context(tmp_path, monkeypatch, fresh_contexts):
    """A second sweep of unchanged files keeps their context, its held table
    and path memo: it searches no hop table and walks no path. A sweep keeps
    its own input pairs and the 8 newest others: a ninth other drops the
    oldest."""
    configs = grid_configs(dict(GRID_DNS, trials="2"))
    searches = count_calls(monkeypatch, "hop_table")
    walks = count_calls(monkeypatch, "canonical_paths")
    memo_walks = count_calls(monkeypatch, "canonical_paths", topology)
    run_sweep(configs, out_dir=tmp_path / "first")
    assert len(searches) == 1 and walks == [] and memo_walks
    key = configs[0].topology_path, configs[0].population_path
    context = experiment._contexts[key]
    searches.clear()
    memo_walks.clear()
    run_sweep(configs, out_dir=tmp_path / "second")
    assert searches == walks == memo_walks == []
    assert experiment._contexts[key] is context
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()

    coords = [("a", 50.0, 0.0), ("b", 50.0, 1.0)]
    for pair in range(9):
        top, pop = tmp_path / f"top{pair}.graphml", tmp_path / f"pop{pair}.txt"
        write_graphml(top, coords, [(0, 1)])
        pop.write_text(f"50.0,0.0,{pair + 1}\n50.0,1.0,1\n")
        run_sweep([ScenarioConfig(fog_k=1, cloud_k=1, topology_path=str(top),
                                  population_path=str(pop), n_items=3, target_bitrate=2e9,
                                  trials=1)])
    assert len(experiment._contexts) == 9 and key not in experiment._contexts
    assert (str(top), str(pop)) in experiment._contexts


def test_sweep_over_nine_input_pairs_loads_each_once(tmp_path, monkeypatch, fresh_contexts):
    """A sweep holds the context of every input pair it reads, however many:
    nine copies of the bundled inputs, one config and 3 trials each, load
    each topology once, and the manifest names the digests of those loads."""
    loads = count_calls(monkeypatch, "load_topology")
    configs = [ScenarioConfig(fog_k=2, cloud_k=2, topology_path=top, population_path=pop,
                              trials=3) for top, pop in bundled_copies(tmp_path, 9)]
    run_sweep(configs, out_dir=tmp_path / "out")
    assert sorted(args[0] for args in loads) == sorted(c.topology_path for c in configs)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    for config in configs:
        digests = experiment._contexts[config.topology_path, config.population_path].digests
        for path, digest in zip((config.topology_path, config.population_path), digests):
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert f"_sha256 = {digest}\n" in manifest


def bundled_copies(tmp_path, count: int) -> list[tuple[str, str]]:
    """``count`` distinct copies of the bundled inputs, as (topology, population)."""
    copies = []
    for copy in range(count):
        top, pop = tmp_path / f"top{copy}.graphml", tmp_path / f"pop{copy}.txt"
        top.write_bytes(Path(bundled_topology()).read_bytes() + b"\n" * copy)
        pop.write_bytes(Path(bundled_population()).read_bytes() + b"\n" * copy)
        copies.append((str(top), str(pop)))
    return copies


def count_view(monkeypatch, name: str) -> list:
    """Record each graph whose ``NetworkGraph.<name>`` view is computed."""
    graphs = []
    compute = NetworkGraph.__dict__[name].func
    view = functools.cached_property(lambda graph: graphs.append(graph) or compute(graph))
    view.__set_name__(NetworkGraph, name)
    monkeypatch.setattr(NetworkGraph, name, view)
    return graphs


def cls_bloom(top: str, pop: str, trials: int) -> ScenarioConfig:
    return ScenarioConfig(mode="cls", catchment=(1.0,), scheme="bloom", topology_path=top,
                          population_path=pop, trials=trials)


def test_sweep_builds_each_view_once_per_graph(tmp_path, monkeypatch, fresh_contexts):
    """A cls + Bloom sweep over nine copies of the bundled inputs, 20 trials
    each, computes closeness, in-arcs and out-arcs once per graph, as views
    kept on it, and the label masks once: they are keyed by value, and the
    copies share a scheme and an arc count."""
    views = {name: count_view(monkeypatch, name) for name in ("closeness", "in_arcs", "out_arcs")}
    built = []
    build = forwarding.label_masks.__wrapped__
    monkeypatch.setattr(forwarding, "label_masks", functools.cache(
        lambda scheme, n_arcs: built.append(n_arcs) or build(scheme, n_arcs)))
    run_sweep([cls_bloom(top, pop, 20) for top, pop in bundled_copies(tmp_path, 9)])
    graphs = {context.graph for context in experiment._contexts.values()}
    assert len(graphs) == 9
    for name, computed in views.items():
        assert len(computed) == 9 and set(computed) == graphs, name
    assert built == [116]


def test_dropped_context_frees_its_graph(tmp_path, fresh_contexts):
    """A second sweep that drops the context of an edited input frees its
    graph: its views live on it, and nothing outside the context keeps it."""
    (top, pop), = bundled_copies(tmp_path, 1)
    run_sweep([cls_bloom(top, pop, 2)])
    graph = weakref.ref(experiment._contexts[top, pop].graph)
    assert {"closeness", "in_arcs", "out_arcs"} <= vars(graph()).keys()
    stat = os.stat(pop)
    os.utime(pop, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    run_sweep([cls_bloom(top, pop, 2)])
    gc.collect()
    assert graph() is None and experiment._contexts[top, pop].graph is not None


def test_spawned_workers_equal_one_process(tmp_path, monkeypatch, fresh_contexts):
    """Under the spawn start method each worker loads the inputs and builds
    the graph's views itself: a cls + Bloom sweep with two workers writes
    the bytes of an in-process one."""
    pools = []
    pool = concurrent.futures.ProcessPoolExecutor

    def spawning_pool(max_workers):
        pools.append(max_workers)
        return pool(max_workers=max_workers, mp_context=multiprocessing.get_context("spawn"))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    configs = grid_configs({"placement": "cls", "fog": "2,4", "cloud": "2",
                            "catchment": "0.1,1", "scheme": "bloom", "trials": "4"})
    for jobs in (1, 2):
        run_sweep(configs, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
    assert pools == [2]
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt"):
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()


def test_cls_trial_leaves_numpy_ma_unloaded(tmp_path):
    """A ``cls`` trial that searches rows beyond the held ones loads no
    ``numpy.ma``: a plain ``np.unique`` would, at about 16 ms, under numpy 2.x."""
    top, pop = write_synthetic(tmp_path, 1)
    code = ("import sys; from fogcast.experiment import ScenarioConfig, run_trial; "
            f"run_trial(ScenarioConfig(arch='dns', mode='cls', fog_k=4, cloud_k=4, ldns_k=4, "
            f"topology_path={top!r}, population_path={pop!r}, trials=1), 0); "
            "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def count_calls(monkeypatch, name: str, module=experiment) -> list:
    """Record every call of ``module.<name>``, which still runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


# grid_dns: fog 2,4,6,8 x cloud 2,4,6,8 x pop,cls, 4 LDNS points.
GRID_DNS = {"arch": "dns", "fog": "2,4,6,8", "cloud": "2,4,6,8", "ldns": "4",
            "placement": "pop,cls", "trials": "3"}


def test_sweep_draws_once_per_trial_index(monkeypatch, fresh_contexts):
    """Trial i of every config of a grid shares one catalogue and one demand,
    built once per trial index. Trials run trial-major."""
    configs = grid_configs({"fog": "2,4,6,8", "cloud": "2,4,6,8", "catchment": "0.1,1,10",
                            "trials": "3"})
    assert len(configs) == 16
    catalogues = count_calls(monkeypatch, "build_catalogue")
    demands = count_calls(monkeypatch, "draw_demand")
    trials = count_calls(monkeypatch, "run_trial")
    run_sweep(configs)
    assert len(catalogues) == len(demands) == 3
    assert len(trials) == 16 * 3
    # Trial-major: every config runs trial i before any runs trial i + 1.
    assert [index for _, index in trials] == [i for i in range(3) for _ in configs]


def test_sweep_places_once_per_trial_index(monkeypatch, fresh_contexts):
    """Trial i of every config takes its points from one pick order per
    (mode, role), seeded ``seed ^`` the role's salt: 6 per trial index, not
    one per config and role (96)."""
    configs = grid_configs(GRID_DNS)
    assert len(configs) == 32
    context = experiment._load_context(configs[0].topology_path, configs[0].population_path)
    modes = {id(context.populations): "pop", id(context.graph.closeness): "cls"}
    orders = count_calls(monkeypatch, "PickOrder")
    run_sweep(configs)
    assert len(orders) == 6 * 3
    for index in range(3):
        seed = trial_seed(1, index)
        drawn = orders[6 * index:6 * (index + 1)]
        pairs = sorted((modes.get(id(weights)), order_seed) for weights, order_seed in drawn)
        assert pairs == sorted((mode, seed ^ salt) for mode in ("pop", "cls")
                               for salt in oracles.ROLE_SALTS.values())


def test_icn_sweep_draws_no_ldns_order(monkeypatch, fresh_contexts):
    """An icn config places no LDNS point, so a trial index draws the fog
    and cloud orders of each mode and none for the LDNS: 4 per index, not 6."""
    configs = grid_configs(dict(GRID_DNS, arch="icn", ldns="0"))
    context = experiment._load_context(configs[0].topology_path, configs[0].population_path)
    modes = {id(context.populations): "pop", id(context.graph.closeness): "cls"}
    orders = count_calls(monkeypatch, "PickOrder")
    run_sweep(configs)
    assert len(orders) == 4 * 3
    for index in range(3):
        seed = trial_seed(1, index)
        drawn = orders[4 * index:4 * (index + 1)]
        pairs = sorted((modes.get(id(weights)), order_seed) for weights, order_seed in drawn)
        assert pairs == sorted((mode, seed ^ oracles.ROLE_SALTS[role]) for mode in ("pop", "cls")
                               for role in ("fog", "cloud"))


def test_sweep_builds_each_nearest_row_once_per_trial_index(monkeypatch, fresh_contexts):
    """Trial i of every config reads the ``nearest`` row of each (mode,
    role, k) from one build per trial index: GRID_DNS's 32 configs ask for
    2 modes x (4 fog + 4 cloud + 1 LDNS) = 18 rows per index, not 96."""
    configs = grid_configs(GRID_DNS)
    rows = count_calls(monkeypatch, "nearest")
    run_sweep(configs)
    wanted = sorted({(config.mode, role, k) for config in configs
                     for role, k in (("fog", config.fog_k), ("cloud", config.cloud_k),
                                     ("ldns", config.ldns_k))})
    assert len(wanted) == 18 and len(rows) == 18 * 3
    context = experiment._load_context(configs[0].topology_path, configs[0].population_path)
    for index in range(3):
        picks, _, _ = experiment._trial_index(context, trial_seed(1, index))
        built = sorted(tuple(points) for _, points in rows[18 * index:18 * (index + 1)])
        assert built == sorted(picks(*role)[0] for role in wanted)


def test_sweep_draws_per_workload(monkeypatch, fresh_contexts):
    """Configs that differ in a field the draws read draw their own: the item
    count does, the items a fog point caches does not, so the (1000, 0.1)
    and (1000, 0.3) configs share a draw."""
    configs = [ScenarioConfig(fog_k=2, cloud_k=2, n_items=n, fog_cache_fraction=fraction,
                              trials=3)
               for n, fraction in ((500, 0.1), (1000, 0.1), (1000, 0.3))]
    catalogues = count_calls(monkeypatch, "build_catalogue")
    demands = count_calls(monkeypatch, "draw_demand")
    run_sweep(configs)
    assert len(catalogues) == len(demands) == 2 * 3
    assert [args[0] for args in catalogues] == [500, 1000] * 3


def test_shared_draws_equal_fresh_draws(monkeypatch, fresh_contexts):
    """A trial that takes the draws another config left equals one that draws
    them anew, arc by arc and hop bin by hop bin."""
    first = ScenarioConfig(fog_k=2, cloud_k=4, catchment=(0.1, 1.0), trials=3, base_seed=8)
    others = [
        dataclasses.replace(first, fog_k=6, mode="cls", scheme="bloom", count_fallback=False),
        dataclasses.replace(first, fog_cache_fraction=0.3),
        ScenarioConfig(arch="dns", fog_k=4, cloud_k=2, ldns_k=3, trials=3, base_seed=8),
    ]
    demands = count_calls(monkeypatch, "draw_demand")
    for other in others:
        for index in range(first.trials):
            run_trial(first, index)
            drawn = len(demands)
            shared = metric_bytes(run_trial(other, index))
            assert len(demands) == drawn
            fresh_contexts()
            assert metric_bytes(run_trial(other, index)) == shared
            assert len(demands) == drawn + 1


def test_sweep_walks_each_pair_once(monkeypatch, fresh_contexts):
    """Over a two-index grid_dns sweep, the flows the context's memo walks
    are exactly the distinct (root, leaf) pairs its trials ask for."""
    asked, walked = [], []
    paths, walk = topology.PathMemo.paths, topology.canonical_paths

    def asking(memo, roots, leaves):
        asked.extend(zip(roots.tolist(), leaves.tolist()))
        return paths(memo, roots, leaves)

    def walking(hops, roots, leaves):
        walked.extend(zip(roots.tolist(), leaves.tolist()))
        return walk(hops, roots, leaves)

    monkeypatch.setattr(topology.PathMemo, "paths", asking)
    monkeypatch.setattr(topology, "canonical_paths", walking)
    run_sweep(grid_configs(dict(GRID_DNS, trials="2")))
    assert len(asked) > 2 * len(set(asked))
    assert len(walked) == len(set(walked)) and set(walked) == set(asked)


def test_trial_without_fallback_builds_no_pull_origin(monkeypatch):
    """Pull origins are built only by trials that count pulls."""
    origins = count_calls(monkeypatch, "pull_origins")
    for count_fallback in (False, True):
        run_trial(ScenarioConfig(catchment=(0.1,), count_fallback=count_fallback, trials=1), 0)
        assert len(origins) == count_fallback


def test_shared_placement_equals_fresh_placement(fresh_contexts):
    """Points a config takes from a pick order others grew equal a fresh draw."""
    configs = grid_configs(dict(GRID_DNS, fog="8,2,6,4", ldns="3,1"))
    context = experiment._load_context(configs[0].topology_path, configs[0].population_path)
    graph, populations = context.graph, context.populations
    for index in range(3):
        seed = trial_seed(1, index)
        picks, _, _ = experiment._trial_index(context, seed)
        for config in configs:
            counts = (config.fog_k, config.cloud_k, config.ldns_k)
            shared = tuple(picks(config.mode, role, k)[0]
                           for role, k in zip(("fog", "cloud", "ldns"), counts))
            assert shared == fresh_placement(graph, populations, config.mode, *counts, seed)


@pytest.mark.parametrize("jobs", [1, 2])
def test_reversed_axes_give_every_config_the_same_rows(tmp_path, fresh_contexts, jobs):
    """Configs that grow a pick order in another order get the same rows."""
    reverse = dict(GRID_DNS, fog="8,6,4,2", placement="cls,pop")
    run_sweep(grid_configs(GRID_DNS), out_dir=tmp_path / "forward")
    run_sweep(grid_configs(reverse), out_dir=tmp_path / "reverse", jobs=jobs)
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv"):
        forward = (tmp_path / "forward" / name).read_text().splitlines()
        reversed_ = (tmp_path / "reverse" / name).read_text().splitlines()
        assert forward != reversed_
        assert sorted(forward) == sorted(reversed_)


def test_pool_has_no_more_workers_than_trial_indices_or_cpus(monkeypatch):
    """A pool forks all its workers at once, so ``jobs`` far past the sweep
    gets one worker per trial index or CPU, whichever is fewer, and one
    worker runs in-process. A recording pool runs the tasks in-process, so
    no worker is forked; the results equal a sequential sweep's."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for trials, cpus, workers in ((3, 64, [3]), (3, 2, [2]), (3, 1, []), (3, None, []),
                                  (1, 64, [])):
        configs = [ScenarioConfig(fog_k=k, cloud_k=2, catchment=(1.0,), trials=trials)
                   for k in (2, 4)]
        sequential = run_sweep(configs)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        assert run_sweep(configs, jobs=10**6) == sequential
        assert pools == workers, (trials, cpus)


@pytest.mark.parametrize("jobs", [1, 2])
def test_mixed_trial_counts_give_each_config_its_own_rows(tmp_path, jobs):
    """Configs of 3, 1 and 2 trials write, config by config, exactly the
    rows each writes when swept alone."""
    configs = [ScenarioConfig(fog_k=k, cloud_k=2, catchment=(0.1, 1.0), trials=trials)
               for k, trials in ((2, 3), (4, 1), (6, 2))]
    run_sweep(configs, out_dir=tmp_path / "mixed", jobs=jobs)
    for at, config in enumerate(configs):
        run_sweep([config], out_dir=tmp_path / str(at))
    for name in ("summary.csv", "pathlen.csv", "backhaul.csv"):
        alone = [line for at in range(len(configs))
                 for line in (tmp_path / str(at) / name).read_text().splitlines()[1:]]
        assert (tmp_path / "mixed" / name).read_text().splitlines()[1:] == alone
    assert len(alone) == 3 * (3 + 1 + 2)  # backhaul.csv: one row per variant and trial


def test_sweep_memory_grows_by_bytes_per_trial(tmp_path):
    """A sweep holds each (config, trial) as its variants' backhaul, 8 bytes
    each, and its manifest seed: 16 configs of 4 variants grew the traced
    peak by 40-75 bytes per (config, trial) from 10 to 60 trials, where
    lists of per-trial objects grew it by 800-890."""
    def peak(trials: int) -> int:
        configs = grid_configs({"fog": "2,4,6,8", "cloud": "2,4,6,8", "catchment": "0.1,1,10",
                                "count_fallback": "false", "trials": str(trials)})
        run_sweep(configs[:1])  # the context loads outside the trace
        tracemalloc.start()
        try:
            run_sweep(configs, out_dir=tmp_path / str(trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(60) - peak(10)) / (16 * 50) < 200


# --- grid files -------------------------------------------------------------

def test_expand_grid_cross_product():
    configs = grid_configs({
        "arch": "icn", "fog": "2,4", "cloud": "2,8", "placement": "pop",
        "catchment": "0.1,1.0", "trials": "5",
    })
    assert len(configs) == 4
    assert {(c.fog_k, c.cloud_k) for c in configs} == {(2, 2), (2, 8), (4, 2), (4, 8)}
    assert all(c.catchment == (0.1, 1.0) for c in configs)
    # A config built from lists stores tuples, so it hashes and runs; any
    # other value, a string included, is one entry.
    config = ScenarioConfig(bitrates=[20e6, 40e6], catchment=[0.1], trials=1)
    assert (config.bitrates, config.catchment) == ((20e6, 40e6), (0.1,))
    assert hash(config) == hash(dataclasses.replace(config))
    assert backhaul(run_trial(config, 0).by_catchment[0.1]) > 0
    single = ScenarioConfig(bitrates=20e6, catchment=0.1, trials=1)
    assert (single.bitrates, single.catchment) == ((20e6,), (0.1,))
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(catchment="abc")
    assert str(info.value) == "catchment interval 'abc' must be finite and >= 0"


def test_load_grid_roundtrip(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "# demo grid\n"
        "arch = dns\n"
        "placement = pop,cls\n"
        "fog = 2,4\n"
        "cloud = 2\n"
        "ldns = 2,8\n"
        "trials = 5\n"
        "seed = 7\n"
        "bitrates = 20e6,40e6\n"
        "items = 3\n"
    )
    configs = load_grid(grid)
    assert len(configs) == 8
    assert all(c.arch == "dns" and c.trials == 5 and c.base_seed == 7 and c.n_items == 3
               for c in configs)
    assert all(c.bitrates == (20e6, 40e6) for c in configs)

