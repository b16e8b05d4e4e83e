from __future__ import annotations

import dataclasses

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
    expand_grid,
    load_grid,
    run_sweep,
    run_trial,
    trial_seed,
    _SALT_CATALOGUE,
    _SALT_DEMAND,
)
from conftest import random_connected_graph
from fogcast import dns_baseline, experiment, forwarding, rendezvous, service_router, topology
from fogcast.dns_baseline import DnsConfig, resolve_nodes_dns, resolve_request_dns
from fogcast.forwarding import BloomScheme, deliver, encode_tree, forward
from fogcast.placement import place_all
from fogcast.rendezvous import MulticastTree
from fogcast.service_router import build_rendezvous, make_profiles, resolve_nodes, resolve_request
from fogcast.topology import all_pairs, extract_path, load_topology
from fogcast.workload import assign_population, build_catalogue, draw_demand, load_population

GRAPHML_HEADER = (
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    '<key attr.name="Latitude" attr.type="double" for="node" id="d0" />'
    '<key attr.name="Longitude" attr.type="double" for="node" id="d1" />'
    '<key attr.name="label" attr.type="string" for="node" id="d2" />'
    '<graph edgedefault="undirected">'
)


def write_graphml(path, coords, edges):
    nodes = "".join(
        f'<node id="{i}"><data key="d0">{lat}</data><data key="d1">{lon}</data>'
        f"<data key=\"d2\">{label}</data></node>"
        for i, (label, lat, lon) in enumerate(coords)
    )
    arcs = "".join(f'<edge source="{u}" target="{v}" />' for u, v in edges)
    path.write_text(GRAPHML_HEADER + nodes + arcs + "</graph></graphml>")


@pytest.fixture()
def single_node_setup(tmp_path):
    top = tmp_path / "one.graphml"
    write_graphml(top, [("solo", 50.0, 8.0)], [])
    pop = tmp_path / "one.txt"
    pop.write_text("50.0,8.0,1000\n")
    return str(top), str(pop)


@pytest.fixture()
def chain_setup(tmp_path):
    top = tmp_path / "chain.graphml"
    write_graphml(
        top,
        [("a", 50.0, 0.0), ("b", 50.0, 1.0), ("c", 50.0, 2.0), ("d", 50.0, 3.0)],
        [(0, 1), (1, 2), (2, 3)],
    )
    pop = tmp_path / "chain.txt"
    pop.write_text("50.0,0.0,40\n50.0,1.0,30\n50.0,2.0,20\n50.0,3.0,10\n")
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
    assert (outcome.unicast.path_samples == 0).all()
    assert len(outcome.unicast.path_samples) > 0
    for metrics in outcome.by_catchment.values():
        assert backhaul(metrics) == 0.0


def test_trial_without_demand_has_zero_float_loads(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(arch="icn", fog_k=1, cloud_k=1, catchment=(1.0,), load_fraction=0.0,
                            topology_path=top, population_path=pop, n_items=3, trials=1)
    outcome = run_trial(config, 0)
    assert outcome.unicast.path_samples.size == 0
    for metrics in outcome.variants().values():
        assert metrics.arc_load.dtype == np.float64
        assert backhaul(metrics) == 0.0


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
    assert (first.unicast.path_samples == second.unicast.path_samples).all()
    other = run_trial(config, 1)
    assert not (first.unicast.arc_load == other.unicast.arc_load).all()


def test_trial_loads_match_manual_flow_enumeration(chain_setup):
    """Recompute tiny trials step by step and enumerate their flows by hand.

    Each flow is charged on its canonical path: service point -> client,
    and origin -> service point for a fallback pull. The bundled backbone
    has node pairs whose canonical paths differ from reversed request paths.
    """
    pulls = 0
    for top, pop in (chain_setup, ("", "")):
        config = ScenarioConfig(
            arch="icn", fog_k=2, cloud_k=2, topology_path=top, population_path=pop,
            n_items=30, bitrates=(20e6,), target_bitrate=1e9, trials=1, base_seed=2,
        )
        outcome = run_trial(config, 0)

        graph = load_topology(config.topology_path)
        hops = all_pairs(graph)
        populations = assign_population(graph, load_population(config.population_path))
        seed = trial_seed(config.base_seed, 0)
        placement = place_all(
            hops, populations,
            {"fog": ("pop", 2), "cloud": ("pop", 2), "ldns": ("pop", 0)}, seed,
        )
        catalogue = build_catalogue(30, 0.8, (20e6,), seed ^ _SALT_CATALOGUE)
        demand = draw_demand(populations, catalogue, 0.4, 1e9, seed ^ _SALT_DEMAND)
        profiles = make_profiles(placement.fog, placement.cloud, catalogue)
        table = build_rendezvous(profiles)

        expected = np.zeros(graph.n_arcs)
        expected_samples = []
        for (node, item), count in demand.requests.items():
            plan = resolve_request(node, item, profiles, table, hops, catalogue)
            expected_samples.extend([plan.client_path_hops] * count)
            point = plan.service_point
            flows = [(point, node)] + [(leg.dst, point) for leg in plan.legs[1:]]
            pulls += len(flows) - 1
            for root, leaf in flows:
                for arc in extract_path(hops, root, leaf):
                    expected[arc] += count * 20e6
        assert outcome.unicast.arc_load == pytest.approx(expected)
        assert list(outcome.unicast.path_samples) == expected_samples
        assert outcome.unicast.offered_bitrate == demand.offered_bitrate
    assert pulls > 0


def _resolution_cases():
    """The bundled backbone, then 50 random graphs, each with a placement
    where one node is both fog and cloud."""
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


def test_per_node_kernel_matches_scalar_resolvers(monkeypatch):
    catalogue = build_catalogue(20, 0.8, (20e6,), seed=3)
    ties = 0
    for hops, fog, cloud, ldns, nodes, items in _resolution_cases():
        profiles = make_profiles(fog, cloud, catalogue, fog_cache_fraction=0.25)
        table = build_rendezvous(profiles)
        dns_config = DnsConfig(ldns=tuple(ldns), profiles=profiles,
                               service_points=tuple(sorted(set(fog) | set(cloud))))
        kernels = {
            "icn": resolve_nodes(nodes, items, profiles, table, hops),
            "dns": resolve_nodes_dns(nodes, items, dns_config, hops),
        }
        for i, (node, item) in enumerate(zip(nodes.tolist(), items.tolist())):
            oracles = {
                "icn": resolve_request(node, item, profiles, table, hops, catalogue),
                "dns": resolve_request_dns(node, item, dns_config, hops, 20e6),
            }
            for arch, plan in oracles.items():
                point, origin = kernels[arch]
                assert point[i] == plan.service_point, (arch, node, item)
                assert origin[i] == (plan.legs[1].dst if len(plan.legs) > 1 else -1)
                assert hops.dist[node, point[i]] == plan.client_path_hops
            ties += sum(hops.dist[node, p] == hops.dist[node, oracles["icn"].service_point]
                        for p in profiles) > 1
    assert ties > 0

    # Trials route through the per-node kernel alone.
    def refuse(*args, **kwargs):
        raise AssertionError("per-request routing called inside a trial")

    for module, name in ((service_router, "resolve_request"),
                         (dns_baseline, "resolve_request_dns"),
                         (experiment, "resolve_request"),
                         (experiment, "resolve_request_dns"),
                         (experiment, "extract_path"),
                         (service_router, "extract_path"),
                         (dns_baseline, "extract_path"),
                         (rendezvous, "extract_path"),
                         (topology, "extract_path")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(rendezvous.RendezvousTable, "match", refuse)
    for config in (ScenarioConfig(arch="icn", fog_k=4, cloud_k=4, catchment=(1.0,), trials=1),
                   ScenarioConfig(arch="dns", fog_k=4, cloud_k=4, ldns_k=4, trials=1)):
        assert backhaul(run_trial(config, 0).unicast) > 0


def test_sample_count_equals_request_count(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=2, cloud_k=1, topology_path=top, population_path=pop,
        n_items=3, target_bitrate=2e9, trials=1,
    )
    outcome = run_trial(config, 0)
    assert outcome.unicast.path_samples.size > 0


def test_catchment_monotone_and_bounded_by_unicast(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, catchment=(0.1, 1.0, 10.0),
        topology_path=top, population_path=pop, n_items=3,
        target_bitrate=2e9, trials=1,
    )
    for index in range(5):
        outcome = run_trial(config, index)
        uni = backhaul(outcome.unicast)
        b01 = backhaul(outcome.by_catchment[0.1])
        b1 = backhaul(outcome.by_catchment[1.0])
        b10 = backhaul(outcome.by_catchment[10.0])
        assert b10 <= b1 <= b01 <= uni


@pytest.mark.parametrize("count_fallback", [True, False])
@pytest.mark.parametrize("fog_k,cloud_k", [(2, 2), (2, 8), (8, 2), (8, 8)])
def test_catchment_loads_arc_by_arc_on_bundled_backbone(fog_k, cloud_k, count_fallback):
    """T = 0 reproduces unicast, and T1 < T2 gives load(T2) <= load(T1) <=
    unicast, on every arc."""
    intervals = (0.0, 0.1, 1.0, 10.0)
    config = ScenarioConfig(arch="icn", fog_k=fog_k, cloud_k=cloud_k, catchment=intervals,
                            count_fallback=count_fallback, trials=10, base_seed=3)
    for index in range(config.trials):
        outcome = run_trial(config, index)
        unicast = outcome.unicast.arc_load
        loads = [outcome.by_catchment[t].arc_load for t in intervals]
        assert loads[0] == pytest.approx(unicast, rel=1e-12, abs=0)
        for smaller, larger in zip(loads, loads[1:]):
            assert (larger <= smaller).all()
        assert (loads[1] <= unicast).all()


def test_zero_interval_catchment_equals_unicast_total(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, catchment=(0.0,),
        topology_path=top, population_path=pop, n_items=3,
        target_bitrate=2e9, trials=1,
    )
    outcome = run_trial(config, 0)
    assert backhaul(outcome.by_catchment[0.0]) == pytest.approx(backhaul(outcome.unicast))


def test_backhaul_additivity_over_requests(chain_setup):
    """Unicast backhaul equals the sum of per-request bitrate x hops."""
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="icn", fog_k=1, cloud_k=1, count_fallback=False,
        topology_path=top, population_path=pop, n_items=3,
        bitrates=(20e6,), target_bitrate=1e9, trials=1, base_seed=6,
    )
    outcome = run_trial(config, 0)
    per_request = 20e6 * outcome.unicast.path_samples.sum()
    assert backhaul(outcome.unicast) == pytest.approx(per_request)


def test_dns_trial_runs_without_catchment(chain_setup):
    top, pop = chain_setup
    config = ScenarioConfig(
        arch="dns", fog_k=1, cloud_k=1, ldns_k=1,
        topology_path=top, population_path=pop, n_items=3,
        target_bitrate=2e9, trials=1,
    )
    outcome = run_trial(config, 0)
    assert outcome.by_catchment == {}
    assert backhaul(outcome.unicast) >= 0.0


def test_bloom_scheme_only_adds_load(chain_setup):
    top, pop = chain_setup
    base = dict(
        arch="icn", fog_k=1, cloud_k=1, catchment=(1.0,),
        topology_path=top, population_path=pop, n_items=3,
        target_bitrate=2e9, trials=1, base_seed=9,
    )
    exact = run_trial(ScenarioConfig(**base, scheme="exact"), 0)
    bloom = run_trial(ScenarioConfig(**base, scheme="bloom"), 0)
    assert (exact.unicast.arc_load == bloom.unicast.arc_load).all()
    assert backhaul(bloom.by_catchment[1.0]) >= backhaul(exact.by_catchment[1.0])
    assert (bloom.by_catchment[1.0].arc_load >= exact.by_catchment[1.0].arc_load - 1e-9).all()


def _per_group_bloom_loop(graph, scheme, roots, tree_group, tree_arc, fp_arcs):
    """Stand-in for ``deliver_groups``: the loop trials ran before the kernel,
    encoding, delivering and forwarding one group at a time. Counts the
    carried arcs outside each tree into ``fp_arcs[scheme]``."""
    bounds = np.searchsorted(tree_group, np.arange(len(roots) + 1))
    groups, arcs = [], []
    for g in np.unique(tree_group).tolist():
        root = int(roots[g])
        tree = MulticastTree(root=root, leaves=frozenset(),
                             arcs=frozenset(tree_arc[bounds[g]:bounds[g + 1]].tolist()))
        fid = encode_tree(tree, scheme)
        carried: set[int] = set()
        for node in deliver(fid, root, graph):
            carried |= forward(fid, node, graph)
        fp_arcs[scheme] = fp_arcs.get(scheme, 0) + len(carried - tree.arcs)
        groups += [g] * len(carried)
        arcs += sorted(carried)
    return np.array(groups, dtype=np.intp), np.array(arcs, dtype=np.intp)


def test_seeded_bloom_trial_equals_per_group_loop(monkeypatch):
    """Kernel trials equal the per-group loop byte for byte, under the default
    scheme (no false positive on the bundled backbone, so equal to the exact
    scheme too) and a 16-bit one (many); trials call no scalar forwarding
    and label each arc once."""
    configs = [ScenarioConfig(arch="icn", fog_k=f, cloud_k=c, catchment=(0.1, 1.0, 10.0),
                              scheme="bloom", count_fallback=fallback, base_seed=7)
               for f, c, fallback in ((4, 4, True), (2, 8, False), (8, 2, True))]
    schemes = (BloomScheme(), BloomScheme(m=16, k=2))
    expected = {}
    fp_arcs = {}
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "deliver_groups",
                      lambda *args: _per_group_bloom_loop(*args, fp_arcs))
        for scheme in schemes:
            patch.setattr(experiment, "BloomScheme", lambda scheme=scheme: scheme)
            expected[scheme] = [run_trial(c, i) for c in configs for i in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("scalar forwarding called inside a trial")

    labels = []
    label_arc = forwarding.label_arc

    def counting_label_arc(scheme, arc_id):
        labels.append((scheme, arc_id))
        return label_arc(scheme, arc_id)

    for name in ("forward", "deliver", "encode_tree"):
        monkeypatch.setattr(forwarding, name, refuse)
    monkeypatch.setattr(forwarding, "label_arc", counting_label_arc)
    monkeypatch.setattr(forwarding, "_MASK_TABLES", {})
    exact = [run_trial(dataclasses.replace(c, scheme="exact"), i)
             for c in configs for i in range(2)]
    assert fp_arcs[schemes[0]] == 0 and fp_arcs[schemes[1]] > 0
    for scheme in schemes:
        monkeypatch.setattr(experiment, "BloomScheme", lambda scheme=scheme: scheme)
        got = [run_trial(c, i) for c in configs for i in range(2)]
        for want, have in zip(expected[scheme], got):
            assert want.variants().keys() == have.variants().keys()
            for key, metrics in want.variants().items():
                assert metrics.arc_load.tobytes() == have.variants()[key].arc_load.tobytes()
    # No false positive: Bloom trials equal exact ones; many: they add load.
    for want, have in zip(exact, expected[schemes[0]]):
        for key, metrics in want.variants().items():
            assert metrics.arc_load.tobytes() == have.variants()[key].arc_load.tobytes()
    assert backhaul(got[0].by_catchment[1.0]) > backhaul(exact[0].by_catchment[1.0])
    n_arcs = experiment._load_context(configs[0].topology_path,
                                      configs[0].population_path)[0].n_arcs
    assert len(labels) == len(set(labels)) == len(schemes) * n_arcs

# --- metrics ----------------------------------------------------------------

def test_backhaul_sums_a_three_hop_flow():
    load = np.zeros(10)
    for arc in (0, 4, 7):
        load[arc] += 20e6
    metrics = TrialMetrics(arc_load=load, path_samples=np.array([3]), offered_bitrate=20e6)
    assert backhaul(metrics) == pytest.approx(60e6)


def test_backhaul_of_empty_load_map_is_zero():
    metrics = TrialMetrics(arc_load=np.zeros(4), path_samples=np.array([0]), offered_bitrate=0)
    assert backhaul(metrics) == 0.0


def test_ecdf_steps():
    assert ecdf([0, 0, 2, 2]) == [(0, 0.5), (2, 1.0)]


def test_ecdf_single_value():
    assert ecdf([5, 5, 5]) == [(5, 1.0)]


def test_ecdf_rejects_empty_input():
    with pytest.raises(ValueError):
        ecdf([])


def test_ecdf_is_a_cdf():
    rng = np.random.default_rng(1)
    samples = rng.integers(0, 15, size=500)
    points = ecdf(samples)
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


def test_sweep_byte_identical_sequential_and_parallel(chain_setup, tmp_path):
    top, pop = chain_setup
    configs = [
        ScenarioConfig(arch="icn", fog_k=k, cloud_k=1, catchment=(0.1,),
                       topology_path=top, population_path=pop, n_items=3,
                       target_bitrate=2e9, trials=3)
        for k in (1, 2)
    ]
    for label, jobs in (("a", 1), ("b", 1), ("c", 2)):
        run_sweep(configs, out_dir=tmp_path / label, jobs=jobs)
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == a
        assert (tmp_path / "c" / name).read_bytes() == a


def test_manifest_lists_trial_seeds(chain_setup, tmp_path):
    top, pop = chain_setup
    config = ScenarioConfig(arch="icn", fog_k=1, cloud_k=1, topology_path=top,
                            population_path=pop, n_items=3, target_bitrate=2e9,
                            trials=2, base_seed=42)
    run_sweep([config], out_dir=tmp_path / "out")
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert str(trial_seed(42, 0)) in manifest
    assert str(trial_seed(42, 1)) in manifest


# --- grid files -------------------------------------------------------------

def test_expand_grid_cross_product():
    configs = expand_grid({
        "arch": "icn", "fog_k": [2, 4], "cloud_k": [2, 8], "mode": ["pop"],
        "catchment": [0.1, 1.0], "trials": 5,
    })
    assert len(configs) == 4
    assert {(c.fog_k, c.cloud_k) for c in configs} == {(2, 2), (2, 8), (4, 2), (4, 8)}
    assert all(c.catchment == (0.1, 1.0) for c in configs)


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
    )
    configs = load_grid(grid)
    assert len(configs) == 8
    assert all(c.arch == "dns" and c.trials == 5 and c.base_seed == 7 for c in configs)
    assert all(c.bitrates == (20e6, 40e6) for c in configs)


def test_load_grid_rejects_unknown_keys(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError):
        load_grid(grid)


def test_load_grid_rejects_bad_lines(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("just some words\n")
    with pytest.raises(ConfigError):
        load_grid(grid)
