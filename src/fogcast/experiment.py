"""Experiment orchestration: seeded trials, sweeps, metrics and CSV output.

A trial is a deterministic function of (config, trial index): it derives a
trial seed, places service points, draws a catalogue and demand, resolves
the requests through the configured architecture and accumulates per-arc
response loads.

Resolution runs once per client node, not once per request: the service
point depends on the node alone and the fallback origin on the service
point alone (``resolve_nodes`` / ``resolve_nodes_dns``; the scalar
``resolve_request`` / ``resolve_request_dns`` are their test oracles).
Every flow is charged on one canonical root -> leaf path
(``extract_path(hops, root, leaf)``): service point -> client for the
delivery, origin -> service point for the fallback pull. Unicast,
catchment trees and Bloom delivery all read the same paths; Bloom
forwarding of every group of a trial is one ``deliver_groups`` call.

Catchment aggregation is applied analytically: each tree arc carries the
group rate of the request stream that crosses it, so aggregated load never
exceeds unicast load and shrinks monotonically with the interval, arc by
arc; a zero interval reproduces unicast.

Trials are embarrassingly parallel; seeds are derived independently of
scheduling, so parallel sweeps are byte-identical to sequential ones.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import data
from .dns_baseline import DnsConfig, resolve_nodes_dns
from .forwarding import BloomScheme, deliver_groups
from .placement import place_all
from .service_router import (
    build_rendezvous,
    group_rate,
    make_profiles,
    resolve_nodes,
)
from .topology import all_pairs, canonical_paths, load_topology
from .workload import (
    CHUNK_DURATION,
    build_catalogue,
    draw_demand,
    load_population,
    assign_population,
)

__all__ = [
    "ScenarioConfig",
    "TrialMetrics",
    "TrialOutcome",
    "SweepResult",
    "ConfigError",
    "trial_seed",
    "run_trial",
    "backhaul",
    "ecdf",
    "run_sweep",
    "load_grid",
    "expand_grid",
]

_MASK64 = (1 << 64) - 1
_SALT_CATALOGUE = 0x0C47A106
_SALT_DEMAND = 0x0DE3A2D0

BACKHAUL_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,T,trial,backhaul_bps"
PATHLEN_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,hops,cum_fraction"
SUMMARY_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,T,trials,mean_backhaul_bps,std_backhaul_bps"

# Variant key for plain unicast rows; a zero catchment interval is
# analytically identical, so the label is exact rather than conventional.
UNICAST = 0.0


class ConfigError(ValueError):
    """Raised for inconsistent scenario configurations."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment cell: topology, workload, architecture and counts."""

    arch: str = "icn"                     # icn | dns
    fog_k: int = 2
    cloud_k: int = 2
    ldns_k: int = 0
    mode: str = "pop"                     # pop | cls
    catchment: tuple[float, ...] = ()
    topology_path: str = ""
    population_path: str = ""
    n_items: int = 1000
    alpha: float = 0.8
    bitrates: tuple[float, ...] = (20e6, 40e6, 60e6)
    load_fraction: float = 0.4
    target_bitrate: float = 70e9
    trials: int = 50
    base_seed: int = 1
    count_fallback: bool = True
    scheme: str = "exact"                 # exact | bloom
    fog_cache_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.arch not in ("icn", "dns"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.mode not in ("pop", "cls"):
            raise ConfigError(f"unknown placement mode {self.mode!r}")
        if self.scheme not in ("exact", "bloom"):
            raise ConfigError(f"unknown forwarding scheme {self.scheme!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.arch == "icn" and self.ldns_k != 0:
            raise ConfigError("icn runs take no LDNS points")
        if self.arch == "dns":
            if self.ldns_k < 1:
                raise ConfigError("dns runs need at least one LDNS point")
            if self.catchment:
                raise ConfigError("dns runs support no catchment aggregation")
        if any(t < 0 for t in self.catchment):
            raise ConfigError("catchment intervals must be >= 0")
        if not self.topology_path:
            object.__setattr__(self, "topology_path", str(data.bundled_topology()))
        if not self.population_path:
            object.__setattr__(self, "population_path", str(data.bundled_population()))


@dataclass
class TrialMetrics:
    """Per-arc load plus one path-length sample per request."""

    arc_load: np.ndarray
    path_samples: np.ndarray
    offered_bitrate: float


@dataclass
class TrialOutcome:
    """Metrics of one trial: unicast plus one variant per catchment interval."""

    unicast: TrialMetrics
    by_catchment: dict[float, TrialMetrics] = field(default_factory=dict)

    def variants(self) -> dict[float, TrialMetrics]:
        out = {UNICAST: self.unicast}
        out.update(self.by_catchment)
        return out


@dataclass
class SweepResult:
    """Aggregates of all trials of one config."""

    config: ScenarioConfig
    trials: int
    mean_backhaul: dict[float, float]
    std_backhaul: dict[float, float]
    ecdf_points: list[tuple[int, float]]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Mix the base seed with a trial index into an independent stream seed."""
    return _splitmix64((base_seed & _MASK64) + _splitmix64(trial_index + 1))


@lru_cache(maxsize=8)
def _load_context(topology_path: str, population_path: str):
    graph = load_topology(topology_path)
    hops = all_pairs(graph)
    populations = assign_population(graph, load_population(population_path))
    return graph, hops, populations


def _gather(indptr: np.ndarray, path: np.ndarray, flows: np.ndarray):
    """Path arcs of ``flows[i]`` for every i, in order: (i per arc, arc)."""
    lengths = indptr[flows + 1] - indptr[flows]
    owner = np.repeat(np.arange(len(flows)), lengths)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, path[indptr[flows][owner] + offset]


def _per_arc(arcs: np.ndarray, weights: np.ndarray, n_arcs: int) -> np.ndarray:
    """Weights summed per arc, in input order; float even when empty."""
    return np.bincount(arcs, weights=weights, minlength=n_arcs).astype(np.float64, copy=False)


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialOutcome:
    """Execute one seeded trial; deterministic for fixed (config, index)."""
    graph, hops, populations = _load_context(config.topology_path, config.population_path)
    seed = trial_seed(config.base_seed, trial_index)

    roles = {
        "fog": (config.mode, config.fog_k),
        "cloud": (config.mode, config.cloud_k),
        "ldns": (config.mode, config.ldns_k),
    }
    placement = place_all(hops, populations, roles, seed)
    catalogue = build_catalogue(config.n_items, config.alpha, config.bitrates,
                                seed ^ _SALT_CATALOGUE)
    demand = draw_demand(populations, catalogue, config.load_fraction,
                         config.target_bitrate, seed ^ _SALT_DEMAND)
    profiles = make_profiles(placement.fog, placement.cloud, catalogue,
                             config.fog_cache_fraction)

    nodes, items, counts = demand.nodes, demand.items, demand.counts
    if config.arch == "dns":
        dns_config = DnsConfig(
            ldns=placement.ldns,
            service_points=tuple(sorted(set(placement.fog) | set(placement.cloud))),
            profiles=profiles,
        )
        point, origin = resolve_nodes_dns(nodes, items, dns_config, hops)
    else:
        point, origin = resolve_nodes(nodes, items, profiles, build_rendezvous(profiles), hops)
    pull = (origin >= 0) & config.count_fallback
    bitrate = catalogue.bitrates[items - 1]

    # Flows: one per client node (service point -> client), then one per
    # service point that pulls counted misses (origin -> service point).
    clients, first_at, client_flow = np.unique(nodes, return_index=True, return_inverse=True)
    pulling, pull_at, pull_flow = np.unique(point[pull], return_index=True, return_inverse=True)
    indptr, path = canonical_paths(
        hops,
        roots=np.concatenate([point[first_at], origin[pull][pull_at]]),
        leaves=np.concatenate([clients, pulling]),
    )
    request_load = counts * bitrate * CHUNK_DURATION
    flow_load = np.concatenate([
        np.bincount(client_flow, weights=request_load, minlength=len(clients)),
        np.bincount(pull_flow, weights=request_load[pull], minlength=len(pulling)),
    ])
    unicast_load = _per_arc(path, np.repeat(flow_load, np.diff(indptr)), graph.n_arcs)

    outcome = TrialOutcome(
        unicast=TrialMetrics(
            arc_load=unicast_load,
            path_samples=np.repeat(hops.dist[nodes, point], counts),
            offered_bitrate=demand.offered_bitrate,
        )
    )
    if not config.catchment:
        return outcome

    # Requests pool per (service point, item) group. Groups are numbered in
    # order of their first request, so per-arc sums keep request order.
    _, group_at, group = np.unique(point * (catalogue.n + 1) + items,
                                   return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(group_at))[group]
    group_at = np.sort(group_at)
    group_total = np.bincount(group, weights=counts)

    # Tree arcs: each arc of a group's tree carries the members crossing it.
    owner, arc = _gather(indptr, path, client_flow)
    tree_keys, tree_of = np.unique(group[owner] * graph.n_arcs + arc, return_inverse=True)
    tree_group, tree_arc = np.divmod(tree_keys, graph.n_arcs)
    entries = [(tree_group, tree_arc, np.bincount(tree_of, weights=counts[owner]))]

    if config.scheme == "bloom":
        # False-positive arcs carry the tree's full group rate
        # (conservative); exact-bit stays the headline scheme.
        carried_group, carried_arc = deliver_groups(graph, BloomScheme(), point[group_at],
                                                    tree_group, tree_arc)
        # Both key lists are sorted and every tree arc is carried.
        extra = np.ones(len(carried_arc), dtype=bool)
        extra[np.searchsorted(carried_group * graph.n_arcs + carried_arc, tree_keys)] = False
        carried_group, carried_arc = carried_group[extra], carried_arc[extra]
        entries.append((carried_group, carried_arc, group_total[carried_group]))

    # Fallback pulls: one per group whose point lacks the item.
    pulled = np.flatnonzero(pull[group_at])
    owner, arc = _gather(indptr, path,
                         len(clients) + np.searchsorted(pulling, point[group_at[pulled]]))
    entries.append((pulled[owner], arc, group_total[pulled[owner]]))

    entry_group, entry_arc, entry_rate = (np.concatenate(column) for column in zip(*entries))
    order = np.argsort(entry_group, kind="stable")
    entry_arc, entry_rate = entry_arc[order], entry_rate[order]
    entry_bitrate = bitrate[group_at][entry_group[order]]
    for interval in config.catchment:
        weights = group_rate(entry_rate, interval) * entry_bitrate * CHUNK_DURATION
        outcome.by_catchment[interval] = TrialMetrics(
            arc_load=_per_arc(entry_arc, weights, graph.n_arcs),
            path_samples=outcome.unicast.path_samples,
            offered_bitrate=demand.offered_bitrate,
        )
    return outcome


def backhaul(metrics: TrialMetrics) -> float:
    """Total backhaul: traffic summed over every arc."""
    return float(metrics.arc_load.sum())


def ecdf(samples) -> list[tuple[int, float]]:
    """Right-continuous ECDF of integer hop counts as (hops, fraction) steps."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("ecdf needs at least one sample")
    values, counts = np.unique(samples, return_counts=True)
    fractions = np.cumsum(counts) / samples.size
    return [(int(v), float(f)) for v, f in zip(values, fractions)]


def _run_configs(configs: list[ScenarioConfig], jobs: int):
    """Yield ``(config, outcomes)`` per config; one worker pool serves the sweep."""
    if jobs <= 1:
        for config in configs:
            yield config, [run_trial(config, index) for index in range(config.trials)]
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for config in configs:
            yield config, list(pool.map(run_trial, [config] * config.trials,
                                        range(config.trials)))


def _fmt(x: float) -> str:
    return repr(float(x))


def run_sweep(configs: list[ScenarioConfig], out_dir: str | Path | None = None,
              jobs: int = 1) -> list[SweepResult]:
    """Run every config, optionally writing CSV output and a run manifest.

    Output files: ``backhaul.csv`` with one row per (config, interval,
    trial); ``pathlen.csv`` with the pooled path-length ECDF per config;
    ``summary.csv`` with one aggregate row per (config, interval);
    ``manifest.txt`` echoing configs and derived seeds.
    """
    results: list[SweepResult] = []
    backhaul_rows: list[str] = []
    pathlen_rows: list[str] = []
    summary_rows: list[str] = []
    manifest: list[str] = []

    for config, outcomes in _run_configs(configs, jobs):
        prefix = f"{config.arch},{config.fog_k},{config.cloud_k},{config.ldns_k},{config.mode}"
        variant_keys = [UNICAST] + [t for t in config.catchment if t != UNICAST]
        mean: dict[float, float] = {}
        std: dict[float, float] = {}
        for key in variant_keys:
            values = np.array([backhaul(o.variants()[key]) for o in outcomes])
            mean[key] = float(values.mean())
            std[key] = float(values.std())
            for index, value in enumerate(values):
                backhaul_rows.append(f"{prefix},{_fmt(key)},{index},{_fmt(value)}")
            summary_rows.append(
                f"{prefix},{_fmt(key)},{len(outcomes)},{_fmt(mean[key])},{_fmt(std[key])}"
            )
        pooled = np.concatenate([o.unicast.path_samples for o in outcomes])
        points = ecdf(pooled)
        for hopcount, fraction in points:
            pathlen_rows.append(f"{prefix},{hopcount},{_fmt(fraction)}")
        results.append(SweepResult(config=config, trials=len(outcomes),
                                   mean_backhaul=mean, std_backhaul=std,
                                   ecdf_points=points))
        manifest.append(f"[config {len(results) - 1}]")
        for f_ in fields(config):
            manifest.append(f"{f_.name} = {getattr(config, f_.name)}")
        seeds = ",".join(str(trial_seed(config.base_seed, i)) for i in range(config.trials))
        manifest.append(f"trial_seeds = {seeds}")
        manifest.append("ecdf_pooling = all trial samples pooled per config")
        manifest.append("")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "backhaul.csv").write_text(
            "\n".join([BACKHAUL_HEADER] + backhaul_rows) + "\n")
        (out / "pathlen.csv").write_text(
            "\n".join([PATHLEN_HEADER] + pathlen_rows) + "\n")
        (out / "summary.csv").write_text(
            "\n".join([SUMMARY_HEADER] + summary_rows) + "\n")
        (out / "manifest.txt").write_text("\n".join(manifest))
    return results


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_list(raw: str) -> list:
    return [_parse_value(part) for part in raw.split(",") if part.strip()]


_GRID_KEYS = {
    "topology": "topology_path",
    "population": "population_path",
    "arch": "arch",
    "placement": "mode",
    "fog": "fog_k",
    "cloud": "cloud_k",
    "ldns": "ldns_k",
    "catchment": "catchment",
    "items": "n_items",
    "alpha": "alpha",
    "bitrates": "bitrates",
    "load_fraction": "load_fraction",
    "target_bitrate": "target_bitrate",
    "trials": "trials",
    "seed": "base_seed",
    "count_fallback": "count_fallback",
    "scheme": "scheme",
    "fog_cache_fraction": "fog_cache_fraction",
}

# Keys whose comma lists expand the grid rather than configure one run.
_SWEEP_KEYS = ("fog_k", "cloud_k", "ldns_k", "mode")


def expand_grid(settings: dict) -> list[ScenarioConfig]:
    """Cross-product of the sweep axes in a parsed grid description."""
    base = dict(settings)
    axes: list[tuple[str, list]] = []
    for key in _SWEEP_KEYS:
        value = base.pop(key, None)
        if value is None:
            continue
        axes.append((key, value if isinstance(value, list) else [value]))
    if "catchment" in base and not isinstance(base["catchment"], tuple):
        value = base["catchment"]
        base["catchment"] = tuple(value) if isinstance(value, list) else (value,)
    if "bitrates" in base and not isinstance(base["bitrates"], tuple):
        value = base["bitrates"]
        base["bitrates"] = tuple(value) if isinstance(value, list) else (value,)
    configs = [ScenarioConfig(**base)] if not axes else []
    if axes:
        def rec(i: int, acc: dict):
            if i == len(axes):
                configs.append(ScenarioConfig(**base, **acc))
                return
            key, values = axes[i]
            for v in values:
                rec(i + 1, {**acc, key: v})
        rec(0, {})
    return configs


def load_grid(path: str | Path) -> list[ScenarioConfig]:
    """Parse a ``key = value`` grid file into a config list.

    Comma-separated values of ``fog``, ``cloud``, ``ldns`` and
    ``placement`` sweep the grid; other list-valued keys configure every
    run (catchment intervals, bitrate set).
    """
    settings: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _GRID_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field_name = _GRID_KEYS[key]
        parsed = _parse_list(value) if "," in value else _parse_value(value)
        if isinstance(parsed, list) and len(parsed) == 1:
            parsed = parsed[0]
        settings[field_name] = parsed
    return expand_grid(settings)
