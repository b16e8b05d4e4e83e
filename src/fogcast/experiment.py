"""Experiment orchestration: seeded trials, sweeps, metrics and CSV output.

A trial is a deterministic function of (config, trial index): it derives a
trial seed, places service points, draws a catalogue and demand, resolves
each client node and accumulates per-arc response loads and a hop histogram.

Trials are paired: the trial seed depends on the base seed and the trial
index alone, and no sweep axis changes the draws, so trial i of every
config of a sweep serves the same catalogue and demand (common random
numbers). The configs of one trial index share one value
(``_trial_index``), which the inputs' ``_Context`` keeps for the last trial
seed; sweeps run trial-major, so each index builds each part once, when
first asked for, and keeps it in a plain dict: per workload the catalogue
and demand, and per (mode, role, k) the first k picks of the role's seeded
pick order, exactly what a fresh draw of k points gives, and their
nearest-point row (``topology.nearest``).

Resolution and unicast accounting run once per client node, not once per
request: the service point depends on the node alone and the fallback
origin on the service point alone, so requests reach the unicast pass only
as per-client sums computed with the draws: users, load, and, once per fog
cache size, load of items past it. Both architectures take the same
``resolve_nodes`` call, a few array operations on the index's rows; the
only difference is where the lookup starts, at the client (icn places no
LDNS) or at its nearest LDNS (dns). The scalar oracles of both, and of the
paths and Bloom delivery below, are in ``tests/oracles.py``.
Every flow is charged on one canonical root -> leaf path
(``canonical_paths``): one per client, service point -> client with the
client's load, and with ``count_fallback`` one per pulling point, origin ->
point with its clients' summed load past the fog cache. The hop histogram
weighs each client's hops by its users. Unicast, catchment trees and
Bloom delivery all read the same paths; one ``false_positive_arcs`` call
gives the arcs each group's Bloom identifier carries beyond its tree.
Only catchment expands the per-client facts to requests.

Every root is a placed point, so a trial reads only the hop rows of its
fog, cloud and LDNS points: whole for the nearest-point rows, at its
clients and points for the paths and hop histogram; no n x n table is
built. The context holds the rows of populated nodes, the only ones
``pop`` placement draws, searched once per context, and their path memo
(``topology.PathMemo``): a trial whose placed points are all held reads
its paths there, as its clients (populated) and pulling points (placed)
are held too, and each pair is walked once per context and process.
The memo's index is n_pop / n of the held table (294 KB at 2,000 nodes);
its arcs grow with the pairs used. A trial that places a point elsewhere
searches a table of its own points (``hop_table``) and walks its paths.

Catchment aggregation is applied analytically: each arc a group's packets
take carries the group rate, which shrinks monotonically with the interval.
On tree and fallback arcs it never exceeds the unicast rate, and a zero
interval reproduces it, so the exact scheme stays within unicast on every
arc. Bloom identifiers also pass false-positive arcs, each charged the
whole group rate (conservatively): a Bloom variant carries at least the
exact load on every arc, and can exceed unicast on those arcs. A group,
one (service point, item), is keyed ``point << item_bits | item - 1`` and
a tree arc ``group << arc_bits | arc``, with each member's integer count
in the bits below: one value sort of the members' packed path arcs and
one ``np.add.reduceat`` of their counts sum every tree arc, exactly in any
order (``_key_sums``; ``_check_fits`` keeps the packed key within 63
bits). Pulls number only the pulling requests, and their arrays are built
only when some point pulls; Bloom delivers only groups with tree arcs and
reads group totals only for false-positive arcs. ``group_rate`` takes
every interval at once, a row each, and one ``bincount`` per row sums its
entries per arc, in input order.
``tests/oracles.py`` holds the per-group reference.

Trials are embarrassingly parallel; seeds are derived independently of
scheduling, so parallel sweeps are byte-identical to sequential ones. A
sweep walks trial indices and folds each trial as it ends into its config's
backhaul array and pooled hop histogram ``hop_counts``.
"""
from __future__ import annotations

import math
import numbers
import os
import platform
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import data
from .errors import FogcastError, read_text
from .forwarding import BloomScheme, false_positive_arcs
from .placement import ROLE_SALTS, PickOrder
from .service_router import fog_cache_items, group_rate, pull_origins, resolve_nodes
from .topology import (NO_ROW, NetworkGraph, PathMemo, canonical_paths, gather, hop_table,
                       load_topology, nearest)
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
    "row_label",
    "run_sweep",
    "load_grid",
    "grid_configs",
]

_MASK64 = (1 << 64) - 1
_SALT_CATALOGUE = 0x0C47A106
_SALT_DEMAND = 0x0DE3A2D0

BACKHAUL_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,T,trial,backhaul_bps"
PATHLEN_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,hops,cum_fraction"
SUMMARY_HEADER = "arch,fog_k,cloud_k,ldns_k,mode,T,trials,mean_backhaul_bps,std_backhaul_bps"

# Largest catalogue, trials per config and user budget (target_bitrate /
# min(bitrates)) a config may ask for: every trial draws one double per user
# and holds a few arrays of n_items, and a sweep holds each trial's backhaul.
# Largest target bitrate (b/s) and catchment interval (s): request rates are
# sums of at most about MAX_USERS counts, so loads and rate * T stay finite.
MAX_ITEMS = 10**6
MAX_TRIALS = 10**5
MAX_USERS = 10**6
MAX_TARGET_BITRATE = 1e18
MAX_INTERVAL = 1e9

_contexts: dict[tuple[str, str], _Context] = {}  # by input paths, oldest first

# Variant key for plain unicast rows. A listed zero interval adds no variant:
# under Bloom identifiers it would charge false-positive arcs as unicast.
UNICAST = 0.0


class ConfigError(FogcastError):
    """Raised for inconsistent scenario configurations."""


def _finite(value) -> bool:
    """True for a finite real number; False for anything else, bool included."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


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
    target_bitrate: float = 70e9
    trials: int = 50
    base_seed: int = 1
    count_fallback: bool = True
    scheme: str = "exact"                 # exact | bloom
    fog_cache_fraction: float = 0.1

    def __post_init__(self) -> None:
        # Stored as tuples, so a config given lists still hashes; any value
        # but a list or tuple is one entry.
        for name in ("catchment", "bitrates"):
            value = getattr(self, name)
            object.__setattr__(self, name, tuple(value) if isinstance(value, (list, tuple))
                               else (value,))
        for name in ("fog_k", "cloud_k", "ldns_k", "n_items", "trials", "base_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.count_fallback, bool):
            raise ConfigError(f"count_fallback {self.count_fallback!r} must be true or false")
        if self.arch not in ("icn", "dns"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.mode not in ("pop", "cls"):
            raise ConfigError(f"unknown placement mode {self.mode!r}")
        if self.scheme not in ("exact", "bloom"):
            raise ConfigError(f"unknown forwarding scheme {self.scheme!r}")
        for name, least in (("fog_k", 0), ("cloud_k", 0), ("ldns_k", 0), ("n_items", 1),
                            ("trials", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= {least}")
        for name, most in (("n_items", MAX_ITEMS), ("trials", MAX_TRIALS)):
            if getattr(self, name) > most:
                raise ConfigError(f"{name} {getattr(self, name)} must be <= {most}")
        if not self.bitrates:
            raise ConfigError("bitrates must hold at least one value")
        for name, values, wanted, fits in (
            ("alpha", (self.alpha,), "finite and >= 0", lambda x: x >= 0),
            ("target_bitrate", (self.target_bitrate,), "finite and > 0", lambda x: x > 0),
            ("bitrates", self.bitrates, "finite and > 0", lambda x: x > 0),
            ("fog_cache_fraction", (self.fog_cache_fraction,), "in (0, 1]", lambda x: 0 < x <= 1),
            ("catchment interval", self.catchment, "finite and >= 0", lambda x: x >= 0),
        ):
            for value in values:
                if not (_finite(value) and fits(value)):
                    raise ConfigError(f"{name} {value!r} must be {wanted}")
        # The user budget, target / mean bitrate, is at most target / min.
        if self.target_bitrate / min(self.bitrates) > MAX_USERS:
            raise ConfigError(f"target_bitrate {self.target_bitrate!r} / bitrates "
                              f"{min(self.bitrates)!r} must be <= {MAX_USERS} users")
        if self.arch == "icn" and self.ldns_k != 0:
            raise ConfigError("icn runs take no LDNS points")
        if self.arch == "dns":
            if self.ldns_k < 1:
                raise ConfigError("dns runs need at least one LDNS point")
            if self.catchment:
                raise ConfigError("dns runs support no catchment aggregation")
        if self.scheme == "bloom" and not any(self.catchment):
            raise ConfigError("bloom forwarding needs a nonzero catchment interval")
        for at, t in enumerate(self.catchment):
            if t in self.catchment[:at]:
                raise ConfigError(f"catchment interval {t} repeated")
        for name in ("topology_path", "population_path"):
            if "\0" in str(getattr(self, name)):  # open() takes no such name
                raise ConfigError(f"{name} {getattr(self, name)!r} holds a NUL byte")
        if self.target_bitrate > MAX_TARGET_BITRATE:
            raise ConfigError(f"target_bitrate {self.target_bitrate!r} must be "
                              f"<= {MAX_TARGET_BITRATE:g} b/s")
        for t in self.catchment:
            if t > MAX_INTERVAL:
                raise ConfigError(f"catchment interval {t!r} must be <= {MAX_INTERVAL:g} s")
        if not self.topology_path:
            object.__setattr__(self, "topology_path", str(data.bundled_topology()))
        if not self.population_path:
            object.__setattr__(self, "population_path", str(data.bundled_population()))


@dataclass
class TrialMetrics:
    """Per-arc load plus the hop histogram: ``hop_counts[h]`` users are h
    hops from their service point."""

    arc_load: np.ndarray
    hop_counts: np.ndarray


@dataclass
class TrialOutcome:
    """Metrics of one trial: unicast plus one variant per nonzero catchment interval."""

    unicast: TrialMetrics
    by_catchment: dict[float, TrialMetrics] = field(default_factory=dict)

    def variants(self) -> dict[float, TrialMetrics]:
        return {UNICAST: self.unicast, **self.by_catchment}


@dataclass
class SweepResult:
    """Aggregates of all trials of one config."""

    config: ScenarioConfig
    trials: int
    mean_backhaul: dict[float, float]
    std_backhaul: dict[float, float]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Mix the base seed with a trial index into an independent stream seed."""
    return _splitmix64((base_seed & _MASK64) + _splitmix64(trial_index + 1))


def _sha256(path: str) -> str:
    import hashlib  # here alone: loading it costs every CLI start a few ms
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class _Context:
    """One pair of input files as loaded, and the last trial index's value."""

    graph: NetworkGraph
    memo: PathMemo  # of the populated nodes' rows: pop placement draws only them
    populations: np.ndarray
    peak_share: float  # the most populated node's share of the people
    digests: tuple[str, str]  # sha256, taken after parsing
    stamps: tuple  # each file's (size, mtime_ns), taken before parsing
    index: tuple = (None, None)  # (seed, its _trial_index value)


def _stamps(*paths: str) -> tuple:
    return tuple((s.st_size, s.st_mtime_ns) for s in map(os.stat, paths))


def _load_context(topology_path: str, population_path: str) -> _Context:
    """The context of a pair of input files, loaded on first use and kept
    until ``run_sweep`` drops it. Trials take it as held: ``run_sweep``
    checks stamps."""
    key = topology_path, population_path
    if key not in _contexts:
        stamps = _stamps(*key)
        graph = load_topology(topology_path)
        populations = assign_population(graph, load_population(population_path))
        _contexts[key] = _Context(graph, PathMemo(hop_table(graph, np.flatnonzero(populations))),
                                  populations, populations.max() / populations.sum(),
                                  tuple(map(_sha256, key)), stamps)
    return _contexts[key]


def _trial_index(context: _Context, seed: int):
    """The value the configs of one trial index share, ``(picks, row, draws)``,
    built anew (``run_trial`` keeps it in the context), each part when first asked
    for and kept in a plain dict. ``picks(mode, role, k)`` is the role's first k
    picks (no pick order drawn for k = 0) and whether the held table has their
    rows; ``row(mode, role, k, hops)`` their ``nearest`` row, read on the first
    call from ``hops``, which holds them; ``draws(n_items, alpha, bitrates,
    target_bitrate)`` the catalogue, the demand, users and load per client node
    (``demand.clients``) and a memo of that load past ``fog_items``."""
    graph, memo, populations = context.graph, context.memo, context.populations
    orders, chosen, rows, drawn = {}, {}, {}, {}

    def picks(mode: str, role: str, k: int) -> tuple[tuple[int, ...], bool]:
        if (mode, role, k) not in chosen:
            if k and (mode, role) not in orders:
                orders[mode, role] = PickOrder(populations if mode == "pop" else graph.closeness,
                                               seed ^ ROLE_SALTS[role])
            points = orders[mode, role].first(k) if k else ()
            chosen[mode, role, k] = points, (memo.hops.slot[list(points)] != NO_ROW).all()
        return chosen[mode, role, k]

    def row(mode: str, role: str, k: int, hops) -> np.ndarray | None:
        if (mode, role, k) not in rows:
            rows[mode, role, k] = nearest(hops, picks(mode, role, k)[0])
        return rows[mode, role, k]

    def draws(n_items: int, alpha: float, bitrates: tuple[float, ...], target_bitrate: float):
        workload = n_items, alpha, bitrates, target_bitrate
        if workload not in drawn:
            catalogue = build_catalogue(n_items, alpha, bitrates, seed ^ _SALT_CATALOGUE)
            demand = draw_demand(populations, catalogue, target_bitrate, seed ^ _SALT_DEMAND)
            client_of, counts, items = demand.client_of, demand.counts, demand.items
            load = counts * catalogue.bitrates[items - 1] * CHUNK_DURATION

            def per_client(weights: np.ndarray) -> np.ndarray:
                sums = np.bincount(client_of, weights=weights, minlength=len(demand.clients))
                sums.setflags(write=False)
                return sums

            past_load = lru_cache(maxsize=None)(
                lambda fog_items: per_client(np.where(items > fog_items, load, 0.0)))
            drawn[workload] = catalogue, demand, per_client(counts), per_client(load), past_load
        return drawn[workload]

    return picks, row, draws


def _per_arc(arcs: np.ndarray, weights: np.ndarray, n_arcs: int) -> np.ndarray:
    """Weights summed per arc, in input order; float even when empty."""
    return np.bincount(arcs, weights=weights, minlength=n_arcs).astype(np.float64, copy=False)


def _key_sums(packed: np.ndarray, count_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the counts summed per key, of
    entries packed ``key << count_bits | count`` with counts below
    ``2**count_bits``: one sort of the values, in place, and one
    ``np.add.reduceat`` of their low bits, exact in any order within a key."""
    packed.sort()
    keys = packed >> count_bits
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    start = first.nonzero()[0]
    packed &= (1 << count_bits) - 1
    return keys[start], np.add.reduceat(packed, start)


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialOutcome:
    """Execute one seeded trial; deterministic for fixed (config, index).
    A config its topology cannot run raises ``_check_fits``'s ``ConfigError``."""
    context = _check_fits(config)
    graph, memo, seed = context.graph, context.memo, trial_seed(config.base_seed, trial_index)
    if context.index[0] != seed:
        context.index = seed, _trial_index(context, seed)
    picks, row, draws = context.index[1]
    roles = [(config.mode, "fog", config.fog_k), (config.mode, "cloud", config.cloud_k),
             (config.mode, "ldns", config.ldns_k)]
    placed = [picks(*role) for role in roles]
    # Held points read the context's memo; others search and walk per trial.
    held = all(in_held for _, in_held in placed)
    hops = memo.hops if held else hop_table(
        graph, np.array([point for points, _ in placed for point in points], dtype=np.intp))
    paths = memo.paths if held else partial(canonical_paths, hops)
    fog_items = fog_cache_items(config.fog_cache_fraction, config.n_items)
    catalogue, demand, users, load, past_load = draws(config.n_items, config.alpha,
                                                      config.bitrates, config.target_bitrate)

    items, counts, clients, client_of = (demand.items, demand.counts, demand.clients,
                                         demand.client_of)
    fog, cloud, resolvers = (row(*role, hops) for role in roles)
    point = resolve_nodes(clients, fog, cloud, resolvers)

    # Flows: one per client node (service point -> client) with its load,
    # then with count_fallback one per pulling point (origin -> point) with
    # its clients' summed load past the fog cache, each kind in node order.
    n_nodes, n_arcs = graph.n_nodes, graph.n_arcs
    roots, leaves, flow_load, pulling = point, clients, load, ()
    if config.count_fallback:
        origin = pull_origins(fog, cloud)
        pull_load = (np.bincount(point, weights=past_load(fog_items), minlength=n_nodes)
                     * (origin >= 0))
        pulling = pull_load.nonzero()[0]
        roots, leaves, flow_load = (np.concatenate(pair) for pair in (
            (point, origin[pulling]), (clients, pulling), (load, pull_load[pulling])))
    indptr, path = paths(roots, leaves)
    lengths = indptr[1:] - indptr[:-1]
    unicast_load = _per_arc(path, flow_load.repeat(lengths), n_arcs)

    hop_counts = np.bincount(lengths[:len(clients)], weights=users)
    outcome = TrialOutcome(unicast=TrialMetrics(unicast_load, hop_counts.astype(np.int64)))
    intervals = [t for t in config.catchment if t != UNICAST]
    if not intervals:
        return outcome

    # Requests pool per (service point, item) group; the shifted keys sort as
    # (point, item) and (group, arc) do. Each arc of a group's tree carries
    # the members crossing it; one sort orders the tree arcs by group, then
    # arc, with each member's count in the bits below.
    item_bits, arc_bits = (catalogue.n - 1).bit_length(), (n_arcs - 1).bit_length()
    count_bits = int(counts.max(initial=0)).bit_length()
    point = point[client_of]
    group_key = point << item_bits | (items - 1)
    _, arc = gather(indptr, np.left_shift(path, count_bits, dtype=np.int64), client_of)
    packed = (group_key << (arc_bits + count_bits) | counts).repeat(lengths[client_of])
    packed |= arc
    tree_keys, tree_rate = _key_sums(packed, count_bits)
    tree_group, tree_arc = tree_keys >> arc_bits, tree_keys & ((1 << arc_bits) - 1)
    entries = [(tree_group, tree_arc, tree_rate)]

    if config.scheme == "bloom":
        fp_group, fp_arc = false_positive_arcs(graph, BloomScheme(), tree_group >> item_bits,
                                               tree_group, tree_arc)
        if fp_group.size:
            # False-positive arcs carry the whole group rate, conservatively.
            keys, group_total = _key_sums(group_key << count_bits | counts, count_bits)
            entries.append((fp_group, fp_arc, group_total[keys.searchsorted(fp_group)]))

    if len(pulling):
        # Fallback pulls: one per group whose point lacks the item, with the
        # group total; a miss, a counted request its point's pull flow
        # carries, depends on (point, item), so whole groups pull.
        pull_flow = np.full(n_nodes, -1)
        pull_flow[pulling] = len(clients) + np.arange(len(pulling))
        pull = (pull_flow[point] >= 0) & (items > fog_items)
        pulled, pull_total = _key_sums(group_key[pull] << count_bits | counts[pull], count_bits)
        owner, arc = gather(indptr, path, pull_flow[pulled >> item_bits])
        entries.append((pulled[owner], arc, pull_total[owner]))

    entry_group, entry_arc, entry_rate = entries[0] if len(entries) == 1 else (
        np.concatenate(column) for column in zip(*entries))
    # Every interval's weights at once, a row each, and one per-arc pass per row.
    weights = group_rate(entry_rate, np.array(intervals)[:, None])
    weights *= catalogue.bitrates[entry_group & ((1 << item_bits) - 1)]
    weights *= CHUNK_DURATION
    for interval, row_weights in zip(intervals, weights):
        outcome.by_catchment[interval] = TrialMetrics(_per_arc(entry_arc, row_weights, n_arcs),
                                                      outcome.unicast.hop_counts)
    return outcome


def backhaul(metrics: TrialMetrics) -> float:
    """Total backhaul: traffic summed over every arc."""
    return float(metrics.arc_load.sum())


def ecdf(hop_counts) -> list[tuple[int, float]]:
    """Right-continuous ECDF of a hop histogram as (hops, fraction) steps;
    ``hop_counts[h]`` samples are ``h`` hops long."""
    hop_counts = np.asarray(hop_counts)
    total = hop_counts.sum()
    if total == 0:
        raise ValueError("ecdf needs at least one sample")
    values = np.flatnonzero(hop_counts)
    fractions = np.cumsum(hop_counts[values]) / total
    return [(int(v), float(f)) for v, f in zip(values, fractions)]


def _index_rows(configs: list[ScenarioConfig], index: int) -> list[tuple[list, np.ndarray]]:
    """Trial ``index`` of every config with more trials, in config order:
    the backhaul of each variant, unicast first, and the hop histogram."""
    return [([backhaul(m) for m in outcome.variants().values()], outcome.unicast.hop_counts)
            for outcome in (run_trial(config, index) for config in configs
                            if index < config.trials)]


def _run_configs(configs: list[ScenarioConfig], jobs: int) -> list[tuple]:
    """Per config, its variant keys (unicast first), their backhaul in each
    trial (a row per variant) and its hop histogram pooled over trials.
    Trials run one trial index of every config at a time, sharing draws, and
    fold in as they end; a pool task is one index. A pool forks all its
    workers at once: ``jobs`` of them, but no more than indices or CPUs."""
    keys = [[UNICAST, *(t for t in config.catchment if t != UNICAST)] for config in configs]
    backhauls = [np.empty((len(keys[at]), config.trials)) for at, config in enumerate(configs)]
    pooled = [np.zeros(0, dtype=np.int64) for _ in configs]
    indices = range(max((config.trials for config in configs), default=0))
    jobs = min(jobs, len(indices), os.cpu_count() or 1)
    with ExitStack() as stack:
        index_map = map
        if jobs > 1:
            # Imported only here: it adds tens of ms to every start of the CLI.
            # Forked workers inherit the checked contexts; under forkserver or
            # spawn (Linux's default from Python 3.14) each loads them again.
            from concurrent.futures import ProcessPoolExecutor
            index_map = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for index, rows in enumerate(index_map(partial(_index_rows, configs), indices)):
            live = (at for at, config in enumerate(configs) if index < config.trials)
            for at, (values, hop_counts) in zip(live, rows):
                backhauls[at][:, index] = values
                if len(hop_counts) > len(pooled[at]):  # the longer one takes the sum
                    pooled[at], hop_counts = hop_counts.astype(np.int64), pooled[at]
                pooled[at][:len(hop_counts)] += hop_counts
    return list(zip(keys, backhauls, pooled))


def _fmt(x: float) -> str:
    return repr(float(x))


def row_label(config: ScenarioConfig) -> str:
    """The config's columns of every CSV row: ``arch,fog_k,cloud_k,ldns_k,mode``."""
    return f"{config.arch},{config.fog_k},{config.cloud_k},{config.ldns_k},{config.mode}"


def _check_fits(config: ScenarioConfig) -> _Context:
    """Reject a config its topology cannot run: a role with more points than
    its placement can draw, no service point at all, a miss without a
    cloud point to pull from, or catchment keys past 63 bits. Returns its
    context. The one such check: ``run_trial`` makes it first, and
    ``run_sweep`` for every config."""
    context = _load_context(config.topology_path, config.population_path)
    n, nodes = ((np.count_nonzero(context.populations), "populated nodes")
                if config.mode == "pop" else (context.graph.n_nodes, "nodes"))
    for key, k in (("fog", config.fog_k), ("cloud", config.cloud_k), ("ldns", config.ldns_k)):
        if k > n:
            raise ConfigError(f"config {row_label(config)}: {key} = {k} exceeds the {n} {nodes}")
    if config.fog_k == config.cloud_k == 0:
        raise ConfigError(f"config {row_label(config)}: no service point (fog = 0 and cloud = 0)")
    if config.cloud_k == 0 and fog_cache_items(config.fog_cache_fraction,
                                                config.n_items) < config.n_items:
        raise ConfigError(f"config {row_label(config)}: no cloud point to serve items past "
                          "the fog cache")
    if any(config.catchment):
        # A packed tree key holds a point, an item, an arc and a request's
        # count, at most the most populated node's share of the user budget.
        graph = context.graph
        users = config.target_bitrate / min(config.bitrates) * context.peak_share
        node, item, arc, count = widths = (
            (graph.n_nodes - 1).bit_length(), (config.n_items - 1).bit_length(),
            (graph.n_arcs - 1).bit_length(), (int(users) + 1).bit_length())
        if sum(widths) > 63:
            raise ConfigError(f"config {row_label(config)}: catchment keys need {node} node + "
                              f"{item} item + {arc} arc + {count} count bits = {sum(widths)}, "
                              "over 63")
    return context


def _write_new(path: Path, chunks) -> None:
    """Write ``chunks`` to a new file at ``path``: a file already there is
    unlinked first, never truncated in place or renamed over. On ext4 (its
    default ``auto_da_alloc``) closing a file truncated in place, or renaming
    a file over another, starts writing its data to disk at once; on a
    2-vCPU VM's ext4 disk that cost about 55 ms per 100 KB file."""
    path.unlink(missing_ok=True)
    with open(path, "x") as file:
        file.writelines(chunks)


def run_sweep(configs: list[ScenarioConfig], out_dir: str | Path | None = None,
              jobs: int = 1) -> list[SweepResult]:
    """Run every config, optionally writing CSV output and a run manifest.

    Every config is checked against its topology before the first trial,
    so a bad grid spends no trial and writes no file. Output files:
    ``backhaul.csv`` with one row per (config, interval, trial);
    ``pathlen.csv`` with the pooled path-length ECDF per config;
    ``summary.csv`` with the mean and population std per (config, interval);
    ``manifest.txt`` with the fogcast, Python and numpy versions, then per
    config its fields, the sha256 of its input files and its derived seeds.
    A sweep holds 8 bytes per (config, variant, trial), no per-trial object
    (``jobs`` > 1 adds ``Executor.map``'s future per trial index), and
    writes ``backhaul.csv`` row by row from them. Each output already in
    ``out_dir`` is replaced by a new file (``_write_new``).
    """
    from . import __version__  # here: the package imports this module first

    results: list[SweepResult] = []
    pathlen_rows: list[str] = []
    manifest = ["[versions]", f"fogcast = {__version__}",
                f"python = {platform.python_version()}", f"numpy = {np.__version__}", ""]
    seed_lines: dict[tuple[int, int], str] = {}  # by (base seed, trials)

    # The sweep's held pairs move to the newest end, or go when a file changed;
    # of the others, the 8 newest stay. No trial then drops a context.
    swept = dict.fromkeys((config.topology_path, config.population_path) for config in configs)
    for key in swept:
        context = _contexts.pop(key, None)
        if context is not None and context.stamps == _stamps(*key):
            _contexts[key] = context
    for key in [key for key in _contexts if key not in swept][:-8]:
        del _contexts[key]
    contexts = [_check_fits(config) for config in configs]
    runs = _run_configs(configs, jobs)
    for config, context, (keys, values, pooled) in zip(configs, contexts, runs):
        prefix = row_label(config)
        if not pooled.any():
            raise ConfigError(f"config {prefix}: no trial drew a request")
        pathlen_rows.extend(f"{prefix},{hops},{_fmt(fraction)}" for hops, fraction in ecdf(pooled))
        # One reduction per block: each row sums in the order np.mean(row) uses.
        results.append(SweepResult(config, config.trials,
                                   dict(zip(keys, values.mean(axis=1).tolist())),
                                   dict(zip(keys, values.std(axis=1).tolist()))))
        manifest.append(f"[config {len(results) - 1}]")
        for f_ in fields(config):
            manifest.append(f"{f_.name} = {getattr(config, f_.name)}")
        manifest.append(f"topology_sha256 = {context.digests[0]}")
        manifest.append(f"population_sha256 = {context.digests[1]}")
        seeds = (config.base_seed, config.trials)
        if seeds not in seed_lines:
            seed_lines[seeds] = "trial_seeds = " + ",".join(
                str(trial_seed(config.base_seed, i)) for i in range(config.trials))
        manifest.append(seed_lines[seeds])
        manifest.append("ecdf_pooling = all trial samples pooled per config")
        manifest.append("")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        prefixes = [[f"{row_label(config)},{_fmt(key)}," for key in keys]
                    for config, (keys, _, _) in zip(configs, runs)]
        for name, header, lines in (
                ("backhaul.csv", BACKHAUL_HEADER,
                 (f"{prefix}{index},{value!r}"
                  for labels, (_, values, _) in zip(prefixes, runs)
                  for prefix, row in zip(labels, values)
                  for index, value in enumerate(row.tolist()))),
                ("pathlen.csv", PATHLEN_HEADER, pathlen_rows),
                ("summary.csv", SUMMARY_HEADER,
                 (f"{prefix}{r.trials},{mean!r},{std!r}" for labels, r in zip(prefixes, results)
                  for prefix, mean, std in zip(labels, r.mean_backhaul.values(),
                                               r.std_backhaul.values())))):
            _write_new(out / name, (f"{line}\n" for line in chain([header], lines)))
        _write_new(out / "manifest.txt", ["\n".join(manifest)])
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


def _parse_list(key: str, raw: str) -> list:
    """The values of a comma list; one with an empty item is rejected."""
    parts = [part.strip() for part in raw.split(",")]
    if not all(parts):
        raise ConfigError(f"{key} must hold at least one value" if not any(parts)
                          else f"{key} {raw.strip()!r} holds an empty item")
    return [_parse_value(part) for part in parts]


GRID_KEYS = {
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
    "target_bitrate": "target_bitrate",
    "trials": "trials",
    "seed": "base_seed",
    "count_fallback": "count_fallback",
    "scheme": "scheme",
    "fog_cache_fraction": "fog_cache_fraction",
}

# Sweep axes, config field to grid key: their comma lists expand the grid.
_SWEEP_KEYS = {"fog_k": "fog", "cloud_k": "cloud", "ldns_k": "ldns", "mode": "placement"}


def grid_configs(raw: dict[str, str]) -> list[ScenarioConfig]:
    """The configs of a grid given as ``{grid key: raw value}``.

    Comma-separated values of ``fog``, ``cloud``, ``ldns`` and
    ``placement`` sweep the grid; other list-valued keys configure every
    run (catchment intervals, bitrate set); file paths are taken as given.
    No sweep axis may repeat a value.
    ``fogcast run`` passes its flags here, so a flag reads as its grid line does.
    """
    settings: dict = {}
    for key, value in raw.items():
        parsed = (value.strip() if key in ("topology", "population") else
                  _parse_list(key, value) if "," in value else _parse_value(value))
        settings[GRID_KEYS[key]] = parsed
    axes: dict[str, list] = {}
    for key in _SWEEP_KEYS:
        value = settings.pop(key, None)
        if value is not None:
            axes[key] = value if isinstance(value, list) else [value]
    configs = [ScenarioConfig(**settings, **dict(zip(axes, combo)))
               for combo in product(*axes.values())]
    # Compared after ScenarioConfig has checked their types, as 1 == True.
    for key, values in axes.items():
        for at, value in enumerate(values):
            if value in values[:at]:
                raise ConfigError(f"{_SWEEP_KEYS[key]} {value} repeated")
    return configs


def load_grid(path: str | Path) -> list[ScenarioConfig]:
    """Read a ``key = value`` grid file into ``grid_configs``; a key may
    appear once."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in GRID_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated "
                              f"(first on line {first_line[key]})")
        raw[key], first_line[key] = value, lineno
    return grid_configs(raw)
