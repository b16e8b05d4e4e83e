"""Scalar reference implementations that the pipeline's kernels are tested against.

Each is a plain, per-request or per-node model of one piece of a trial,
kept independent of the array kernels in ``fogcast``:

- topology: ``dom_read`` reads a GraphML document from a whole parsed
  tree (``topology._read_graphml`` streams it, and ``_graph_of`` checks
  what either read); ``all_pairs`` is the full hop table, every node's row (the
  pipeline reads only the rows it asks ``hop_table`` for); ``adjacency``
  lists each node's out-arcs in plain Python, and ``extract_path`` walks
  one canonical shortest path of an ``all_pairs`` table back from its
  leaf, one in-arc at a time (``canonical_paths`` is the kernel);
- placement: ``fresh_placement`` draws every role from a fresh pick order
  with its own weights and salts, the reference for the pick orders the
  configs of a trial index share (``picks`` of ``experiment._trial_index``);
- rendezvous: scoped names, the subscription table with nearest-subscriber
  matching (``NoSubscriberError`` when nothing matches), and shortest-path
  delivery trees;
- service routing: ``resolve_request`` resolves one request through the
  rendezvous table (``service_router.resolve_nodes`` is the kernel);
- resolver redirection: ``resolve_request_dns`` resolves one request
  through the client's nearest LDNS (the same kernel, given resolvers);
- forwarding: ``encode_tree``, ``forward`` and ``deliver`` encode and
  deliver one tree at a time (``forwarding.false_positive_arcs`` is the
  kernel), under a Bloom scheme or the exact one, one bit per arc
  (``ExactScheme``); ``fpr_theoretical`` is the Bloom false-positive
  rate the delivered trees are held to;
- the whole trial: ``reference_trial`` runs one trial from the oracles
  above, drawn afresh, resolved one request at a time and aggregated one
  (service point, item) group at a time, Bloom delivery included
  (``experiment.run_trial`` is the pipeline).
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from fogcast.experiment import (UNICAST, ScenarioConfig, TrialMetrics, TrialOutcome,
                                trial_seed, _SALT_CATALOGUE, _SALT_DEMAND)
from fogcast.forwarding import BloomScheme, label_arc
from fogcast.placement import PickOrder
from fogcast.service_router import fog_cache_items
from fogcast.topology import HopTable, NetworkGraph, hop_table, load_topology
from fogcast.workload import (CHUNK_DURATION, ServiceCatalogue, assign_population,
                              build_catalogue, draw_demand, load_population)


# --- topology -----------------------------------------------------------------

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def dom_read(source):
    """``topology._read_graphml`` from the whole parsed tree: ``ET.parse`` and
    ``findall``. It only reads; ``topology._graph_of`` checks what it read."""
    root = ET.parse(str(source)).getroot()
    keys = {key.get("attr.name", ""): key.get("id", "")
            for key in root.findall(f"{_GRAPHML_NS}key") if key.get("for") == "node"}
    graph = root.find(f"{_GRAPHML_NS}graph")
    if graph is None:
        return keys, False, [], []
    nodes = [(el.get("id"), {d.get("key"): d.text or ""
                             for d in el.findall(f"{_GRAPHML_NS}data")})
             for el in graph.findall(f"{_GRAPHML_NS}node")]
    edges = [(el.get("source"), el.get("target"))
             for el in graph.findall(f"{_GRAPHML_NS}edge")]
    return keys, True, nodes, edges


def all_pairs(graph: NetworkGraph) -> HopTable:
    """Every node's hop row: an n x n ``dist`` and ``in_arc``, ``slot[s] = s``."""
    return hop_table(graph, np.arange(graph.n_nodes))


@lru_cache(maxsize=64)
def adjacency(graph: NetworkGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node, its out-arcs as (arc id, head node) pairs in arc-id order.

    Read from the graph's ``src`` and ``dst`` arrays once per graph (a
    graph hashes by identity), so the oracles walk plain lists.
    """
    out: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_nodes)]
    for arc, (u, v) in enumerate(zip(graph.src.tolist(), graph.dst.tolist())):
        out[u].append((arc, v))
    return tuple(tuple(arcs) for arcs in out)


def extract_path(hops: HopTable, src: int, dst: int) -> list[int]:
    """Ordered arc ids of the canonical shortest path src -> dst.

    Empty when src == dst; length always equals ``dist[src, dst]``. A
    scalar oracle: ``hops`` is an ``all_pairs`` table, whose ``in_arc`` row
    of ``src`` gives the arc into each node, and that arc's source
    (``graph.src``) the node before it. A walk that has not reached ``src``
    after n arcs is no path, and raises.
    """
    path: list[int] = []
    v = dst
    for _ in range(hops.graph.n_nodes):
        if v == src:
            return path[::-1]
        arc = int(hops.in_arc[src, v])
        path.append(arc)
        v = int(hops.graph.src[arc])
    raise AssertionError(f"the in-arc walk from {dst} reached no {src} in "
                         f"{hops.graph.n_nodes} arcs")


# --- placement ----------------------------------------------------------------

# Each role's salt of the trial seed, stated apart from ``placement.ROLE_SALTS``.
ROLE_SALTS = {"fog": 0x1F09, "cloud": 0x2C10, "ldns": 0x3D25}


class Placement(NamedTuple):
    fog: tuple[int, ...]
    cloud: tuple[int, ...]
    ldns: tuple[int, ...]


def fresh_placement(graph: NetworkGraph, populations, mode: str, fog_k: int, cloud_k: int,
                    ldns_k: int, seed: int) -> Placement:
    """Each role's first k picks of its own fresh ``PickOrder``: weighted by
    population (``pop``) or closeness (``cls``), seeded ``seed ^`` the role's
    salt. What ``run_trial`` takes from the pick orders a sweep shares; the
    weights and salts are stated here, so a mode or role mixed up in
    ``experiment._trial_index`` shows."""
    weights = populations if mode == "pop" else graph.closeness
    return Placement(*(PickOrder(weights, seed ^ ROLE_SALTS[role]).first(k)
                       for role, k in (("fog", fog_k), ("cloud", cloud_k), ("ldns", ldns_k))))


# --- rendezvous ---------------------------------------------------------------

SCOPE_HTTP = "HTTP"
SCOPE_MICRO = "HTTP-Micro"
_SCOPES = (SCOPE_HTTP, SCOPE_MICRO)


@dataclass(frozen=True)
class ScopedName:
    """Hierarchical name: root scope / service FQDN / optional resource.

    The resource may be a concrete URL or a wildcard pattern with a single
    trailing ``*`` (prefix match).
    """

    root_scope: str
    service: str
    resource: str | None = None

    def __post_init__(self) -> None:
        if self.root_scope not in _SCOPES:
            raise ValueError(f"unknown root scope {self.root_scope!r}")
        if self.resource is not None:
            stars = self.resource.count("*")
            if stars > 1 or (stars == 1 and not self.resource.endswith("*")):
                raise ValueError(
                    f"wildcard pattern {self.resource!r} must hold at most "
                    "one '*', in final position"
                )


def wildcard_match(pattern: str, url: str) -> bool:
    """True iff ``url`` equals ``pattern`` or matches its ``prefix*`` form."""
    stars = pattern.count("*")
    if stars > 1 or (stars == 1 and not pattern.endswith("*")):
        raise ValueError(f"malformed wildcard pattern {pattern!r}")
    if stars == 0:
        return url == pattern
    return url.startswith(pattern[:-1])


class NoSubscriberError(LookupError):
    """A publication found no subscriber to match."""


class RendezvousTable:
    """Subscription registry with nearest-subscriber matching.

    Single writer, many readers: ``subscribe`` mutates, lookups never do.
    Within the simulator every trial owns a private table.
    """

    def __init__(self) -> None:
        self._subs: dict[ScopedName, set[int]] = {}

    def subscribe(self, name: ScopedName, node: int) -> "RendezvousTable":
        """Register ``node`` as a subscriber of ``name``. Idempotent."""
        self._subs.setdefault(name, set()).add(node)
        return self

    def subscribers(self, name: ScopedName) -> frozenset[int]:
        return frozenset(self._subs.get(name, ()))

    def _candidates(self, publication: ScopedName) -> set[int]:
        if publication.root_scope == SCOPE_HTTP:
            return set(self._subs.get(publication, ()))
        # Micro-scope publications carry a concrete URL; resolve it against
        # the registered wildcard bundles of the same service.
        found: set[int] = set()
        for name, nodes in self._subs.items():
            if name.root_scope != SCOPE_MICRO or name.service != publication.service:
                continue
            if name.resource is None or publication.resource is None:
                continue
            if wildcard_match(name.resource, publication.resource):
                found |= nodes
        return found

    def match(self, hops: HopTable, publication: ScopedName, publisher: int) -> int:
        """Subscriber of ``publication`` nearest to ``publisher``.

        Ties break to the lowest node id; a publisher that subscribed
        itself matches itself at distance 0.
        """
        candidates = self._candidates(publication)
        if not candidates:
            raise NoSubscriberError(f"no subscriber for {publication}")
        return min(candidates, key=lambda node: (int(hops.dist[publisher, node]), node))


@dataclass(frozen=True)
class MulticastTree:
    """Shortest-path delivery tree rooted at a service point."""

    root: int
    leaves: frozenset[int]
    arcs: frozenset[int]


def build_tree(hops: HopTable, root: int, leaves) -> MulticastTree:
    """Union of canonical shortest paths root -> leaf.

    Shared path prefixes contribute each arc once; the hop distance from
    the root to any leaf along the tree equals the hop-table distance.
    """
    leaves = frozenset(leaves)
    if not leaves:
        raise ValueError("tree needs at least one leaf")
    arcs: set[int] = set()
    for leaf in leaves:
        arcs.update(extract_path(hops, root, leaf))
    return MulticastTree(root=root, leaves=leaves, arcs=frozenset(arcs))


# --- service routing ----------------------------------------------------------

DEFAULT_FQDN = "svc.example.net"

# Cloud gateways advertise one resource bundle covering the whole catalogue.
_MICRO_PATTERN = "/items/*"


def item_url(item_id: int) -> str:
    return f"/items/{item_id}"


@dataclass(frozen=True)
class DeliveryLeg:
    src: int
    dst: int
    arcs: tuple[int, ...]
    bitrate: float

    @property
    def hops(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class DeliveryPlan:
    """Request-direction legs of one resolved transaction.

    ``client_path_hops`` counts the first leg only (0 when served
    locally); it is the latency proxy, independent of any fallback leg.
    """

    legs: tuple[DeliveryLeg, ...]
    client_path_hops: int

    @property
    def service_point(self) -> int:
        return self.legs[0].dst


def build_rendezvous(fog: Iterable[int], cloud: Iterable[int]) -> RendezvousTable:
    """Subscribe every gateway's offerings.

    All gateways listen for ``DEFAULT_FQDN`` under the service scope; cloud
    gateways additionally listen for the catalogue bundle under the
    micro-service scope so fog cache misses can be pulled from them.
    """
    table = RendezvousTable()
    for node in fog:
        table.subscribe(ScopedName(SCOPE_HTTP, DEFAULT_FQDN), node)
    for node in cloud:
        table.subscribe(ScopedName(SCOPE_HTTP, DEFAULT_FQDN), node)
        table.subscribe(ScopedName(SCOPE_MICRO, DEFAULT_FQDN, _MICRO_PATTERN), node)
    return table


def resolve_request(client: int, item_id: int, cloud: Iterable[int], fog_items: int,
                    table: RendezvousTable, hops: HopTable,
                    catalogue: ServiceCatalogue) -> DeliveryPlan:
    """Resolve one request into its delivery legs.

    Leg 1 goes to the nearest FQDN subscriber. If that gateway lacks the
    item (it is no cloud point and the item ranks past ``fog_items``), leg
    2 publishes the concrete URL under the micro-service scope and pulls it
    from the nearest covering cloud point.
    """
    bitrate = float(catalogue.bitrates[item_id - 1])
    service_point = table.match(hops, ScopedName(SCOPE_HTTP, DEFAULT_FQDN), client)
    legs = [DeliveryLeg(client, service_point,
                        tuple(extract_path(hops, client, service_point)), bitrate)]
    if item_id > fog_items and service_point not in cloud:
        origin = table.match(
            hops, ScopedName(SCOPE_MICRO, DEFAULT_FQDN, item_url(item_id)), service_point
        )
        legs.append(DeliveryLeg(service_point, origin,
                                tuple(extract_path(hops, service_point, origin)), bitrate))
    return DeliveryPlan(legs=tuple(legs), client_path_hops=legs[0].hops)


# --- resolver redirection -----------------------------------------------------

@dataclass(frozen=True)
class DnsConfig:
    """A baseline placement: fog points hold items ``1..fog_items``, cloud
    points every item."""

    ldns: tuple[int, ...]
    fog: tuple[int, ...]
    cloud: tuple[int, ...]
    fog_items: int

    def __post_init__(self) -> None:
        if not self.ldns:
            raise ValueError("baseline runs need at least one LDNS")
        if not self.service_points:
            raise ValueError("baseline runs need at least one service point")

    @property
    def service_points(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.fog) | set(self.cloud)))


def _nearest(origin: int, nodes: Iterable[int], hops: HopTable) -> int:
    return min(nodes, key=lambda node: (int(hops.dist[origin, node]), node))


def ldns_of(client: int, ldns_set: Iterable[int], hops: HopTable) -> int:
    """The client's local resolver: minimum hop distance, tie lowest id."""
    ldns_set = tuple(ldns_set)
    if not ldns_set:
        raise ValueError("empty LDNS set")
    return _nearest(client, ldns_set, hops)


def dns_select(ldns: int, service_points: Iterable[int], hops: HopTable) -> int:
    """Replica returned by the resolver: nearest to the LDNS, not the client."""
    service_points = tuple(service_points)
    if not service_points:
        raise ValueError("empty service point set")
    return _nearest(ldns, service_points, hops)


def resolve_request_dns(client: int, item_id: int, config: DnsConfig,
                        hops: HopTable, bitrate: float) -> DeliveryPlan:
    """Resolve one request through resolver redirection.

    Leg 1 runs to the replica the client's LDNS selected; if that replica
    lacks the item, leg 2 pulls it from the replica's nearest cloud point.
    Unicast only: the baseline has no in-network aggregation.
    """
    resolver = ldns_of(client, config.ldns, hops)
    selected = dns_select(resolver, config.service_points, hops)
    legs = [DeliveryLeg(client, selected,
                        tuple(extract_path(hops, client, selected)), bitrate)]
    if item_id > config.fog_items and selected not in config.cloud:
        if not config.cloud:
            raise ValueError("no cloud point to satisfy a cache miss")
        origin = _nearest(selected, config.cloud, hops)
        legs.append(DeliveryLeg(selected, origin,
                                tuple(extract_path(hops, selected, origin)), bitrate))
    return DeliveryPlan(legs=tuple(legs), client_path_hops=legs[0].hops)


# --- forwarding ---------------------------------------------------------------

@dataclass(frozen=True)
class ExactScheme:
    """One bit per arc; width must equal the graph's arc count."""

    width: int


Scheme = ExactScheme | BloomScheme


@lru_cache(maxsize=None)
def arc_label(scheme: Scheme, arc_id: int) -> tuple[int, ...]:
    """Bit positions of ``arc_id``: the arc id itself under the exact scheme,
    ``label_arc``'s under a Bloom scheme. Each is computed once."""
    if isinstance(scheme, BloomScheme):
        return label_arc(scheme, arc_id)
    if not 0 <= arc_id < scheme.width:
        raise ValueError(f"arc {arc_id} outside exact width {scheme.width}")
    return (arc_id,)


@dataclass(frozen=True)
class ForwardingId:
    """Fixed-width bit vector naming the arcs of one delivery tree."""

    bits: int
    scheme: Scheme

    @property
    def width(self) -> int:
        return self.scheme.width if isinstance(self.scheme, ExactScheme) else self.scheme.m

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def test(self, positions: tuple[int, ...]) -> bool:
        return all(self.bits >> p & 1 for p in positions)


def encode_tree(tree: MulticastTree, scheme: Scheme) -> ForwardingId:
    """OR together the labels of every tree arc."""
    bits = 0
    for arc_id in tree.arcs:
        for p in arc_label(scheme, arc_id):
            bits |= 1 << p
    return ForwardingId(bits=bits, scheme=scheme)


def forward(fid: ForwardingId, node: int, graph: NetworkGraph) -> set[int]:
    """Out-arcs of ``node`` whose label tests positive in ``fid``.

    Stateless: the decision is a pure function of the identifier and the
    node's arc labels.
    """
    if isinstance(fid.scheme, ExactScheme) and fid.scheme.width != graph.n_arcs:
        raise ValueError(
            f"exact fid width {fid.scheme.width} does not label a "
            f"{graph.n_arcs}-arc graph"
        )
    return {
        arc_id
        for arc_id, _ in adjacency(graph)[node]
        if fid.test(arc_label(fid.scheme, arc_id))
    }


def deliver(fid: ForwardingId, root: int, graph: NetworkGraph) -> set[int]:
    """Nodes reached by repeatedly forwarding ``fid`` from ``root``.

    A visited-arc guard makes delivery terminate on any identifier,
    including an adversarial all-ones one.
    """
    reached = {root}
    used_arcs: set[int] = set()
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for arc_id in forward(fid, node, graph):
            if arc_id in used_arcs:
                continue
            used_arcs.add(arc_id)
            dst = int(graph.dst[arc_id])
            frontier.append(dst)
            reached.add(dst)
    return reached


def fpr_theoretical(m: int, k: int, n_inserted: int) -> float:
    """Expected Bloom false-positive rate after ``n_inserted`` arcs."""
    if m < 1 or k < 1 or n_inserted < 0:
        raise ValueError("m, k must be >= 1 and n_inserted >= 0")
    if n_inserted == 0:
        return 0.0
    return (1.0 - math.exp(-k * n_inserted / m)) ** k


# --- whole trial --------------------------------------------------------------

def reference_trial(config: ScenarioConfig, index: int) -> tuple[TrialOutcome, dict[str, int]]:
    """Trial ``index`` of ``config``, one request and one group at a time.

    Draws everything afresh from the trial seed: the placement with
    ``fresh_placement`` on ``all_pairs``, the catalogue and demand with
    ``experiment``'s salts. Each request resolves through ``resolve_request``
    (icn) or ``resolve_request_dns`` (dns). Unicast charges the request on
    ``extract_path`` of each leg, point -> client and, when
    ``count_fallback`` is set, origin -> point for the pull.

    Catchment pools requests per (service point, item) group. A group's
    tree is the union of its members' paths point -> client; each tree arc
    carries the counts of the members that cross it. A group whose point
    lacks the item pulls it once, origin -> point, carrying the group total
    when ``count_fallback`` is set. Under Bloom identifiers a group with
    tree arcs is encoded (``encode_tree``) and delivered from its point;
    each carried arc (``forward`` at every ``deliver``ed node) outside the
    tree carries the group total. An arc entry of rate r adds
    ``r / (1 + r T) * bitrate * CHUNK_DURATION`` under interval T.

    Also returns how often the trial took the rarer paths: ``pulls``, the
    pull legs charged, and ``fp_arcs``, the (group, arc) pairs a Bloom
    identifier carries outside its tree.
    """
    graph = load_topology(config.topology_path)
    hops = all_pairs(graph)
    populations = assign_population(graph, load_population(config.population_path))
    seed = trial_seed(config.base_seed, index)
    placement = fresh_placement(graph, populations, config.mode, config.fog_k,
                                config.cloud_k, config.ldns_k, seed)
    catalogue = build_catalogue(config.n_items, config.alpha, config.bitrates,
                                seed ^ _SALT_CATALOGUE)
    demand = draw_demand(populations, catalogue, config.target_bitrate, seed ^ _SALT_DEMAND)
    fog_items = fog_cache_items(config.fog_cache_fraction, catalogue.n)
    table = build_rendezvous(placement.fog, placement.cloud)
    dns = (DnsConfig(placement.ldns, placement.fog, placement.cloud, fog_items)
           if config.arch == "dns" else None)
    bitrates = catalogue.bitrates.tolist()

    unicast = np.zeros(graph.n_arcs)
    client_hops, client_counts = [], []
    groups: dict[tuple[int, int], list[tuple[int, int, DeliveryPlan]]] = {}
    counters = {"pulls": 0, "fp_arcs": 0}
    for client, item, count in zip(demand.clients[demand.client_of].tolist(),
                                   demand.items.tolist(), demand.counts.tolist()):
        plan = (resolve_request_dns(client, item, dns, hops, bitrates[item - 1]) if dns else
                resolve_request(client, item, placement.cloud, fog_items, table, hops, catalogue))
        client_hops.append(plan.client_path_hops)
        client_counts.append(count)
        legs = plan.legs if config.count_fallback else plan.legs[:1]
        counters["pulls"] += len(legs) - 1
        for leg in legs:
            for arc in extract_path(hops, leg.dst, leg.src):
                unicast[arc] += count * bitrates[item - 1] * CHUNK_DURATION
        groups.setdefault((plan.service_point, item), []).append((client, count, plan))
    hop_counts = np.bincount(client_hops, weights=client_counts).astype(np.int64)
    outcome = TrialOutcome(unicast=TrialMetrics(unicast, hop_counts))
    intervals = [t for t in config.catchment if t != UNICAST]
    if not intervals:
        return outcome, counters

    entries: list[tuple[int, int, int]] = []   # (arc, rate, item)
    for (point, item), members in groups.items():
        crossing: dict[int, int] = {}
        for client, count, _ in members:
            for arc in extract_path(hops, point, client):
                crossing[arc] = crossing.get(arc, 0) + count
        entries += [(arc, rate, item) for arc, rate in crossing.items()]
        total = sum(count for _, count, _ in members)
        origins = {plan.legs[1].dst for *_, plan in members if len(plan.legs) > 1}
        if config.count_fallback and origins:
            (origin,) = origins
            entries += [(arc, total, item) for arc in extract_path(hops, origin, point)]
        if config.scheme == "bloom" and crossing:
            tree = MulticastTree(point, frozenset(client for client, *_ in members),
                                 frozenset(crossing))
            fid = encode_tree(tree, BloomScheme())
            carried = set().union(*(forward(fid, node, graph)
                                    for node in deliver(fid, point, graph)))
            counters["fp_arcs"] += len(carried - tree.arcs)
            entries += [(arc, total, item) for arc in carried - tree.arcs]
    for interval in intervals:
        load = np.zeros(graph.n_arcs)
        for arc, rate, item in entries:
            load[arc] += rate / (1.0 + rate * interval) * bitrates[item - 1] * CHUNK_DURATION
        outcome.by_catchment[interval] = TrialMetrics(load, hop_counts)
    return outcome, counters
