"""Service-router behaviour: offerings, request resolution, aggregation.

Fog and cloud gateways subscribe their offerings into the rendezvous
table; a request resolves to the nearest offering, with a second leg to a
cloud point when the matched fog gateway lacks the concrete resource.
Quasi-synchronous requests for the same resource at the same service point
are merged within a catchment interval so one response serves the group.

``resolve_nodes`` is the resolver trials use: the match depends on the
client node only, so it runs once per node. ``resolve_request`` resolves
one request through the rendezvous table and stays as its test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rendezvous import (
    SCOPE_HTTP,
    SCOPE_MICRO,
    MulticastTree,
    NoSubscriberError,
    RendezvousTable,
    ScopedName,
)
from .topology import HopTable, extract_path, nearest
from .workload import CHUNK_DURATION, ServiceCatalogue

__all__ = [
    "DEFAULT_FQDN",
    "SRProfile",
    "DeliveryLeg",
    "DeliveryPlan",
    "CatchmentGroup",
    "item_url",
    "make_profiles",
    "build_rendezvous",
    "resolve_request",
    "resolve_nodes",
    "cache_misses",
    "catchment_group",
    "group_rate",
    "multicast_load",
]

DEFAULT_FQDN = "svc.example.net"

# Cloud gateways advertise one resource bundle covering the whole catalogue.
_MICRO_PATTERN = "/items/*"


def item_url(item_id: int) -> str:
    return f"/items/{item_id}"


@dataclass(frozen=True)
class SRProfile:
    """One service gateway: its role, cache contents and offered service."""

    node_id: int
    role: str  # "fog" | "cloud"
    cached_items: frozenset[int]
    offered_fqdn: str = DEFAULT_FQDN


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


def make_profiles(fog_nodes: Iterable[int], cloud_nodes: Iterable[int],
                  catalogue: ServiceCatalogue, fog_cache_fraction: float = 0.1,
                  fqdn: str = DEFAULT_FQDN) -> dict[int, SRProfile]:
    """Build gateway profiles for a placement.

    Cloud points cache the full catalogue; fog points cache the top
    ``fog_cache_fraction`` of items by popularity (at least one). A node
    placed in both roles keeps the cloud profile.
    """
    if not 0.0 < fog_cache_fraction <= 1.0:
        raise ValueError("fog_cache_fraction outside (0, 1]")
    top = max(1, int(fog_cache_fraction * catalogue.n))
    fog_cache = frozenset(range(1, top + 1))
    full_cache = frozenset(range(1, catalogue.n + 1))
    profiles: dict[int, SRProfile] = {}
    for node in fog_nodes:
        profiles[node] = SRProfile(node, "fog", fog_cache, fqdn)
    for node in cloud_nodes:
        profiles[node] = SRProfile(node, "cloud", full_cache, fqdn)
    return profiles


def build_rendezvous(profiles: dict[int, SRProfile]) -> RendezvousTable:
    """Subscribe every gateway's offerings.

    All gateways listen for their FQDN under the service scope; cloud
    gateways additionally listen for the catalogue bundle under the
    micro-service scope so fog cache misses can be pulled from them.
    """
    table = RendezvousTable()
    for profile in profiles.values():
        table.subscribe(ScopedName(SCOPE_HTTP, profile.offered_fqdn), profile.node_id)
        if profile.role == "cloud":
            table.subscribe(
                ScopedName(SCOPE_MICRO, profile.offered_fqdn, _MICRO_PATTERN),
                profile.node_id,
            )
    return table


def resolve_request(client: int, item_id: int, profiles: dict[int, SRProfile],
                    table: RendezvousTable, hops: HopTable,
                    catalogue: ServiceCatalogue,
                    fqdn: str = DEFAULT_FQDN) -> DeliveryPlan:
    """Resolve one request into its delivery legs.

    Leg 1 goes to the nearest FQDN subscriber. If that gateway lacks the
    item, leg 2 publishes the concrete URL under the micro-service scope
    and pulls it from the nearest covering cloud point.
    """
    bitrate = catalogue.bitrate(item_id)
    service_point = table.match(hops, ScopedName(SCOPE_HTTP, fqdn), client)
    legs = [DeliveryLeg(client, service_point,
                        tuple(extract_path(hops, client, service_point)), bitrate)]
    if item_id not in profiles[service_point].cached_items:
        origin = table.match(
            hops, ScopedName(SCOPE_MICRO, fqdn, item_url(item_id)), service_point
        )
        legs.append(DeliveryLeg(service_point, origin,
                                tuple(extract_path(hops, service_point, origin)), bitrate))
    return DeliveryPlan(legs=tuple(legs), client_path_hops=legs[0].hops)


def cache_misses(profiles: dict[int, SRProfile], points: np.ndarray,
                 items: np.ndarray) -> np.ndarray:
    """Per request: True where gateway ``points[i]`` does not cache ``items[i]``."""
    width = int(items.max(initial=0)) + 1
    held: dict[frozenset[int], np.ndarray] = {}  # one lookup row per distinct cache
    miss = np.zeros(len(items), dtype=bool)
    for node in set(points.tolist()):
        cached = profiles[node].cached_items
        if cached not in held:
            ids = np.fromiter(cached, dtype=np.intp, count=len(cached))
            held[cached] = np.zeros(width, dtype=bool)
            held[cached][ids[ids < width]] = True
        here = points == node
        miss[here] = ~held[cached][items[here]]
    return miss


def resolve_nodes(nodes: np.ndarray, items: np.ndarray, profiles: dict[int, SRProfile],
                  table: RendezvousTable, hops: HopTable) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the requests ``(nodes[i], items[i])`` once per node.

    Every node is matched once to its nearest FQDN subscriber, and every
    node once to its nearest catalogue-bundle subscriber (ties to the
    lowest id, as in ``RendezvousTable.match``); a request reads its
    node's match and tests its item against that gateway's cache. Returns
    per-request ``(service point, fallback origin)``, the origin -1 where
    the point caches the item. The bundle subscription covers every
    item URL, as ``build_rendezvous`` registers it.
    """
    service = ScopedName(SCOPE_HTTP, DEFAULT_FQDN)
    point = nearest(hops, table.subscribers(service))[nodes]
    if (point < 0).any():
        raise NoSubscriberError(f"no subscriber for {service}")
    miss = cache_misses(profiles, point, items)
    clouds = table.subscribers(ScopedName(SCOPE_MICRO, DEFAULT_FQDN, _MICRO_PATTERN))
    if miss.any() and not clouds:
        item = int(items[miss][0])
        raise NoSubscriberError(
            f"no subscriber for {ScopedName(SCOPE_MICRO, DEFAULT_FQDN, item_url(item))}")
    return point, np.where(miss, nearest(hops, clouds)[point], -1)


@dataclass(frozen=True)
class CatchmentGroup:
    """Requests merged into one multicast response."""

    service_point: int
    item_id: int
    members: frozenset[int]
    window_start: float
    interval: float
    size: int


def catchment_group(arrivals: Iterable[tuple[float, int]], interval: float,
                    service_point: int = -1, item_id: int = -1) -> list[CatchmentGroup]:
    """Window sorted ``(time, node)`` arrivals into catchment groups.

    The first request opens a window ``[t, t + interval]``; every request
    with time <= t + interval joins it, and the first strictly later
    request opens the next window. No request is ever lost: group sizes
    sum to the number of arrivals.
    """
    if interval < 0:
        raise ValueError("catchment interval must be >= 0")
    groups: list[CatchmentGroup] = []
    members: set[int] = set()
    size = 0
    window_start = 0.0
    last = None
    for t, node in arrivals:
        if last is not None and t < last:
            raise ValueError("arrival times must be sorted ascending")
        last = t
        if size and t > window_start + interval:
            groups.append(CatchmentGroup(service_point, item_id, frozenset(members),
                                         window_start, interval, size))
            members = set()
            size = 0
        if not size:
            window_start = t
        members.add(node)
        size += 1
    if size:
        groups.append(CatchmentGroup(service_point, item_id, frozenset(members),
                                     window_start, interval, size))
    return groups


def group_rate(rate, interval: float):
    """Group formation rate for Poisson requests under catchment windows.

    A window opens on an arrival and absorbs everything for ``interval``
    seconds, so inter-group gaps average ``interval + 1/rate``: the group
    rate is ``rate / (1 + rate * interval)``, and 0 where ``rate`` is 0.
    ``rate`` may be an array.
    """
    rate = np.asarray(rate, dtype=np.float64)
    if (rate < 0).any() or interval < 0:
        raise ValueError("rate and interval must be >= 0")
    busy = rate > 0
    groups = np.zeros_like(rate)
    groups[busy] = rate[busy] / (1.0 + rate[busy] * interval)
    return groups if groups.ndim else float(groups)


def multicast_load(groups_per_s: float, tree: MulticastTree, bitrate: float,
                   chunk_duration: float = CHUNK_DURATION) -> dict[int, float]:
    """Per-arc load of serving ``groups_per_s`` responses over ``tree``.

    Every tree arc carries one copy of each response; arcs off the tree
    carry nothing.
    """
    per_arc = groups_per_s * bitrate * chunk_duration
    return {arc_id: per_arc for arc_id in tree.arcs}
