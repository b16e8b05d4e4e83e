"""Service-router behaviour: offerings, request resolution, aggregation.

Fog and cloud gateways subscribe their offerings into the rendezvous
table; a request resolves to the nearest offering, with a second leg to a
cloud point when the matched fog gateway lacks the concrete resource.
Quasi-synchronous requests for the same resource at the same service point
are merged within a catchment interval so one response serves the group;
``group_rate`` is the analytic rate of such groups.

``resolve_nodes`` is the resolver trials use, for both architectures: a
request is looked up at its client node (rendezvous matching) or at the
client's nearest resolver (resolver redirection), so it runs once per
node. ``resolve_request`` resolves one request through the rendezvous
table and ``dns_baseline.resolve_request_dns`` through a resolver; both
stay as its test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rendezvous import (
    SCOPE_HTTP,
    SCOPE_MICRO,
    NoSubscriberError,
    RendezvousTable,
    ScopedName,
)
from .topology import HopTable, extract_path, nearest
from .workload import ServiceCatalogue

__all__ = [
    "DEFAULT_FQDN",
    "SRProfile",
    "DeliveryLeg",
    "DeliveryPlan",
    "item_url",
    "make_profiles",
    "build_rendezvous",
    "resolve_request",
    "resolve_nodes",
    "group_rate",
]

DEFAULT_FQDN = "svc.example.net"

# Cloud gateways advertise one resource bundle covering the whole catalogue.
_MICRO_PATTERN = "/items/*"


def item_url(item_id: int) -> str:
    return f"/items/{item_id}"


@dataclass(frozen=True)
class SRProfile:
    """One service gateway: its role and cache contents.

    Every gateway offers the one service ``DEFAULT_FQDN`` and caches the
    popularity prefix of the catalogue, items ``1..top_items``.
    """

    node_id: int
    role: str  # "fog" | "cloud"
    top_items: int


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
                  catalogue: ServiceCatalogue,
                  fog_cache_fraction: float = 0.1) -> dict[int, SRProfile]:
    """Build gateway profiles for a placement.

    Cloud points cache the full catalogue; fog points cache the top
    ``fog_cache_fraction`` of items by popularity (at least one). A node
    placed in both roles keeps the cloud profile.
    """
    if not 0.0 < fog_cache_fraction <= 1.0:
        raise ValueError("fog_cache_fraction outside (0, 1]")
    top = max(1, int(fog_cache_fraction * catalogue.n))
    profiles: dict[int, SRProfile] = {}
    for node in fog_nodes:
        profiles[node] = SRProfile(node, "fog", top)
    for node in cloud_nodes:
        profiles[node] = SRProfile(node, "cloud", catalogue.n)
    return profiles


def build_rendezvous(profiles: dict[int, SRProfile]) -> RendezvousTable:
    """Subscribe every gateway's offerings.

    All gateways listen for ``DEFAULT_FQDN`` under the service scope; cloud
    gateways additionally listen for the catalogue bundle under the
    micro-service scope so fog cache misses can be pulled from them.
    """
    table = RendezvousTable()
    for profile in profiles.values():
        table.subscribe(ScopedName(SCOPE_HTTP, DEFAULT_FQDN), profile.node_id)
        if profile.role == "cloud":
            table.subscribe(ScopedName(SCOPE_MICRO, DEFAULT_FQDN, _MICRO_PATTERN),
                            profile.node_id)
    return table


def resolve_request(client: int, item_id: int, profiles: dict[int, SRProfile],
                    table: RendezvousTable, hops: HopTable,
                    catalogue: ServiceCatalogue) -> DeliveryPlan:
    """Resolve one request into its delivery legs.

    Leg 1 goes to the nearest FQDN subscriber. If that gateway lacks the
    item, leg 2 publishes the concrete URL under the micro-service scope
    and pulls it from the nearest covering cloud point.
    """
    bitrate = catalogue.bitrate(item_id)
    service_point = table.match(hops, ScopedName(SCOPE_HTTP, DEFAULT_FQDN), client)
    legs = [DeliveryLeg(client, service_point,
                        tuple(extract_path(hops, client, service_point)), bitrate)]
    if item_id > profiles[service_point].top_items:
        origin = table.match(
            hops, ScopedName(SCOPE_MICRO, DEFAULT_FQDN, item_url(item_id)), service_point
        )
        legs.append(DeliveryLeg(service_point, origin,
                                tuple(extract_path(hops, service_point, origin)), bitrate))
    return DeliveryPlan(legs=tuple(legs), client_path_hops=legs[0].hops)


def resolve_nodes(hops: HopTable, nodes: np.ndarray, items: np.ndarray,
                  profiles: dict[int, SRProfile],
                  resolvers: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the requests ``(nodes[i], items[i])`` once per node.

    A request is looked up at its client node, or at the client's nearest
    resolver when ``resolvers`` are given. It is served by the gateway
    nearest the lookup node; a gateway that does not cache the item pulls
    it from the cloud gateway nearest to it. Ties go to the lowest id, as
    in ``RendezvousTable.match`` and ``dns_baseline.dns_select``. Returns
    per-request ``(service point, fallback origin)``, the origin -1 where
    the point caches the item.
    """
    if not profiles:
        raise NoSubscriberError("no service point placed")
    lookup = nearest(hops, resolvers)[nodes] if len(resolvers) else nodes
    point = nearest(hops, profiles)[lookup]
    top_items = np.zeros(hops.graph.n_nodes, dtype=np.int64)
    top_items[list(profiles)] = [profile.top_items for profile in profiles.values()]
    miss = items > top_items[point]
    clouds = [node for node, profile in profiles.items() if profile.role == "cloud"]
    if miss.any() and not clouds:
        raise NoSubscriberError(f"no cloud point to serve item {int(items[miss][0])}")
    return point, np.where(miss, nearest(hops, clouds)[point], -1)


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
