"""Resolver-redirection baseline.

Clients resolve through their nearest local resolver, and the resolver
hands back the replica nearest to itself, not to the client. The replica
set and cache model are identical to the native architecture so the two
can be compared on the same placements and demand.

``resolve_nodes_dns`` is the resolver trials use, once per node;
``resolve_request_dns`` resolves one request and stays as its test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .service_router import DeliveryLeg, DeliveryPlan, SRProfile, cache_misses
from .topology import HopTable, extract_path, nearest

__all__ = ["DnsConfig", "ldns_of", "dns_select", "resolve_request_dns", "resolve_nodes_dns"]


@dataclass(frozen=True)
class DnsConfig:
    ldns: tuple[int, ...]
    service_points: tuple[int, ...]
    profiles: dict[int, SRProfile]

    def __post_init__(self) -> None:
        if not self.ldns:
            raise ValueError("baseline runs need at least one LDNS")
        if not self.service_points:
            raise ValueError("baseline runs need at least one service point")


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
    if item_id not in config.profiles[selected].cached_items:
        clouds = [p.node_id for p in config.profiles.values() if p.role == "cloud"]
        if not clouds:
            raise ValueError("no cloud point to satisfy a cache miss")
        origin = _nearest(selected, clouds, hops)
        legs.append(DeliveryLeg(selected, origin,
                                tuple(extract_path(hops, selected, origin)), bitrate))
    return DeliveryPlan(legs=tuple(legs), client_path_hops=legs[0].hops)


def resolve_nodes_dns(nodes: np.ndarray, items: np.ndarray, config: DnsConfig,
                      hops: HopTable) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the requests ``(nodes[i], items[i])`` once per node.

    Every node is mapped once to its LDNS, to the replica nearest to it as
    a resolver, and to its nearest cloud point as a replica (ties to the
    lowest id); a request reads its node's replica and tests its item
    against that replica's cache. Returns per-request ``(replica, fallback
    origin)``, the origin -1 where the replica caches the item.
    """
    resolver = nearest(hops, config.ldns)
    point = nearest(hops, config.service_points)[resolver[nodes]]
    miss = cache_misses(config.profiles, point, items)
    clouds = [p.node_id for p in config.profiles.values() if p.role == "cloud"]
    if miss.any() and not clouds:
        raise ValueError("no cloud point to satisfy a cache miss")
    return point, np.where(miss, nearest(hops, clouds)[point], -1)
