"""Service-router behaviour: gateway profiles, request resolution, aggregation.

Fog and cloud gateways offer one service; a request resolves to the
nearest gateway, with a second leg to a cloud point when the matched fog
gateway lacks the concrete resource. Quasi-synchronous requests for the
same resource at the same service point are merged within a catchment
interval so one response serves the group; ``group_rate`` is the analytic
rate of such groups.

``resolve_nodes`` is the resolver trials use, for both architectures: a
request is looked up at its client node (rendezvous matching) or at the
client's nearest resolver (resolver redirection), so it runs once per
node. Its scalar oracles, ``resolve_request`` through a rendezvous table
and ``resolve_request_dns`` through a resolver, are in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NoSubscriberError
from .topology import HopTable, nearest
from .workload import ServiceCatalogue

__all__ = ["SRProfile", "fog_cache_items", "make_profiles", "resolve_nodes", "group_rate"]


@dataclass(frozen=True)
class SRProfile:
    """One service gateway: its role and cache contents.

    Every gateway offers the one service and caches the popularity prefix
    of the catalogue, items ``1..top_items``.
    """

    node_id: int
    role: str  # "fog" | "cloud"
    top_items: int


def fog_cache_items(fog_cache_fraction: float, n_items: int) -> int:
    """Items a fog point caches: the top ``fog_cache_fraction`` of them, at least one."""
    return max(1, int(fog_cache_fraction * n_items))


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
    top = fog_cache_items(fog_cache_fraction, catalogue.n)
    profiles: dict[int, SRProfile] = {}
    for node in fog_nodes:
        profiles[node] = SRProfile(node, "fog", top)
    for node in cloud_nodes:
        profiles[node] = SRProfile(node, "cloud", catalogue.n)
    return profiles


def resolve_nodes(hops: HopTable, nodes: np.ndarray, items: np.ndarray,
                  profiles: dict[int, SRProfile],
                  resolvers: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the requests ``(nodes[i], items[i])`` once per node.

    A request is looked up at its client node, or at the client's nearest
    resolver when ``resolvers`` are given. It is served by the gateway
    nearest the lookup node; a gateway that does not cache the item pulls
    it from the cloud gateway nearest to it. Ties go to the lowest id, as
    in the oracles' ``RendezvousTable.match`` and ``dns_select``. Returns
    per-request ``(service point, fallback origin)``, the origin -1 where
    the point caches the item. ``hops`` must hold the rows of the
    resolvers and the gateways; ``nearest`` reads only those.
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
