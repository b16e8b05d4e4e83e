"""Service-router behaviour: request resolution and aggregation.

Fog and cloud gateways offer one service; a request resolves to the
nearest gateway, with a second leg to a cloud point when the matched fog
gateway lacks the concrete resource. A fog point caches the popularity
prefix of the catalogue, items ``1..fog_items``; a cloud point holds every
item, also when the same node is placed as fog. Quasi-synchronous requests
for the same resource at the same service point are merged within a
catchment interval so one response serves the group; ``group_rate`` is the
analytic rate of such groups.

``resolve_nodes`` is the resolver trials use, for both architectures: a
request is looked up at its client node (rendezvous matching) or at the
client's nearest resolver (resolver redirection), so its service point
depends on its client node alone, and its fallback origin on that point
alone. It runs once per client node, returns per-client facts only, and
reads only the clients' and points' columns of the placed points' rows.
Its scalar oracles, ``resolve_request`` through a rendezvous table and
``resolve_request_dns`` through a resolver, are in ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

from .errors import NoSubscriberError
from .topology import HopTable, nearest

__all__ = ["fog_cache_items", "resolve_nodes", "group_rate"]


def fog_cache_items(fog_cache_fraction: float, n_items: int) -> int:
    """Items a fog point caches: the top ``fog_cache_fraction`` of them, at least one."""
    return max(1, int(fog_cache_fraction * n_items))


def resolve_nodes(hops: HopTable, clients: np.ndarray, items: np.ndarray, fog, cloud,
                  fog_items: int, resolvers: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Service point and pull origin of every client node.

    A client is looked up at its own node, or at its nearest resolver when
    ``resolvers`` are given, and served by the fog or cloud point nearest
    the lookup node. A point that is no cloud point (a fog point) holds
    items ``1..fog_items`` and pulls the others from its origin, the cloud
    point nearest to it; a cloud point holds every item, also when the same
    node is placed as fog, and its origin is -1. Ties go to the lowest id,
    as in the oracles' ``RendezvousTable.match`` and ``dns_select``.
    ``items`` are the requested items, read only to name the first one past
    the fog cache when no cloud point can serve it. ``hops`` must hold the
    rows of the resolvers and the points; only their clients' and points'
    columns are read.
    """
    if not len(fog) + len(cloud):
        raise NoSubscriberError("no service point placed")
    if not len(cloud):
        past = np.flatnonzero(items > fog_items)
        if past.size:
            raise NoSubscriberError(f"no cloud point to serve item {int(items[past[0]])}")
    lookup = nearest(hops, resolvers, clients) if len(resolvers) else clients
    point = nearest(hops, [*fog, *cloud], lookup)
    is_cloud = np.zeros(hops.graph.n_nodes, dtype=bool)
    is_cloud[list(cloud)] = True
    return point, np.where(is_cloud[point], -1, nearest(hops, cloud, point))


def group_rate(rate, interval: float):
    """Group formation rate for Poisson requests under catchment windows.

    A window opens on an arrival and absorbs everything for ``interval``
    seconds, so inter-group gaps average ``interval + 1/rate``: the group
    rate is ``rate / (1 + rate * interval)``, which is exactly 0 where
    ``rate`` is 0; an endless window forms none. ``rate`` may be an array.
    """
    rate = np.asarray(rate, dtype=np.float64)
    if (rate < 0).any() or interval < 0:
        raise ValueError("rate and interval must be >= 0")
    groups = rate / (1.0 + rate * interval) if interval != np.inf else np.zeros_like(rate)
    return groups if groups.ndim else float(groups)
