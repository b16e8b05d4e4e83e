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
client's nearest resolver (resolver redirection), so it runs once per
client node and reads only the clients' columns of the placed points'
rows. Its scalar oracles, ``resolve_request`` through a rendezvous table
and ``resolve_request_dns`` through a resolver, are in ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

from .errors import NoSubscriberError
from .topology import HopTable, nearest

__all__ = ["fog_cache_items", "resolve_nodes", "group_rate"]


def fog_cache_items(fog_cache_fraction: float, n_items: int) -> int:
    """Items a fog point caches: the top ``fog_cache_fraction`` of them, at least one."""
    return max(1, int(fog_cache_fraction * n_items))


def resolve_nodes(hops: HopTable, clients: np.ndarray, client_of: np.ndarray,
                  items: np.ndarray, fog, cloud, fog_items: int,
                  resolvers: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the requests ``(clients[client_of[i]], items[i])`` once per client.

    A request is looked up at its client node, or at the client's nearest
    resolver when ``resolvers`` are given. It is served by the fog or cloud
    point nearest the lookup node; a point that lacks the item (a fog point
    that is no cloud point, for an item past ``fog_items``) pulls it from
    the cloud point nearest to it. Ties go to the lowest id, as in the
    oracles' ``RendezvousTable.match`` and ``dns_select``. Returns the
    service point of each client and the fallback origin of each request,
    -1 where the point holds the item. ``hops`` must hold the rows of the
    resolvers and the points; only their clients' and points' columns are read.
    """
    if not len(fog) + len(cloud):
        raise NoSubscriberError("no service point placed")
    lookup = nearest(hops, resolvers, clients) if len(resolvers) else clients
    point = nearest(hops, [*fog, *cloud], lookup)
    miss = (items > fog_items) & ~np.isin(point, cloud)[client_of]
    if miss.any() and not len(cloud):
        raise NoSubscriberError(f"no cloud point to serve item {int(items[miss][0])}")
    return point, np.where(miss, nearest(hops, cloud, point)[client_of], -1)


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
