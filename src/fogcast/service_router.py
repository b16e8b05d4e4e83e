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
alone. It returns each client's service point and each node's origin,
and reads only the clients' and points' columns of the placed points' rows.
Its scalar oracles, ``resolve_request`` through a rendezvous table and
``resolve_request_dns`` through a resolver, are in ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

from .topology import HopTable, nearest

__all__ = ["fog_cache_items", "resolve_nodes", "group_rate"]


def fog_cache_items(fog_cache_fraction: float, n_items: int) -> int:
    """Items a fog point caches: the top ``fog_cache_fraction`` of them, at least one."""
    return max(1, int(fog_cache_fraction * n_items))


def resolve_nodes(hops: HopTable, clients: np.ndarray, fog, cloud,
                  resolvers: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Each client node's service point, and each node's pull origin.

    A client is looked up at its own node, or at its nearest resolver when
    ``resolvers`` are given, and served by the fog or cloud point nearest
    the lookup node. A point that is no cloud point (a fog point) holds
    items ``1..fog_items`` and pulls the others from its origin, the cloud
    point nearest to it; a cloud point holds every item, also when placed
    as fog, and its origin is -1, as is an unplaced node's. Ties go to the
    lowest id, as in the oracles' ``RendezvousTable.match`` and
    ``dns_select``.
    A trial checks first that some point is placed, and a cloud point unless
    fog points cache every item (``experiment._check_fits``). ``hops`` must
    hold the rows of the resolvers and the points; only their clients' and
    points' columns are read.
    """
    lookup = nearest(hops, resolvers, clients) if len(resolvers) else clients
    origin = np.full(hops.graph.n_nodes, -1, dtype=np.intp)
    fog_only = sorted(set(fog) - set(cloud))
    origin[fog_only] = nearest(hops, cloud, fog_only)
    return nearest(hops, [*fog, *cloud], lookup), origin


def group_rate(rate, interval: float):
    """Group formation rate for Poisson requests under catchment windows.

    A window opens on an arrival and absorbs everything for ``interval``
    seconds, so inter-group gaps average ``interval + 1/rate``: the group
    rate is ``rate / (1 + rate * interval)``, which is exactly 0 where
    ``rate`` is 0. ``rate`` may be an array of sums of request counts, and
    ``interval`` is finite and >= 0, as ``ScenarioConfig`` admits.
    """
    rate = np.asarray(rate, dtype=np.float64)
    groups = rate / (1.0 + rate * interval)
    return groups if groups.ndim else float(groups)
