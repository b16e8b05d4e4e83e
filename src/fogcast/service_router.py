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
alone. It reads each role's nearest-point row, built once per trial index.
Its scalar oracles, ``resolve_request`` through a rendezvous table and
``resolve_request_dns`` through a resolver, are in ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["fog_cache_items", "resolve_nodes", "group_rate"]


def fog_cache_items(fog_cache_fraction: float, n_items: int) -> int:
    """Items a fog point caches: the top ``fog_cache_fraction`` of them, at least one."""
    return max(1, int(fog_cache_fraction * n_items))


def resolve_nodes(clients: np.ndarray, fog, cloud, resolvers=None) -> tuple[np.ndarray, np.ndarray]:
    """Each client node's service point, and each node's pull origin.

    ``fog``, ``cloud`` and ``resolvers`` are ``topology.nearest`` rows of
    each role's points, None for a role that places none. A client is looked
    up at its own node, or at its nearest resolver, and served by the point
    nearest the lookup node: the smaller of the fog and cloud keys. A point
    that is no cloud point (a fog point) holds items ``1..fog_items`` and
    pulls the others from its origin, the cloud point nearest to it; a cloud
    point holds every item, also when placed as fog, and its origin is -1,
    as is an unplaced node's. Ties go to the lowest id, as in the oracles'
    ``RendezvousTable.match`` and ``dns_select``. A trial checks first that
    some point is placed, and a cloud point unless fog points cache every
    item (``experiment._check_fits``).
    """
    n = len(cloud if fog is None else fog)
    lookup = clients if resolvers is None else resolvers[clients] % n
    if fog is None or cloud is None:
        return (cloud if fog is None else fog)[lookup] % n, np.full(n, -1)
    nodes = np.arange(n)
    origin = np.where((fog == nodes) & (cloud != nodes), cloud % n, -1)
    return np.minimum(fog[lookup], cloud[lookup]) % n, origin


def group_rate(rate, interval: float):
    """Group formation rate for Poisson requests under catchment windows.

    A window opens on an arrival and absorbs everything for ``interval``
    seconds, so inter-group gaps average ``interval + 1/rate``: the group
    rate is ``rate / (1 + rate * interval)``, which is exactly 0 where
    ``rate`` is 0. ``rate`` may be an array of sums of request counts and
    ``interval`` a column of intervals, finite and >= 0 as
    ``ScenarioConfig`` admits, which gives a row per interval.
    """
    rate = np.asarray(rate, dtype=np.float64)
    # rate / (1 + rate * interval), built in place in one array
    groups = np.asarray(rate * interval)
    groups += 1.0
    np.divide(rate, groups, out=groups)
    return groups if groups.ndim else float(groups)
