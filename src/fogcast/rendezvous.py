"""Scoped publish/subscribe rendezvous and delivery-tree construction.

Service offerings are subscriptions under a two-scope namespace: whole
services (FQDNs) live under ``HTTP``, wildcard resource bundles under
``HTTP-Micro``. A publication (request) is matched to the subscriber
nearest to the publisher in hop count, which is what replaces resolver
redirection: the selection is exact rather than biased by a third party's
location. Matched groups are served over trees made of canonical shortest
paths.
"""
from __future__ import annotations

from dataclasses import dataclass

from .topology import HopTable, extract_path

__all__ = [
    "SCOPE_HTTP",
    "SCOPE_MICRO",
    "ScopedName",
    "NoSubscriberError",
    "RendezvousTable",
    "wildcard_match",
    "MulticastTree",
    "build_tree",
]

SCOPE_HTTP = "HTTP"
SCOPE_MICRO = "HTTP-Micro"
_SCOPES = (SCOPE_HTTP, SCOPE_MICRO)


class NoSubscriberError(LookupError):
    """A publication found no subscriber: the request is unserviceable."""


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
