"""Weighted pseudo-random selection of fog, cloud and resolver nodes.

Nodes are drawn sequentially without replacement, with probability
proportional to their weight among the remaining candidates. ``pop`` mode
weighs nodes by assigned population, ``cls`` mode by closeness centrality,
which ``HopRows.centrality`` computes once per graph.

One draw is a ``PickOrder`` that grows on demand: the points for k are
its first k picks, for every k, so a sweep draws each (trial seed, mode,
role) once and configs that differ only in their counts share it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FogcastError
from .topology import HopRows

__all__ = ["Placement", "PlacementError", "PickOrder", "place_points", "pick_order",
           "place_all", "ROLE_SALTS"]

# XOR salts keep the per-role draws on independent streams for one trial seed.
ROLE_SALTS = {
    "fog": 0x1F09,
    "cloud": 0x2C10,
    "ldns": 0x3D25,
}


class PlacementError(FogcastError):
    """Raised when a placement request cannot be satisfied."""


@dataclass(frozen=True)
class Placement:
    fog: tuple[int, ...]
    cloud: tuple[int, ...]
    ldns: tuple[int, ...]


class PickOrder:
    """The picks of one (weights, seed), drawn as far as ``first`` asked.

    Pick i takes double i of one ``default_rng(seed)`` stream and depends
    only on the picks before it, so ``first(k)`` is the same whatever was
    asked before: a later call extends the draw where the last stopped
    (``random(a)`` then ``random(b)`` gives the doubles of ``random(a + b)``).
    A request that fails draws nothing.
    """

    def __init__(self, weights: np.ndarray, seed: int) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        valid = (weights >= 0) & (weights < np.inf)  # False at NaN too
        if not valid.all():
            node = int(np.argmin(valid))
            raise PlacementError(f"node {node} has weight {weights[node]}; "
                                 "weights must be finite and >= 0")
        self._positive = np.count_nonzero(weights)
        self._rng = np.random.default_rng(seed)
        self._remaining = weights.copy()
        self._picks: list[int] = []

    def first(self, k: int) -> tuple[int, ...]:
        """The first ``k`` picks as sorted node ids."""
        n = len(self._remaining)
        if k < 1 or k > n:
            raise PlacementError(f"k={k} outside 1..{n}")
        if k > self._positive:
            raise PlacementError(f"k={k} exceeds the {self._positive} positive-weight node(s)")
        remaining = self._remaining
        if k > len(self._picks):
            for u in self._rng.random(k - len(self._picks)):
                cdf = (remaining / remaining.sum()).cumsum()
                cdf /= cdf[-1]
                node = int(cdf.searchsorted(u, side="right"))
                self._picks.append(node)
                remaining[node] = 0.0
        return tuple(sorted(self._picks[:k]))


def place_points(weights: np.ndarray, k: int, seed: int) -> tuple[int, ...]:
    """Draw ``k`` distinct node ids proportionally to ``weights``.

    Deterministic for a fixed seed. Zero-weight nodes are never selected
    while positive-weight nodes remain; requesting more points than there
    are positive-weight nodes, or a negative, NaN or infinite weight, fails.
    Bit-identical to one ``rng.choice(len(weights), p=probs)`` per pick: it
    maps one ``rng.random()`` double u to ``cdf.searchsorted(u, side="right")``
    with ``cdf = probs.cumsum() / last``; ``rng.random(k)`` gives the same k
    doubles, and each pick repeats those float operations, minus the checks.
    """
    return PickOrder(weights, seed).first(k)


def pick_order(hops: HopRows, populations: np.ndarray, mode: str, role: str,
               seed: int) -> PickOrder:
    """The pick order of one role: its mode's weights on the role's stream."""
    return PickOrder(_weights_for(mode, populations, hops), seed ^ ROLE_SALTS[role])


def _weights_for(mode: str, populations: np.ndarray, hops: HopRows) -> np.ndarray:
    if mode == "pop":
        return np.asarray(populations, dtype=np.float64)
    if mode == "cls":
        return hops.centrality
    raise PlacementError(f"unknown placement mode {mode!r}")


def place_all(hops: HopRows, populations: np.ndarray,
              roles: dict[str, tuple[str, int]], seed: int,
              orders: Callable[[str, str], PickOrder] | None = None) -> Placement:
    """Place every configured role with independent role-specific streams.

    ``roles`` maps a role name (fog / cloud / ldns) to its ``(mode, k)``;
    a role with k = 0 stays empty. Overlap across roles is permitted.
    ``orders(mode, role)``, when given, supplies the role's ``pick_order``
    for this seed (a cache shared by configs that differ only in k); by
    default each is drawn afresh.
    """
    picked: dict[str, tuple[int, ...]] = dict.fromkeys(ROLE_SALTS, ())
    for role in ROLE_SALTS:
        mode, k = roles.get(role, ("pop", 0))
        if k:
            order = (orders(mode, role) if orders is not None
                     else pick_order(hops, populations, mode, role, seed))
            picked[role] = order.first(k)
    return Placement(**picked)
