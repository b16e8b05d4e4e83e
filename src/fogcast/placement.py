"""Weighted pseudo-random selection of fog, cloud and resolver nodes.

Nodes are drawn sequentially without replacement, with probability
proportional to their weight among the remaining candidates. ``pop`` mode
weighs nodes by assigned population, ``cls`` mode by closeness centrality,
which ``HopRows.centrality`` computes once per graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FogcastError
from .topology import HopRows

__all__ = ["Placement", "PlacementError", "place_points", "place_all", "ROLE_SALTS"]

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
    weights = np.asarray(weights, dtype=np.float64)
    if k < 1 or k > len(weights):
        raise PlacementError(f"k={k} outside 1..{len(weights)}")
    valid = (weights >= 0) & (weights < np.inf)  # False at NaN too
    if not valid.all():
        node = int(np.argmin(valid))
        raise PlacementError(f"node {node} has weight {weights[node]}; "
                             "weights must be finite and >= 0")
    positive = np.count_nonzero(weights)
    if k > positive:
        raise PlacementError(f"k={k} exceeds the {positive} positive-weight node(s)")
    remaining = weights.copy()
    chosen: list[int] = []
    for u in np.random.default_rng(seed).random(k):
        cdf = (remaining / remaining.sum()).cumsum()
        cdf /= cdf[-1]
        node = int(cdf.searchsorted(u, side="right"))
        chosen.append(node)
        remaining[node] = 0.0
    return tuple(sorted(chosen))


def _weights_for(mode: str, populations: np.ndarray, hops: HopRows) -> np.ndarray:
    if mode == "pop":
        return np.asarray(populations, dtype=np.float64)
    if mode == "cls":
        return hops.centrality
    raise PlacementError(f"unknown placement mode {mode!r}")


def place_all(hops: HopRows, populations: np.ndarray,
              roles: dict[str, tuple[str, int]], seed: int) -> Placement:
    """Place every configured role with independent role-specific streams.

    ``roles`` maps a role name (fog / cloud / ldns) to its ``(mode, k)``;
    a role with k = 0 stays empty. Overlap across roles is permitted.
    """
    picked: dict[str, tuple[int, ...]] = dict.fromkeys(ROLE_SALTS, ())
    for role, salt in ROLE_SALTS.items():
        mode, k = roles.get(role, ("pop", 0))
        if k:
            picked[role] = place_points(_weights_for(mode, populations, hops), k, seed ^ salt)
    return Placement(**picked)
