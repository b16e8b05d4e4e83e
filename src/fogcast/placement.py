"""Weighted pseudo-random selection of fog, cloud and resolver nodes.

Nodes are drawn sequentially without replacement, with probability
proportional to their weight among the remaining candidates. ``pop`` mode
weighs nodes by assigned population, ``cls`` mode by closeness centrality.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import HopTable, closeness

__all__ = ["Placement", "PlacementError", "place_points", "place_all", "ROLE_SALTS"]

# XOR salts keep the per-role draws on independent streams for one trial seed.
ROLE_SALTS = {
    "fog": 0x1F09,
    "cloud": 0x2C10,
    "ldns": 0x3D25,
}


class PlacementError(ValueError):
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
    are positive-weight nodes fails.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if k < 1 or k > len(weights):
        raise PlacementError(f"k={k} outside 1..{len(weights)}")
    positive = int((weights > 0).sum())
    if k > positive:
        raise PlacementError(f"k={k} exceeds the {positive} positive-weight node(s)")
    rng = np.random.default_rng(seed)
    remaining = weights.copy()
    chosen: list[int] = []
    for _ in range(k):
        probs = remaining / remaining.sum()
        node = int(rng.choice(len(remaining), p=probs))
        chosen.append(node)
        remaining[node] = 0.0
    return tuple(sorted(chosen))


def _weights_for(mode: str, populations: np.ndarray, hops: HopTable) -> np.ndarray:
    if mode == "pop":
        return np.asarray(populations, dtype=np.float64)
    if mode == "cls":
        return closeness(hops, np.arange(hops.graph.n_nodes))
    raise PlacementError(f"unknown placement mode {mode!r}")


def place_all(hops: HopTable, populations: np.ndarray,
              roles: dict[str, tuple[str, int]], seed: int) -> Placement:
    """Place every configured role with independent role-specific streams.

    ``roles`` maps a role name (fog / cloud / ldns) to its ``(mode, k)``;
    a role with k = 0 stays empty. Overlap across roles is permitted.
    """
    picked: dict[str, tuple[int, ...]] = {}
    weights: dict[str, np.ndarray] = {}
    for role in ("fog", "cloud", "ldns"):
        mode, k = roles.get(role, ("pop", 0))
        if k == 0:
            picked[role] = ()
            continue
        if mode not in weights:
            weights[mode] = _weights_for(mode, populations, hops)
        picked[role] = place_points(weights[mode], k, seed ^ ROLE_SALTS[role])
    return Placement(fog=picked["fog"], cloud=picked["cloud"], ldns=picked["ldns"])
