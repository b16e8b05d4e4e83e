"""Weighted pseudo-random selection of fog, cloud and resolver nodes.

Nodes are drawn sequentially without replacement, with probability
proportional to their weight among the remaining candidates. ``pop`` mode
weighs nodes by assigned population, ``cls`` mode by closeness centrality,
which ``NetworkGraph.closeness`` computes once per graph.

One draw is a ``PickOrder`` that grows on demand: the points for k are
its first k picks, for every k, so a sweep draws each (trial seed, mode,
role) once and configs that differ only in their counts share it.
``experiment._trial_index`` chooses the weights and the salt.
"""
from __future__ import annotations

import numpy as np

__all__ = ["PickOrder", "ROLE_SALTS"]

# XOR salts keep the per-role draws on independent streams for one trial seed.
ROLE_SALTS = {
    "fog": 0x1F09,
    "cloud": 0x2C10,
    "ldns": 0x3D25,
}


class PickOrder:
    """The picks of one (weights, seed), drawn as far as ``first`` asked.

    Pick i takes double i of one ``default_rng(seed)`` stream and depends
    only on the picks before it, so ``first(k)`` is the same whatever was
    asked before: a later call extends the draw where the last stopped
    (``random(a)`` then ``random(b)`` gives the doubles of ``random(a + b)``).
    ``first(k)`` is bit-identical to one ``rng.choice(n, p=probs)`` per
    pick: that maps one double u to ``cdf.searchsorted(u, side="right")`` with
    ``cdf = probs.cumsum() / last``, and each pick repeats those float
    operations, minus the checks. Weights must be finite and >= 0 and k at
    most the positive ones; ``experiment._check_fits`` bounds k before a
    trial draws, and the weights are population totals or closeness.

    A pick reads only the positive-weight nodes but for the total, a pairwise
    sum over all n that rounds by position: a zero adds exactly 0 to the
    sequential cdf and is never the first cdf value above u.
    """

    def __init__(self, weights: np.ndarray, seed: int) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        self._support = np.flatnonzero(weights)
        self._rng = np.random.default_rng(seed)
        self._remaining, self._remaining_support = weights.copy(), weights[self._support]
        self._picks: list[int] = []

    def first(self, k: int) -> tuple[int, ...]:
        """The first ``k`` picks as sorted node ids; ``first(0)`` is ``()``."""
        support, remaining, weights = self._support, self._remaining, self._remaining_support
        if k > len(self._picks):
            for u in self._rng.random(k - len(self._picks)):
                cdf = (weights / remaining.sum()).cumsum()
                cdf /= cdf[-1]
                at = int(cdf.searchsorted(u, side="right"))
                node = int(support[at])
                self._picks.append(node)
                remaining[node] = weights[at] = 0.0
        return tuple(sorted(self._picks[:k]))
