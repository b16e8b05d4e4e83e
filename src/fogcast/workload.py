"""Population-driven demand synthesis.

A population grid, read as ``(lat, lon, count)`` arrays, is snapped onto
backbone nodes by Voronoi assignment (great-circle nearest node, ranked by
the cosine between unit vectors and settled by the scalar haversine), service
popularity follows a Zipf law over a fixed item catalogue, and per-trial
demand is calibrated so that the expected offered load matches a target
aggregate bitrate. One request stands for a one-second chunk at the item
bitrate per epoch second, so a request count is also a request rate in 1/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import FogcastError, read_text
__all__ = [
    "ServiceCatalogue",
    "DemandMatrix",
    "WorkloadError",
    "load_population",
    "assign_population",
    "build_catalogue",
    "draw_demand",
    "CHUNK_DURATION",
]

# Seconds of content delivered per request; shared with the load accounting.
CHUNK_DURATION = 1.0

# Buckets of the demand draw's guide table. A power of two, so that a draw's
# bucket floor(u * G) and every bucket edge b / G are exact.
_GUIDE_BUCKETS = 1 << 16

_EARTH_RADIUS_KM = 6371.0


class WorkloadError(FogcastError):
    """Raised for unusable population or demand inputs."""


def load_population(source: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a population grid file: one ``lat,lon,count`` record per line.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Returns the cells' latitudes, longitudes and counts (int64). A record
    is rejected, naming its line, when its latitude is outside [-90, 90],
    its longitude outside [-180, 180] (NaN is outside both), or its count
    negative or taking the running total to 2**63.
    """
    cells: list[tuple[float, float, int]] = []
    total = 0
    for lineno, raw in enumerate(read_text(source).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise WorkloadError(f"{source}:{lineno}: expected lat,lon,count")
        try:
            lat, lon, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise WorkloadError(f"{source}:{lineno}: unparsable record {line!r}") from None
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):
            raise WorkloadError(f"{source}:{lineno}: coordinates out of range in {line!r}")
        if count < 0:
            raise WorkloadError(f"{source}:{lineno}: negative count")
        total += count
        if total >= 1 << 63:
            raise WorkloadError(f"{source}:{lineno}: population total reaches 2**63")
        cells.append((lat, lon, count))
    if not total:
        raise WorkloadError(f"{source}: population grid holds no people")
    lat, lon, count = zip(*cells)
    return np.array(lat), np.array(lon), np.array(count, dtype=np.int64)


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance along the earth's surface, in kilometres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def _unit_vectors(lat: np.ndarray, lon: np.ndarray):
    """Each point's position on the unit sphere, as its x, y and z arrays."""
    p, l = np.radians(lat), np.radians(lon)
    c = np.cos(p)
    return c * np.cos(l), c * np.sin(l), np.sin(p)


# Cell-to-node cosines taken at once, at most: 128 KB per temporary, so
# set-up leaves no megabytes of freed blocks in the heap.
_COSINE_BLOCK = 1 << 14
# Nodes whose cosine is this close (absolute) to a cell's largest are compared
# again with great_circle_km; assign_population gives the rounding argument.
_RECHECK_ATOL = 1e-12


def assign_population(graph, cells: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Voronoi-assign each grid cell to its geodesically nearest node.

    ``cells`` are the ``(lat, lon, count)`` arrays ``load_population``
    returns. Ties go to the lowest node id. Returns per-node totals (int64
    array); total population is conserved exactly.

    Nodes are ranked by the cosine of their angle to the cell, the dot
    product of the two unit vectors: each node's vector is computed once,
    and a block of cells takes three products and two sums per (cell, node)
    pair. Every node within ``_RECHECK_ATOL`` of the cell's largest cosine
    is compared again with the scalar ``great_circle_km``, which decides
    among them, so the nearest node is exactly the one a scalar scan in
    node order finds. The exact cosine is ``1 - 2a`` for the haversine term
    ``a`` that ``great_circle_km`` computes, and both the computed cosine and
    the computed ``a`` lie within a few units of 2**-53 of their exact
    values (under 5e-16 on 20,000 random and near-antipodal pairs); the
    monotone sqrt, asin and scaling that follow ``a`` merge values at most
    about 2.2e-16 apart. A node the scan would prefer to the one of largest
    cosine therefore has a cosine at most about 5e-15 below it, and 1e-12
    leaves a margin of 200 times. NaN cosines are skipped, as by the scan.
    """
    cell_lat, cell_lon, count = cells
    node_lat, node_lon = graph.lat, graph.lon
    nx, ny, nz = _unit_vectors(node_lat, node_lon)
    cx, cy, cz = (axis[:, None] for axis in _unit_vectors(cell_lat, cell_lon))
    best = np.empty(len(count), dtype=np.intp)
    step = max(1, _COSINE_BLOCK // graph.n_nodes)
    for lo in range(0, len(count), step):
        block = slice(lo, lo + step)
        cos = cx[block] * nx
        cos += cy[block] * ny
        cos += cz[block] * nz
        # fmax skips NaN cosines, as the scalar scan's ``d < best_d`` does.
        near = cos >= np.fmax.reduce(cos, axis=1, keepdims=True) - _RECHECK_ATOL
        best[block] = near.argmax(axis=1)
        for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            lat, lon = float(cell_lat[lo + i]), float(cell_lon[lo + i])
            ties = np.flatnonzero(near[i]).tolist()
            exact = [great_circle_km(lat, lon, node_lat[v], node_lon[v]) for v in ties]
            best[lo + i] = ties[exact.index(min(exact))]
    totals = np.zeros(graph.n_nodes, dtype=np.int64)
    np.add.at(totals, best, count)
    return totals


@dataclass(frozen=True)
class ServiceCatalogue:
    """Zipf-ranked service catalogue.

    ``probabilities[i]`` and ``bitrates[i]`` describe the item of rank
    ``i + 1``; item ids used elsewhere are these 1-based ranks. ``cdf`` and
    ``guide`` serve ``_guide_search``. The arrays are read-only, and all but
    ``bitrates`` are shared by every catalogue of one ``(n, alpha)``.
    """

    probabilities: np.ndarray
    bitrates: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    @property
    def n(self) -> int:
        return len(self.probabilities)

    @property
    def mean_bitrate(self) -> float:
        return float(np.dot(self.probabilities, self.bitrates))


@cache
def _zipf_law(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only probabilities, cdf and guide table of a Zipf catalogue,
    kept by value for the process."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    probabilities = weights / weights.sum()
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    # guide[b] = cdf.searchsorted(b / G, side="right") counts the items whose
    # edge ceil(cdf * G) (exact) is <= b; built from the n edges, without a
    # G-long float array.
    edges = np.ceil(cdf * _GUIDE_BUCKETS).astype(np.intp)
    runs = np.diff(edges, prepend=0, append=_GUIDE_BUCKETS + 1)
    guide = np.repeat(np.arange(n + 1, dtype=np.min_scalar_type(n)), runs)
    for array in (probabilities, cdf, guide):
        array.setflags(write=False)
    return probabilities, cdf, guide


def build_catalogue(n: int, alpha: float, bitrate_set: tuple[float, ...],
                    seed: int) -> ServiceCatalogue:
    """Build a catalogue of ``n`` items with popularity rank^(-alpha) / H.

    Each item's bitrate is drawn uniformly from ``bitrate_set`` with the
    seeded generator, once, at build time. The rest depends on ``(n,
    alpha)`` alone and is computed once per pair and process, as a fresh
    build would.
    ``ScenarioConfig`` checks ``n``, ``alpha`` and the bitrate set.
    """
    probabilities, cdf, guide = _zipf_law(n, float(alpha))
    choices = np.random.default_rng(seed).integers(0, len(bitrate_set), size=n)
    bitrates = np.asarray(bitrate_set, dtype=np.float64)[choices]
    bitrates.setflags(write=False)
    return ServiceCatalogue(probabilities=probabilities, bitrates=bitrates, cdf=cdf, guide=guide)


def _guide_search(cdf: np.ndarray, guide: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Exactly ``cdf.searchsorted(draws, side="right")`` for draws in [0, 1).

    Chen and Asau's (1974) indexed search: a draw u in bucket b = floor(u * G)
    lies in [b / G, (b + 1) / G), so its answer is in guide[b] .. guide[b + 1];
    only draws whose bucket holds a cdf value take the binary search.
    """
    bucket = (draws * _GUIDE_BUCKETS).astype(np.intp)
    items = guide[bucket]
    wide = np.flatnonzero(guide[bucket + 1] != items)
    items[wide] = cdf.searchsorted(draws[wide], side="right")
    return items


@dataclass(frozen=True)
class DemandMatrix:
    """Per-node, per-item request counts for one epoch.

    Request ``i`` is ``counts[i]`` active users at node
    ``clients[client_of[i]]`` asking for item ``items[i]`` of the catalogue,
    ordered by node, then item; each user consumes one chunk per epoch
    second. ``clients`` are the nodes with a request, ascending. The arrays
    are read-only.
    """

    items: np.ndarray
    counts: np.ndarray
    clients: np.ndarray
    client_of: np.ndarray

    @property
    def requests(self) -> MappingProxyType:
        """Read-only ``(node_id, item_id) -> count`` view of the arrays."""
        nodes = self.clients[self.client_of].tolist()
        return MappingProxyType(dict(zip(zip(nodes, self.items.tolist()), self.counts.tolist())))

    @property
    def total_requests(self) -> int:
        return int(self.counts.sum())


def draw_demand(populations: np.ndarray, catalogue: ServiceCatalogue,
                target_bitrate: float, seed: int) -> DemandMatrix:
    """Draw one epoch of demand calibrated to ``target_bitrate``.

    The active-user budget is ``target_bitrate / E[bitrate]``; users are
    split across nodes in proportion to population and each user requests
    exactly one catalogue item sampled from the popularity distribution, so
    the expected offered bitrate equals the target. All users draw from one
    seeded stream, node after node, so the result
    equals a per-node ``rng.choice(n, size=users, p=probabilities)`` loop:
    ``choice`` maps each double u to ``cdf.searchsorted(u, side="right")``,
    which ``_guide_search`` returns exactly. ``ScenarioConfig`` checks the
    target and bounds the budget; ``load_population`` rejects a grid with
    no people, and ``assign_population`` keeps its total.
    """
    budget = target_bitrate / catalogue.mean_bitrate
    weights = populations.astype(np.float64)
    users = np.rint(budget * (weights / weights.sum())).astype(np.int64)
    draws = np.random.default_rng(seed).random(int(users.sum()))
    keys, counts = np.unique(np.repeat(np.arange(len(populations)), users) * catalogue.n
                             + _guide_search(catalogue.cdf, catalogue.guide, draws),
                             return_counts=True)
    nodes, index = np.divmod(keys, catalogue.n)
    items = index + 1
    new_client = np.ones(len(nodes), dtype=bool)
    np.not_equal(nodes[1:], nodes[:-1], out=new_client[1:])
    clients, client_of = nodes[new_client], new_client.cumsum() - 1
    for array in (items, counts, clients, client_of):
        array.setflags(write=False)
    return DemandMatrix(items, counts, clients, client_of)
