"""Population-driven demand synthesis.

A population grid is snapped onto backbone nodes by Voronoi assignment
(great-circle nearest node), service popularity follows a Zipf law over a
fixed item catalogue, and per-trial demand is calibrated so that the
expected offered load matches a target aggregate bitrate. One request
stands for a one-second chunk at the item bitrate per epoch second, so a
request count is also a request rate in 1/s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

__all__ = [
    "PopulationCell",
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

_EARTH_RADIUS_KM = 6371.0


class WorkloadError(ValueError):
    """Raised for unusable population or demand inputs."""


@dataclass(frozen=True)
class PopulationCell:
    lat: float
    lon: float
    count: int


def load_population(source: str | Path) -> list[PopulationCell]:
    """Read a population grid file: one ``lat,lon,count`` record per line.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    """
    cells: list[PopulationCell] = []
    text = Path(source).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise WorkloadError(f"{source}:{lineno}: expected lat,lon,count")
        try:
            lat, lon = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise WorkloadError(f"{source}:{lineno}: unparsable record {line!r}") from None
        if count < 0:
            raise WorkloadError(f"{source}:{lineno}: negative count")
        cells.append(PopulationCell(lat, lon, count))
    if not any(c.count > 0 for c in cells):
        raise WorkloadError(f"{source}: population grid holds no people")
    return cells


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance along the earth's surface, in kilometres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def assign_population(graph, cells: list[PopulationCell]) -> np.ndarray:
    """Voronoi-assign each grid cell to its geodesically nearest node.

    Ties go to the lowest node id. Returns per-node totals (int64 array);
    total population is conserved exactly.
    """
    if not cells:
        raise WorkloadError("empty population grid")
    totals = np.zeros(graph.n_nodes, dtype=np.int64)
    node_pos = [(node.lat, node.lon) for node in graph.nodes]
    for cell in cells:
        best = 0
        best_d = math.inf
        for nid, (nlat, nlon) in enumerate(node_pos):
            d = great_circle_km(cell.lat, cell.lon, nlat, nlon)
            if d < best_d:
                best_d = d
                best = nid
        totals[best] += cell.count
    return totals


@dataclass(frozen=True)
class ServiceCatalogue:
    """Zipf-ranked service catalogue.

    ``probabilities[i]`` and ``bitrates[i]`` describe the item of rank
    ``i + 1``; item ids used elsewhere are these 1-based ranks.
    """

    probabilities: np.ndarray
    bitrates: np.ndarray
    alpha: float

    @property
    def n(self) -> int:
        return len(self.probabilities)

    def bitrate(self, item_id: int) -> float:
        return float(self.bitrates[item_id - 1])

    def probability(self, item_id: int) -> float:
        return float(self.probabilities[item_id - 1])

    @property
    def mean_bitrate(self) -> float:
        return float(np.dot(self.probabilities, self.bitrates))


def build_catalogue(n: int, alpha: float, bitrate_set: tuple[float, ...],
                    seed: int) -> ServiceCatalogue:
    """Build a catalogue of ``n`` items with popularity rank^(-alpha) / H.

    Each item's bitrate is drawn uniformly from ``bitrate_set`` with the
    seeded generator, once, at build time.
    """
    if n < 1:
        raise WorkloadError("catalogue needs at least one item")
    if alpha < 0:
        raise WorkloadError("alpha must be non-negative")
    if not bitrate_set:
        raise WorkloadError("empty bitrate set")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(alpha))
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, len(bitrate_set), size=n)
    bitrates = np.asarray(bitrate_set, dtype=np.float64)[choices]
    probabilities.setflags(write=False)
    bitrates.setflags(write=False)
    return ServiceCatalogue(probabilities=probabilities, bitrates=bitrates, alpha=float(alpha))


@dataclass(frozen=True)
class DemandMatrix:
    """Per-node, per-item request counts for one epoch.

    Request ``i`` is ``counts[i]`` active users at node ``nodes[i]`` asking
    for item ``items[i]``, ordered by node, then item; each user consumes
    one chunk per epoch second. The arrays are read-only.
    """

    nodes: np.ndarray
    items: np.ndarray
    counts: np.ndarray
    epoch: float
    offered_bitrate: float

    @property
    def requests(self) -> MappingProxyType:
        """Read-only ``(node_id, item_id) -> count`` view of the arrays."""
        return MappingProxyType(dict(zip(zip(self.nodes.tolist(), self.items.tolist()),
                                         self.counts.tolist())))

    @property
    def total_requests(self) -> int:
        return int(self.counts.sum())


def draw_demand(populations: np.ndarray, catalogue: ServiceCatalogue,
                load_fraction: float, target_bitrate: float,
                seed: int) -> DemandMatrix:
    """Draw one epoch of demand calibrated to ``target_bitrate``.

    The active-user budget is ``target_bitrate / E[bitrate]``; users are
    split across nodes in proportion to ``load_fraction * population`` and
    each user requests exactly one catalogue item sampled from the
    popularity distribution. Expected offered bitrate equals the target.
    All users draw from one seeded stream, node after node, so the result
    equals a per-node ``rng.choice(n, size=users, p=probabilities)`` loop.
    """
    populations = np.asarray(populations)
    if not (0.0 <= load_fraction <= 1.0):
        raise WorkloadError("load_fraction outside [0, 1]")
    if target_bitrate <= 0:
        raise WorkloadError("target_bitrate must be positive")
    if populations.sum() <= 0:
        raise WorkloadError("all-zero population")

    keys = np.zeros(0, dtype=np.int64)
    if load_fraction > 0.0:
        budget = target_bitrate / catalogue.mean_bitrate
        weights = load_fraction * populations.astype(np.float64)
        users = np.rint(budget * (weights / weights.sum())).astype(np.int64)
        cdf = catalogue.probabilities.cumsum()
        cdf /= cdf[-1]
        draws = np.random.default_rng(seed).random(int(users.sum()))
        keys = (np.repeat(np.arange(len(populations)), users) * catalogue.n
                + cdf.searchsorted(draws, side="right"))
    keys, counts = np.unique(keys, return_counts=True)
    nodes, index = np.divmod(keys, catalogue.n)
    items = index + 1
    # Left-to-right running sum (accumulate, not pairwise) in request order.
    load = counts * catalogue.bitrates[index]
    offered = float(np.cumsum(load)[-1]) if load.size else 0.0
    for array in (nodes, items, counts):
        array.setflags(write=False)
    return DemandMatrix(nodes=nodes, items=items, counts=counts, epoch=1.0,
                        offered_bitrate=offered)
