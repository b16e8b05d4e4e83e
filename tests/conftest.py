from __future__ import annotations

import importlib.util
import math
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import pytest

from fogcast.data import bundled_population, bundled_topology
from fogcast.topology import NetworkGraph, build_graph, load_topology
from fogcast.workload import assign_population, load_population
from oracles import adjacency, all_pairs


def bfs_distances(graph: NetworkGraph, source: int) -> list[int]:
    """Independent shortest-hop oracle: plain queue BFS."""
    dist = [-1] * graph.n_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for _, v in adjacency(graph)[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def count_windows(times: Iterable[float], interval: float) -> int:
    """Independent catchment-windowing oracle: event by event over sorted times.

    The first arrival opens a window ``[t, t + interval]``; every arrival
    with time <= t + interval joins it, and the first strictly later
    arrival opens the next window. Returns the number of windows (groups).
    """
    if interval < 0:
        raise ValueError("catchment interval must be >= 0")
    windows = 0
    window_end = last = -math.inf
    for t in times:
        if t < last:
            raise ValueError("arrival times must be sorted ascending")
        last = t
        if t > window_end:
            windows += 1
            window_end = t + interval
    return windows


def poisson_arrivals(rate: float, horizon: float, seed: int) -> Iterator[float]:
    """Seeded Poisson arrival times in ``[0, horizon)``, in order."""
    rng = np.random.default_rng(seed)
    t = 0.0
    while True:
        for gap in rng.exponential(1.0 / rate, size=250_000).tolist():
            t += gap
            if t >= horizon:
                return
            yield t


def simulated_group_rate(rate: float, interval: float, horizon: float, seed: int) -> float:
    """Groups per second that ``count_windows`` forms over a Poisson stream."""
    return count_windows(poisson_arrivals(rate, horizon, seed), interval) / horizon


def random_connected_graph(rng: np.random.Generator, n_nodes: int,
                           extra_edges: int) -> NetworkGraph:
    """Random tree plus extra chords; always connected."""
    coords = [(f"n{i}", float(i), float(i)) for i in range(n_nodes)]
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n_nodes)]
    for _ in range(extra_edges):
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return build_graph(coords, edges)


def write_synthetic(out_dir: Path, seed: int, n_nodes: int = 2000,
                    n_chords: int = 400) -> tuple[str, str]:
    """Write the benchmark's synthetic backbone and population grid of
    ``seed`` (``perfbench/synth.py``) under ``out_dir``; return their paths."""
    spec = importlib.util.spec_from_file_location(
        "synth", Path(__file__).resolve().parents[1] / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    topology = out_dir / f"backbone_{seed}_{n_nodes}.graphml"
    population = out_dir / f"population_{seed}.txt"
    topology.write_text(synth.backbone_graphml(seed, n_nodes, n_chords))
    population.write_text(synth.population_grid(seed))
    return str(topology), str(population)


GRAPHML_HEADER = (
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    '<key attr.name="Latitude" attr.type="double" for="node" id="d0" />'
    '<key attr.name="Longitude" attr.type="double" for="node" id="d1" />'
    '<key attr.name="label" attr.type="string" for="node" id="d2" />'
    '<graph edgedefault="undirected">'
)


def write_graphml(path, coords, edges):
    """Write a GraphML backbone: node i is ``coords[i]`` as (label, lat, lon)."""
    nodes = "".join(
        f'<node id="{i}"><data key="d0">{lat}</data><data key="d1">{lon}</data>'
        f"<data key=\"d2\">{label}</data></node>"
        for i, (label, lat, lon) in enumerate(coords)
    )
    arcs = "".join(f'<edge source="{u}" target="{v}" />' for u, v in edges)
    path.write_text(GRAPHML_HEADER + nodes + arcs + "</graph></graphml>")


def write_bad_topologies(out_dir: Path) -> list[Path]:
    """Write the GraphML files of the bad-config table under ``out_dir``: one
    malformed, one without coordinate keys, one disconnected, one with a
    repeated node id, one with a NaN latitude, one with a self-loop and one
    with coordinate keys but no nodes."""
    three = [("a", 50.0, 0.0), ("b", 50.0, 1.0), ("c", 50.0, 2.0)]
    paths = [out_dir / f"{name}.graphml"
             for name in ("bad", "nokeys", "split", "dup", "nan", "loop", "empty")]
    bad, nokeys, split, dup, nan, loop, empty = paths
    bad.write_text("<graphml><graph>")
    nokeys.write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph><node id="0"/></graph>'
        "</graphml>")
    write_graphml(split, three, [(0, 1)])
    write_graphml(dup, three, [(0, 1)])  # node 2 takes node 0's id
    dup.write_text(dup.read_text().replace('<node id="2">', '<node id="0">'))
    write_graphml(nan, [("a", 50.0, 0.0), ("b", math.nan, 1.0), ("c", 50.0, 2.0)],
                  [(0, 1), (1, 2)])
    write_graphml(loop, three, [(0, 1), (1, 1), (1, 2)])
    write_graphml(empty, [], [])
    return paths


@pytest.fixture(scope="session")
def geant():
    return load_topology(bundled_topology())


@pytest.fixture(scope="session")
def geant_hops(geant):
    return all_pairs(geant)


@pytest.fixture(scope="session")
def geant_population(geant):
    return assign_population(geant, load_population(bundled_population()))


@pytest.fixture()
def chain_setup(tmp_path):
    """Topology and population files of a populated four-node chain a-b-c-d."""
    top = tmp_path / "chain.graphml"
    write_graphml(
        top,
        [("a", 50.0, 0.0), ("b", 50.0, 1.0), ("c", 50.0, 2.0), ("d", 50.0, 3.0)],
        [(0, 1), (1, 2), (2, 3)],
    )
    pop = tmp_path / "chain.txt"
    pop.write_text("50.0,0.0,40\n50.0,1.0,30\n50.0,2.0,20\n50.0,3.0,10\n")
    return str(top), str(pop)


@pytest.fixture()
def triangle():
    return build_graph(
        [("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 1.0, 0.0)],
        [(0, 1), (1, 2), (0, 2)],
    )


@pytest.fixture()
def chain4():
    # a - b - c - d
    return build_graph(
        [("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 0.0, 2.0), ("d", 0.0, 3.0)],
        [(0, 1), (1, 2), (2, 3)],
    )


@pytest.fixture()
def star4():
    # center node 0 with three leaves
    return build_graph(
        [("hub", 0.0, 0.0), ("l1", 1.0, 0.0), ("l2", 0.0, 1.0), ("l3", -1.0, 0.0)],
        [(0, 1), (0, 2), (0, 3)],
    )
