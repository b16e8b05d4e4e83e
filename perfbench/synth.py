"""Seeded synthetic backbone for the ``scale_2k`` workload.

The backbone is a random recursive tree (node ``i`` attaches to a uniformly
drawn earlier node) plus random chords, with node coordinates scattered over
a European-sized box. The population grid places metro cells with log-uniform
counts in the same box. Both files go through fogcast's own ``load_topology`` /
``load_population`` path, so its connectivity and format checks apply.

Only :mod:`random` is used, with fixed-precision formatting, so one seed
always gives byte-identical files.
"""
from __future__ import annotations

import random
from pathlib import Path

LAT_RANGE = (36.0, 60.0)
LON_RANGE = (-10.0, 30.0)


def _coord(rng: random.Random, low: float, high: float) -> float:
    return round(low + (high - low) * rng.random(), 4)


def backbone_graphml(seed: int, n_nodes: int = 2000, n_chords: int = 400) -> str:
    """GraphML text of a connected tree-plus-chords backbone."""
    if n_nodes < 2:
        raise ValueError("backbone needs at least two nodes")
    rng = random.Random(f"backbone:{seed}")
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key attr.name="Latitude" attr.type="double" for="node" id="d0" />',
        '  <key attr.name="Longitude" attr.type="double" for="node" id="d1" />',
        '  <key attr.name="label" attr.type="string" for="node" id="d2" />',
        '  <graph edgedefault="undirected">',
    ]
    for i in range(n_nodes):
        lat = _coord(rng, *LAT_RANGE)
        lon = _coord(rng, *LON_RANGE)
        lines.append(f'    <node id="{i}"><data key="d0">{lat}</data>'
                     f'<data key="d1">{lon}</data><data key="d2">n{i}</data></node>')
    edges: set[tuple[int, int]] = set()
    for i in range(1, n_nodes):
        edges.add((rng.randrange(i), i))
    while len(edges) < n_nodes - 1 + n_chords:
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
    for u, v in sorted(edges):
        lines.append(f'    <edge source="{u}" target="{v}" />')
    lines += ["  </graph>", "</graphml>", ""]
    return "\n".join(lines)


def population_grid(seed: int, n_cells: int = 300) -> str:
    """Population grid text: ``lat,lon,count`` cells, counts log-uniform in [50, 5000).

    The tail is kept light so that no seed concentrates demand on a handful
    of nodes, which would change the work per trial from seed to seed.
    """
    rng = random.Random(f"population:{seed}")
    lines = ["# Synthetic population grid: lat,lon,count (thousands)."]
    for _ in range(n_cells):
        lat = _coord(rng, *LAT_RANGE)
        lon = _coord(rng, *LON_RANGE)
        count = int(50 * 100 ** rng.random())
        lines.append(f"{lat},{lon},{count}")
    return "\n".join(lines) + "\n"


def write_backbone(out_dir: Path, seed: int) -> tuple[Path, Path]:
    """Write ``backbone.graphml`` and ``population.txt``; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    topology = out_dir / "backbone.graphml"
    population = out_dir / "population.txt"
    topology.write_text(backbone_graphml(seed))
    population.write_text(population_grid(seed))
    return topology, population
