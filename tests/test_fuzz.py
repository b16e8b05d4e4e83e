"""Seeded differential fuzzing: random scenarios against ``oracles.reference_trial``.

Each case draws a random connected backbone of 1-59 nodes (a tree plus
chords), a population grid that includes zero-count cells, a workload and
2-3 configs with every axis drawn at random among runnable values. The
configs share a base seed and input files and run trial-major over 1-2
trial indices, as a sweep runs them, so what the configs of one trial index
share is checked as well as a lone call. Every ``run_trial`` must equal the
reference: loads within 1e-12 relative, arc by arc, and bit-equal hop
histograms. Under the exact scheme the catchment load stays at or below
unicast and does not rise with T, arc by arc.

A failing case names its seed; ``PYTHONPATH=src python tests/test_fuzz.py
SEED`` runs that case alone.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import write_graphml
from fogcast.experiment import ScenarioConfig, run_trial
from fogcast.topology import load_topology
from fogcast.workload import assign_population, load_population
import oracles

CASES = 39


def _files(rng: np.random.Generator, out: Path) -> tuple[str, str]:
    """A random backbone of 1-59 nodes, a tree plus chords, and a population
    grid of 1-12 cells near its nodes, about a third of them zero-count."""
    n = int(rng.integers(1, 60))
    coords = [(f"n{i}", float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
              for i in range(n)]
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    if n > 1:
        edges += [tuple(rng.choice(n, size=2, replace=False).tolist())
                  for _ in range(int(rng.integers(0, n)))]
    out.mkdir(parents=True)
    topology, population = out / "backbone.graphml", out / "population.txt"
    write_graphml(topology, coords, edges)
    cells = []
    for _ in range(int(rng.integers(1, 13))):
        _, lat, lon = coords[int(rng.integers(n))]
        count = 0 if rng.random() < 0.3 else int(rng.integers(1, 100_000))
        cells.append((float(np.clip(lat + rng.uniform(-5, 5), -90, 90)),
                      float(np.clip(lon + rng.uniform(-5, 5), -180, 180)), count))
    if not any(count for *_, count in cells):
        cells[-1] = (*cells[-1][:2], 1)
    population.write_text("".join(f"{lat!r},{lon!r},{count}\n" for lat, lon, count in cells))
    return str(topology), str(population)


def _workload(rng: np.random.Generator) -> dict:
    return dict(n_items=int(rng.integers(1, 301)), alpha=float(rng.uniform(0, 1.5)),
                bitrates=tuple(rng.uniform(1e6, 1e8, size=int(rng.integers(1, 4))).tolist()),
                target_bitrate=float(10 ** rng.uniform(8, np.log10(7e10))))


def _config(rng: np.random.Generator, shared: dict, n_nodes: int, populated: int) -> dict:
    """Every axis at random, among the values ``_check_fits`` accepts."""
    fields = dict(shared)
    if rng.random() < 0.4:  # another workload in the same trial index
        other = _workload(rng)
        for key in rng.choice(list(other), size=int(rng.integers(1, 5)), replace=False):
            fields[key] = other[key]
    arch, mode = rng.choice(["icn", "dns"]), rng.choice(["pop", "cls"])
    limit = populated if mode == "pop" else n_nodes
    fog_k = int(rng.integers(0, limit + 1))
    cloud_k = int(rng.integers(0 if fog_k else 1, limit + 1))
    catchment = ()
    if arch == "icn":
        catchment = tuple(sorted(set((10 ** rng.uniform(-2, 2, size=int(rng.integers(0, 4))))
                                     .tolist())))
        if rng.random() < 0.2:
            catchment = (0.0,) + catchment
    return dict(fields, arch=str(arch), mode=str(mode), fog_k=fog_k, cloud_k=cloud_k,
                ldns_k=int(rng.integers(1, limit + 1)) if arch == "dns" else 0,
                catchment=catchment, count_fallback=bool(rng.random() < 0.5),
                scheme="bloom" if any(catchment) and rng.random() < 0.5 else "exact",
                # A miss needs a cloud point to pull from.
                fog_cache_fraction=1.0 if cloud_k == 0 or rng.random() < 0.2
                else float(rng.uniform(0.01, 1.0)))


def _check(got, want, config: ScenarioConfig) -> None:
    assert list(got.variants()) == list(want.variants())
    assert got.unicast.hop_counts.dtype == want.unicast.hop_counts.dtype
    assert got.unicast.hop_counts.tobytes() == want.unicast.hop_counts.tobytes()
    for key, metrics in want.variants().items():
        assert got.variants()[key].arc_load == pytest.approx(metrics.arc_load, rel=1e-12,
                                                             abs=0), key
    if config.scheme == "exact":
        loads = [got.unicast.arc_load] + [got.by_catchment[t].arc_load
                                          for t in sorted(got.by_catchment)]
        for smaller_t, larger_t in zip(loads, loads[1:]):
            assert (larger_t <= smaller_t).all()


def fuzz_case(seed: int, out: Path) -> int:
    """Run fuzz case ``seed`` with its files under ``out``; return the number
    of (config, trial) comparisons it made."""
    rng = np.random.default_rng(seed)
    top, pop = _files(rng, out)
    graph = load_topology(top)
    populated = int(np.count_nonzero(assign_population(graph, load_population(pop))))
    shared = dict(_workload(rng), topology_path=top, population_path=pop,
                  base_seed=int(rng.integers(0, 2**32)))
    configs = [ScenarioConfig(**_config(rng, shared, graph.n_nodes, populated))
               for _ in range(int(rng.integers(2, 4)))]
    indices = sorted(rng.choice(50, size=int(rng.integers(1, 3)), replace=False).tolist())
    for index in indices:  # trial-major, as sweeps run
        for config in configs:
            _check(run_trial(config, index), oracles.reference_trial(config, index)[0], config)
    return len(indices) * len(configs)


def test_run_trial_equals_reference_on_random_scenarios(tmp_path):
    compared = 0
    for seed in range(CASES):
        try:
            compared += fuzz_case(seed, tmp_path / str(seed))
        except Exception as error:
            raise AssertionError(f"fuzz case {seed} failed; run it alone with "
                                 f"`PYTHONPATH=src python tests/test_fuzz.py {seed}`") from error
    assert compared >= 140


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for arg in sys.argv[1:]:
            print(f"case {arg}: {fuzz_case(int(arg), Path(scratch) / arg)} comparisons")
