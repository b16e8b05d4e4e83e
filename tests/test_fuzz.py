"""Seeded differential fuzzing: random scenarios against ``oracles.reference_trial``.

Each case draws a random connected backbone of 1-59 nodes (a tree plus
chords), a population grid that includes zero-count cells, a workload and
2-3 configs with every axis drawn at random among runnable values. Bloom
configs run under a 16-bit scheme (m = 16, k = 2), which passes
false-positive arcs on backbones this small. The configs share a base seed
and input files and run trial-major over 1-2 trial indices, as a sweep runs
them, so what the configs of one trial index share is checked as well as a
lone call. Every ``run_trial`` must equal the reference: loads within 1e-12
relative, arc by arc, and bit-equal hop histograms. Under the exact scheme
the catchment load stays at or below unicast and does not rise with T, arc
by arc.

The input slice feeds ``cli.main`` bad input: ``fogcast sweep`` over seeded
byte mutations of a grid file, a population file and a GraphML file, and
``fogcast run`` with random ``--flag=value`` sets drawn from a pool of bad
values, some with a ``--jobs`` value or an unknown flag. Every case must
keep the one-error-line rule of ``conftest.cli_error``: argparse and the
config and file gates alone must catch every bad input. The cases run in
one subprocess whose address space is capped; no ``--jobs`` value drawn
exceeds 1, so none starts a worker pool.

A failing case names its seed; ``PYTHONPATH=src python tests/test_fuzz.py
SEED`` runs that differential case alone, and ``PYTHONPATH=src python
tests/test_fuzz.py --inputs SEED`` that input case.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import Bloom16, cli_error, write_graphml
from fogcast import experiment
from fogcast.experiment import GRID_KEYS, ScenarioConfig, run_trial
from fogcast.topology import load_topology
from fogcast.workload import assign_population, load_population
import oracles

CASES = 39
INPUT_CASES = 600
# The input slice's address-space cap: far above what a case needs.
INPUT_MEMORY_CAP = 5 << 29  # 2.5 GiB


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


def fuzz_case(seed: int, out: Path) -> tuple[int, int]:
    """Run fuzz case ``seed`` with its files under ``out``; return the number
    of (config, trial) comparisons it made and the false-positive arcs its
    Bloom configs passed under the 16-bit scheme."""
    rng = np.random.default_rng(seed)
    top, pop = _files(rng, out)
    graph = load_topology(top)
    populated = int(np.count_nonzero(assign_population(graph, load_population(pop))))
    shared = dict(_workload(rng), topology_path=top, population_path=pop,
                  base_seed=int(rng.integers(0, 2**32)))
    configs = [ScenarioConfig(**_config(rng, shared, graph.n_nodes, populated))
               for _ in range(int(rng.integers(2, 4)))]
    indices = sorted(rng.choice(50, size=int(rng.integers(1, 3)), replace=False).tolist())
    fp_arcs = 0
    # The default scheme passes no false-positive arc on backbones this small.
    with mock.patch.object(experiment, "BloomScheme", Bloom16), \
            mock.patch.object(oracles, "BloomScheme", Bloom16):
        for index in indices:  # trial-major, as sweeps run
            for config in configs:
                got = run_trial(config, index)
                want, counters = oracles.reference_trial(config, index)
                _check(got, want, config)
                fp_arcs += counters["fp_arcs"]
    return len(indices) * len(configs), fp_arcs


def test_run_trial_equals_reference_on_random_scenarios(tmp_path):
    compared = fp_arcs = 0
    for seed in range(CASES):
        try:
            pairs, arcs = fuzz_case(seed, tmp_path / str(seed))
        except Exception as error:
            raise AssertionError(f"fuzz case {seed} failed; run it alone with "
                                 f"`PYTHONPATH=src python tests/test_fuzz.py {seed}`") from error
        compared, fp_arcs = compared + pairs, fp_arcs + arcs
    assert compared >= 140
    assert fp_arcs > 0


# --- input slice ------------------------------------------------------------

BASE_GRID = "fog = 1,2\ncloud = 1\ncatchment = 0.1\nitems = 30\ntrials = 1\nseed = 3\n"
# Flag values: each bad in some flag, and some good in others.
BAD_VALUES = ["nan", "inf", "-1", "0", "1e400", "1e308", str(2**63 - 1), "1,,2", ",", "abc",
              "true"]
# ``--jobs`` values: 1 runs in-process, the others are no integer >= 1.
JOBS_VALUES = ["1", "0", "-1", "1.5", "two", "", " "]
# Bytes a mutation writes: half of them from this set, which keeps records
# parsable more often; the other half any byte.
SYNTAX_BYTES = b"0123456789.,-e=#\n <>/\"'"


def _mutate(rng: np.random.Generator, data: bytes) -> bytes:
    """One to three seeded byte edits of ``data``: a byte replaced,
    inserted or deleted."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(data) + 1))
        byte = (SYNTAX_BYTES[int(rng.integers(len(SYNTAX_BYTES)))] if rng.random() < 0.5
                else int(rng.integers(256)))
        edit = int(rng.integers(3))
        if edit == 0 and at < len(data):
            data[at] = byte
        elif edit == 1:
            data.insert(at, byte)
        else:
            del data[at:at + 1]
    return bytes(data)


def _input_argv(seed: int, out: Path) -> list[str]:
    """Case ``seed``'s command line, its input files written under ``out``."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True)
    top, pop = out / "backbone.graphml", out / "population.txt"
    write_graphml(top, [("a", 50.0, 0.0), ("b", 50.0, 1.0), ("c", 51.0, 0.5)],
                  [(0, 1), (1, 2), (2, 0)])
    pop.write_text("50.0,0.0,60\n50.0,1.0,30\n# a comment\n51.0,0.5,10\n")
    if seed % 2:  # a grid file and the files it names, some of them mutated
        grid = out / "grid.cfg"
        grid.write_text(f"topology = {top}\npopulation = {pop}\n{BASE_GRID}")
        for path in rng.choice([grid, top, pop], size=int(rng.integers(1, 4)), replace=False):
            path.write_bytes(_mutate(rng, path.read_bytes()))
        return ["sweep", f"--grid={grid}", f"--out={out / 'out'}"]
    values = BAD_VALUES + [str(path) for path in (top, pop)]
    # Mutated paths, decoded as Python decodes a command line.
    values += [_mutate(rng, value.encode()).decode("utf-8", "surrogateescape")
               for value in (str(top), str(pop))]
    argv = ["run", f"--trials={rng.integers(1, 3)}"]
    # Half the sets hold one flag, so a bad value meets the gates alone.
    for key in rng.choice(list(GRID_KEYS), size=min(int(rng.geometric(0.5)), 4), replace=False):
        argv.append(f"--{key.replace('_', '-')}={values[int(rng.integers(len(values)))]}")
    if rng.random() < 0.25:
        argv.append(f"--jobs={JOBS_VALUES[int(rng.integers(len(JOBS_VALUES)))]}")
    if rng.random() < 0.1:
        argv.append("--bogus=1")
    return argv + [f"--out={out / 'out'}"]


def input_case(seed: int, out: Path) -> str | None:
    """Run input case ``seed`` through ``cli.main``; return how its outcome
    breaks the one-error-line rule (``conftest.cli_error``), or None."""
    try:
        cli_error(_input_argv(seed, out), out / "out")
    except AssertionError as wrong:
        return str(wrong)
    return None


def input_slice(seeds, out: Path) -> int:
    """Run the input cases of ``seeds`` under the address-space cap; print
    each failing one with its seed and return how many failed."""
    resource.setrlimit(resource.RLIMIT_AS, (INPUT_MEMORY_CAP, INPUT_MEMORY_CAP))
    failed = 0
    for seed in seeds:
        wrong = input_case(seed, out / str(seed))
        if wrong is not None:
            failed += 1
            print(f"input case {seed} failed; run it alone with "
                  f"`PYTHONPATH=src python tests/test_fuzz.py --inputs {seed}`: {wrong}")
    return failed


def test_bad_input_exits_with_one_error_line(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, test_fuzz; from pathlib import Path; "
         f"sys.exit(test_fuzz.input_slice(range({INPUT_CASES}), Path(sys.argv[1])) > 0)",
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    inputs = sys.argv[1:2] == ["--inputs"]
    with tempfile.TemporaryDirectory() as scratch:
        if inputs:
            sys.exit(input_slice([int(arg) for arg in sys.argv[2:]], Path(scratch)) > 0)
        for arg in sys.argv[1:]:
            pairs, arcs = fuzz_case(int(arg), Path(scratch) / arg)
            print(f"case {arg}: {pairs} comparisons, {arcs} false-positive arcs")
