"""Seeded outputs pinned across changes.

Five grids on the bundled backbone, and three on the 2,000-node synthetic
backbone of seed 1 (``conftest.write_synthetic``), are re-run and compared
with the CSVs committed under ``tests/data/golden/<grid>/``. ``grid_icn``
has the shape of the benchmark's workload of that name (the paper's fog x
cloud sweep with catchment intervals), and ``square`` is the same sweep
with fallback pulls counted. On
the synthetic backbone the default Bloom scheme carries thousands of false-positive
arcs, so their charging is pinned too; the bundled backbone gives none.
There, too, only 271 of the 2,000 nodes are clients, so the per-client
resolution and paths of a ``pop`` grid of each architecture are pinned
where most nodes are not asked about: ``scale_2k`` has the shape of the
benchmark's workload of that name, and ``dns_pop_2k`` places LDNS points
by population. Under the numpy version that wrote the files
(``tests/data/golden/numpy_version.txt``) every file must match byte for
byte. Under any other version ``pathlen.csv`` and every row label must
match exactly and backhaul values (the float columns of ``backhaul.csv``
and ``summary.csv``) within 1e-12 relative, so a change in numpy's float
summation order does not fail the test. Each grid runs with one and with
two jobs, and the two outputs must be byte-identical.

Regenerate the files, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from conftest import write_synthetic
from fogcast.experiment import load_grid, run_sweep

GOLDEN = Path(__file__).parent / "data" / "golden"
NUMPY_VERSION = GOLDEN / "numpy_version.txt"

GRIDS = {
    "icn_exact": "arch = icn\nfog = 2,4\ncloud = 1,2\nplacement = pop,cls\n"
                 "catchment = 0,0.1,1,10\ntrials = 4\nseed = 7\n",
    "grid_icn": "arch = icn\nfog = 2,4,6,8\ncloud = 2,4,6,8\ncatchment = 0.1,1,10\n"
                "count_fallback = false\ntrials = 4\nseed = 1\n",
    "square": "arch = icn\nfog = 2,4,6,8\ncloud = 2,4,6,8\ncatchment = 0.1,1,10\ntrials = 3\n"
              "seed = 3\n",
    "icn_bloom": "arch = icn\nfog = 2,4\ncloud = 2\ncatchment = 0.1,1\nscheme = bloom\n"
                 "count_fallback = false\ntrials = 4\nseed = 11\n",
    "dns": "arch = dns\nfog = 2,4\ncloud = 1,2\nldns = 1,3\nplacement = cls,pop\n"
           "trials = 4\nseed = 13\n",
    "bloom_2k": "arch = icn\nfog = 4,8\ncloud = 4\ncatchment = 0.1,1\nscheme = bloom\n"
                "trials = 2\nseed = 5\n",
    "scale_2k": "arch = icn\nfog = 8\ncloud = 8\ncatchment = 0.1,1,10\ntrials = 6\nseed = 3\n",
    "dns_pop_2k": "arch = dns\nfog = 4,8\ncloud = 2,8\nldns = 2,4\nplacement = pop\n"
                  "trials = 2\nseed = 4\n",
}

# Grids run on the 2,000-node synthetic backbone rather than the bundled one.
SYNTHETIC = {"bloom_2k", "scale_2k", "dns_pop_2k"}

# Per file: how many trailing columns hold backhaul values.
FLOAT_COLUMNS = {"backhaul.csv": 1, "summary.csv": 2, "pathlen.csv": 0}


def sweep(name: str, out: Path, jobs: int = 1, inputs: Path | None = None) -> None:
    """Run grid ``name`` into ``out``; a synthetic backbone is written to
    ``inputs`` (default ``out``), so runs that share it load it once."""
    out.mkdir(parents=True, exist_ok=True)
    grid = GRIDS[name]
    if name in SYNTHETIC:
        topology, population = write_synthetic(inputs or out, 1)
        grid += f"topology = {topology}\npopulation = {population}\n"
    (out / "grid.cfg").write_text(grid)
    run_sweep(load_grid(out / "grid.cfg"), out_dir=out, jobs=jobs)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_seeded_outputs_match_golden(name, tmp_path):
    for jobs in (1, 2):
        sweep(name, tmp_path / f"jobs{jobs}", jobs, inputs=tmp_path)
        check_golden(name, tmp_path / f"jobs{jobs}")
    for csv in FLOAT_COLUMNS:
        assert (tmp_path / "jobs2" / csv).read_bytes() == (tmp_path / "jobs1" / csv).read_bytes()


def check_golden(name: str, out: Path) -> None:
    same_numpy = NUMPY_VERSION.read_text().strip() == np.__version__
    for csv, n_float in FLOAT_COLUMNS.items():
        if same_numpy:
            assert (out / csv).read_bytes() == (GOLDEN / name / csv).read_bytes(), csv
            continue
        actual = (out / csv).read_text().splitlines()
        expected = (GOLDEN / name / csv).read_text().splitlines()
        assert len(actual) == len(expected), csv
        for got, want in zip(actual, expected):
            if got == want:
                continue
            assert n_float, (csv, got, want)
            got_label, *got_values = got.rsplit(",", n_float)
            want_label, *want_values = want.rsplit(",", n_float)
            assert got_label == want_label, csv
            assert [float(v) for v in got_values] == pytest.approx(
                [float(v) for v in want_values], rel=1e-12, abs=0), (csv, got_label)


if __name__ == "__main__":
    for grid in GRIDS:
        sweep(grid, GOLDEN / grid)
        for path in (GOLDEN / grid).iterdir():
            if path.name not in FLOAT_COLUMNS:
                path.unlink()
    NUMPY_VERSION.write_text(np.__version__ + "\n")
