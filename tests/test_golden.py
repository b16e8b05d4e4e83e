"""Seeded outputs pinned across changes.

Eleven grids on the bundled backbone, six on the 2,000-node synthetic
backbone of seed 1 (``conftest.write_synthetic``) and one on its 10,000-node
sibling are re-run and compared with the CSVs committed under
``tests/data/golden/<grid>/``. The ``ci_*`` grids add Bloom, resolver and
closeness runs on the bundled backbone and on both synthetic ones, and a
steep Zipf law over 70,000 items (``ci_steep``). ``grid_icn``,
``bloom_icn`` and ``grid_dns`` have the shapes of the benchmark's workloads
of those names (``grid_icn`` is the paper's fog x cloud sweep with
catchment intervals), and ``square`` is the ``grid_icn`` sweep with
fallback pulls counted. On
the synthetic backbone the default Bloom scheme carries thousands of false-positive
arcs, so their charging is pinned too; the bundled backbone gives few.
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
``PYTHONPATH=src python tests/test_golden.py``. It also writes the
acceptance grid's ``backhaul.csv``, which ``tests/test_acceptance.py``
checks against its own run of that grid with ``check_text``.
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
    "ci_bloom": "arch = icn\nfog = 2,4\ncloud = 2\ncatchment = 0.1,1\nscheme = bloom\n"
                "trials = 3\nseed = 3\n",
    "ci_dns": "arch = dns\nfog = 2,4\ncloud = 1,2\nldns = 1,3\nplacement = cls\ntrials = 3\n"
              "seed = 5\n",
    "ci_steep": "arch = dns\nfog = 2,4\ncloud = 2,4\nldns = 2\nplacement = cls\nitems = 70000\n"
                "alpha = 1.5\ntrials = 3\nseed = 9\n",
    "ci_dns_modes": "arch = dns\nfog = 2,4\ncloud = 2,4\nldns = 2\nplacement = pop,cls\n"
                    "trials = 3\nseed = 7\n",
    "ci_scale": "arch = icn\nfog = 4,8\ncloud = 4\nplacement = pop,cls\ncatchment = 0.1,1\n"
                "trials = 2\nseed = 5\n",
    "ci_scale_bloom": "arch = icn\nscheme = bloom\nfog = 4,8\ncloud = 4\ncatchment = 0.1,1\n"
                      "trials = 2\nseed = 5\n",
    "ci_scale_dns": "arch = dns\nfog = 4,8\ncloud = 4\nldns = 2,4\nplacement = cls\n"
                    "trials = 2\n",
    "ci_big": "arch = icn\nfog = 4,8\ncloud = 4\ncatchment = 0.1,1\ntrials = 2\nseed = 5\n",
    "bloom_icn": "arch = icn\nfog = 4\ncloud = 4\ncatchment = 0.1,1,10\nscheme = bloom\n"
                 "count_fallback = true\ntrials = 4\nseed = 2\n",
    "grid_dns": "arch = dns\nfog = 2,4,6,8\ncloud = 2,4,6,8\nldns = 4\nplacement = pop,cls\n"
                "trials = 2\nseed = 2\n",
}

# Grids run on a synthetic backbone of seed 1 rather than the bundled one,
# with its node and chord counts.
SYNTHETIC = {name: (2000, 400) for name in ("bloom_2k", "scale_2k", "dns_pop_2k", "ci_scale",
                                            "ci_scale_bloom", "ci_scale_dns")}
SYNTHETIC["ci_big"] = (10000, 2000)

# The acceptance grid: its golden is only ``backhaul.csv``, checked against
# the trials ``tests/test_acceptance.py``'s ``grid_run`` fixture already
# runs, so no test here runs it again.
ACCEPTANCE = ("arch = icn\nfog = 2,4,6,8\ncloud = 2,4,6,8\ncatchment = 0.1,1,10\n"
              "count_fallback = false\ntrials = 50\nseed = 3\n")

# Per file: how many trailing columns hold backhaul values.
FLOAT_COLUMNS = {"backhaul.csv": 1, "summary.csv": 2, "pathlen.csv": 0}


def sweep(name: str, out: Path, jobs: int = 1, inputs: Path | None = None) -> None:
    """Run grid ``name`` into ``out``; a synthetic backbone is written to
    ``inputs`` (default ``out``), so runs that share it load it once."""
    out.mkdir(parents=True, exist_ok=True)
    grid = ACCEPTANCE if name == "acceptance" else GRIDS[name]
    if name in SYNTHETIC:
        topology, population = write_synthetic(inputs or out, 1, *SYNTHETIC[name])
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
    for csv in FLOAT_COLUMNS:
        check_text((out / csv).read_bytes().decode(), GOLDEN / name / csv)


def check_text(actual: str, golden: Path) -> None:
    """An output file's text against its golden file, named as the output:
    equal byte for byte under the writing numpy, else as the module says."""
    csv, expected = golden.name, golden.read_bytes().decode()
    if NUMPY_VERSION.read_text().strip() == np.__version__:
        assert actual == expected, csv
        return
    n_float = FLOAT_COLUMNS[csv]
    actual, expected = actual.splitlines(), expected.splitlines()
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
    for grid in [*GRIDS, "acceptance"]:
        sweep(grid, GOLDEN / grid)
        kept = FLOAT_COLUMNS if grid in GRIDS else ("backhaul.csv",)
        for path in (GOLDEN / grid).iterdir():
            if path.name not in kept:
                path.unlink()
    NUMPY_VERSION.write_text(np.__version__ + "\n")
