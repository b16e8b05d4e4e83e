"""Seeded outputs pinned across changes.

Three small grids on the bundled backbone are re-run and compared with the
CSVs committed under ``tests/data/golden/<grid>/``. ``pathlen.csv`` and
every row label must match exactly; backhaul values (the float columns of
``backhaul.csv`` and ``summary.csv``) within 1e-12 relative, so a change in
numpy's float summation order does not fail the test.

Regenerate the files, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from fogcast.experiment import load_grid, run_sweep

GOLDEN = Path(__file__).parent / "data" / "golden"

GRIDS = {
    "icn_exact": "arch = icn\nfog = 2,4\ncloud = 1,2\nplacement = pop,cls\n"
                 "catchment = 0,0.1,1,10\ntrials = 4\nseed = 7\n",
    "icn_bloom": "arch = icn\nfog = 2,4\ncloud = 2\ncatchment = 0.1,1\nscheme = bloom\n"
                 "count_fallback = false\ntrials = 4\nseed = 11\n",
    "dns": "arch = dns\nfog = 2,4\ncloud = 1,2\nldns = 1,3\nplacement = cls,pop\n"
           "trials = 4\nseed = 13\n",
}

# Per file: how many trailing columns hold backhaul values.
FLOAT_COLUMNS = {"backhaul.csv": 1, "summary.csv": 2, "pathlen.csv": 0}


def sweep(name: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "grid.cfg").write_text(GRIDS[name])
    run_sweep(load_grid(out / "grid.cfg"), out_dir=out)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_seeded_outputs_match_golden(name, tmp_path):
    sweep(name, tmp_path)
    for csv, n_float in FLOAT_COLUMNS.items():
        actual = (tmp_path / csv).read_text().splitlines()
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
        (GOLDEN / grid / "manifest.txt").unlink()
        (GOLDEN / grid / "grid.cfg").unlink()
