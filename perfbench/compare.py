"""Compare the CSV output of two benchmark runs.

    python3 perfbench/compare.py RUN_DIR_A RUN_DIR_B

A run directory is the ``.perfbench_work/<workload>-seed<n>-trace<t>``
directory of one ``run.py`` call: ``result.json`` holds the sha256 of every
CSV, ``csv/`` the CSVs themselves. Prints ``byte-identical`` when all digests
match, otherwise the largest relative difference over all numeric fields
(``inf`` when the files differ in shape or in a non-numeric field). Exits
non-zero when that difference exceeds ``TOL``, the 1e-12 relative
difference a refactor may introduce.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from checks import CSV_FILES

TOL = 1e-12


def max_rel_diff(text_a: str, text_b: str) -> float:
    """Largest relative difference between two CSV texts of the same shape."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return math.inf
    worst = 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        fields_a, fields_b = line_a.split(","), line_b.split(",")
        if len(fields_a) != len(fields_b):
            return math.inf
        for a, b in zip(fields_a, fields_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return math.inf
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare_runs(run_a: Path, run_b: Path) -> tuple[str, float]:
    """(verdict, largest relative difference) of two run directories."""
    digests_a = json.loads((run_a / "result.json").read_text())["digests"]
    digests_b = json.loads((run_b / "result.json").read_text())["digests"]
    if digests_a == digests_b:
        return "byte-identical", 0.0
    worst = max(max_rel_diff((run_a / "csv" / name).read_text(),
                             (run_b / "csv" / name).read_text())
                for name in CSV_FILES)
    return f"largest relative difference {worst:.3g}", worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark runs' CSVs")
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    verdict, worst = compare_runs(args.run_a, args.run_b)
    print(verdict)
    return 0 if worst <= TOL else 1


if __name__ == "__main__":
    sys.exit(main())
