"""Output checks on a sweep's CSV files, and CSV digests.

The checks read only the emitted text, never fogcast objects:

- every expected backhaul and summary row is present, exactly once;
- every backhaul value is finite and >= 0;
- per trial, each aggregated total is <= the unicast total, and the total
  does not increase with the catchment interval;
- each path-length ECDF has increasing hop counts, non-decreasing
  fractions, and ends at exactly 1.0.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

CSV_FILES = ("backhaul.csv", "pathlen.csv", "summary.csv")

# Aggregated totals may differ from unicast only by float summation order.
REL_TOL = 1e-12


@dataclass
class CheckLog:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV file a sweep wrote."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in CSV_FILES}


HEADERS = {
    "backhaul.csv": "arch,fog_k,cloud_k,ldns_k,mode,T,trial,backhaul_bps",
    "pathlen.csv": "arch,fog_k,cloud_k,ldns_k,mode,hops,cum_fraction",
    "summary.csv": "arch,fog_k,cloud_k,ldns_k,mode,T,trials,mean_backhaul_bps,std_backhaul_bps",
}


def _rows(text: str, name: str, log: CheckLog) -> list[list[str]]:
    lines = text.splitlines()
    log.check(bool(lines) and lines[0] == HEADERS[name], f"{name} header {lines[:1]}")
    width = HEADERS[name].count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        log.check(len(row) == width, f"{name} row {row} has {len(row)} fields")
    return [row for row in rows if len(row) == width]


def check_sweep(out_dir: Path, cells: list[str], variants: list[float],
                trials: int, log: CheckLog) -> None:
    """Run every output check on one sweep directory, recording into ``log``."""
    _check_backhaul((out_dir / "backhaul.csv").read_text(), cells, variants, trials, log)
    _check_summary((out_dir / "summary.csv").read_text(), cells, variants, log)
    _check_pathlen((out_dir / "pathlen.csv").read_text(), cells, log)


def _check_backhaul(text: str, cells, variants, trials, log: CheckLog) -> None:
    values: dict[tuple[str, float, int], float] = {}
    for row in _rows(text, "backhaul.csv", log):
        prefix, t, trial, raw = ",".join(row[:5]), float(row[5]), int(row[6]), row[7]
        key = (prefix, t, trial)
        log.check(key not in values, f"backhaul row {key} repeated")
        value = float(raw)
        log.check(math.isfinite(value) and value >= 0.0, f"backhaul {key} = {raw}")
        values[key] = value
    expected = {(c, t, i) for c in cells for t in variants for i in range(trials)}
    for key in sorted(expected):
        log.check(key in values, f"backhaul row {key} missing")
    log.check(set(values) <= expected, "backhaul has unexpected rows")

    ordered = sorted(variants)
    for cell in cells:
        for i in range(trials):
            totals = [values.get((cell, t, i)) for t in ordered]
            if None in totals:
                continue  # already failed as missing
            unicast = totals[0]
            aggregated = list(zip(ordered[1:], totals[1:]))
            for t, total in aggregated:
                log.check(total <= unicast * (1 + REL_TOL),
                          f"{cell} trial {i}: T={t} total {total} > unicast {unicast}")
            for (t1, a), (t2, b) in zip(aggregated, aggregated[1:]):
                log.check(b <= a * (1 + REL_TOL),
                          f"{cell} trial {i}: T={t2} total {b} > T={t1} total {a}")


def _check_summary(text: str, cells, variants, log: CheckLog) -> None:
    keys = [(",".join(row[:5]), float(row[5])) for row in _rows(text, "summary.csv", log)]
    expected = {(c, t) for c in cells for t in variants}
    for key in sorted(expected):
        log.check(keys.count(key) == 1, f"summary row {key} missing or repeated")
    log.check(set(keys) <= expected, "summary has unexpected rows")


def _check_pathlen(text: str, cells, log: CheckLog) -> None:
    steps: dict[str, list[tuple[int, float]]] = {}
    for row in _rows(text, "pathlen.csv", log):
        steps.setdefault(",".join(row[:5]), []).append((int(row[5]), float(row[6])))
    for cell in cells:
        points = steps.get(cell, [])
        log.check(bool(points), f"pathlen rows for {cell} missing")
        if not points:
            continue
        hops = [h for h, _ in points]
        fractions = [f for _, f in points]
        log.check(all(a < b for a, b in zip(hops, hops[1:]))
                  and all(a <= b for a, b in zip(fractions, fractions[1:]))
                  and fractions[0] > 0.0,
                  f"ECDF of {cell} not monotone")
        log.check(fractions[-1] == 1.0, f"ECDF of {cell} ends at {fractions[-1]}")
    log.check(set(steps) <= set(cells), "pathlen has unexpected configs")
