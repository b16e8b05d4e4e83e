"""The benchmark's workloads, written as fogcast grid files.

Each workload is one ``fogcast sweep`` grid. The workload seed becomes the
grid's ``seed`` (fogcast's ``base_seed``) and, for ``scale_2k``, the seed
of the synthetic backbone. ``cells`` and ``variants`` list the rows a
sweep must emit; the output checks use them as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import synth


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    fog: tuple[int, ...]
    cloud: tuple[int, ...]
    catchment: tuple[float, ...]
    scheme: str
    count_fallback: bool
    trials: int                    # trials per config in a timed sweep
    trace_trials: int              # trials per config in the traced sweep
    setup_samples: int             # fresh processes that measure set-up
    ldns: tuple[int, ...] = (0,)
    placement: tuple[str, ...] = ("pop",)
    synthetic: bool = False

    def cells(self) -> list[str]:
        """CSV row prefixes ``arch,fog,cloud,ldns,mode``, one per config."""
        return [f"{self.arch},{f},{c},{l},{m}"
                for f, c, l, m in product(self.fog, self.cloud, self.ldns, self.placement)]

    def variants(self) -> list[float]:
        """Backhaul variants per trial: unicast (0.0) plus each interval."""
        return [0.0] + [t for t in self.catchment if t != 0.0]

    def write_inputs(self, work: Path, seed: int, trace: bool) -> Path:
        """Write the grid file (and the synthetic backbone) under ``work``."""
        lines = [
            f"arch = {self.arch}",
            f"fog = {_join(self.fog)}",
            f"cloud = {_join(self.cloud)}",
            f"placement = {_join(self.placement)}",
            f"scheme = {self.scheme}",
            f"count_fallback = {str(self.count_fallback).lower()}",
            f"trials = {self.trace_trials if trace else self.trials}",
            f"seed = {seed}",
        ]
        if self.arch == "dns":
            lines.append(f"ldns = {_join(self.ldns)}")
        if self.catchment:
            lines.append(f"catchment = {_join(self.catchment)}")
        if self.synthetic:
            topology, population = synth.write_backbone(work / "backbone", seed)
            lines += [f"topology = {topology}", f"population = {population}"]
        grid = work / "grid.txt"
        grid.write_text("\n".join(lines) + "\n")
        return grid


def _join(values) -> str:
    return ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)


SQUARE = (2, 4, 6, 8)
INTERVALS = (0.1, 1.0, 10.0)

WORKLOADS = {
    w.name: w
    for w in [
        Workload("grid_icn", arch="icn", fog=SQUARE, cloud=SQUARE, catchment=INTERVALS,
                 scheme="exact", count_fallback=False, trials=4, trace_trials=24, setup_samples=9),
        Workload("bloom_icn", arch="icn", fog=(4,), cloud=(4,), catchment=INTERVALS,
                 scheme="bloom", count_fallback=True, trials=16, trace_trials=8,
                 setup_samples=7),
        Workload("grid_dns", arch="dns", fog=SQUARE, cloud=SQUARE, ldns=(4,),
                 placement=("pop", "cls"), catchment=(), scheme="exact",
                 count_fallback=True, trials=6, trace_trials=4, setup_samples=9),
        Workload("scale_2k", arch="icn", fog=(8,), cloud=(8,), catchment=INTERVALS,
                 scheme="exact", count_fallback=True, trials=32, trace_trials=16, setup_samples=3,
                 synthetic=True),
    ]
}
