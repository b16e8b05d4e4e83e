"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads grid_icn,bloom_icn --seeds 1-10 \
        [--trace 0] [--out perfbench/baseline.json]

For every workload and metric: the median and quartiles of the per-seed
values (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. Each run measures for
``run_seconds`` of ``BENCHMARK.json``. With ``--trace 0`` every spread is
set against the metric's bound there; a spread above a third of the bound
is flagged. ``--out`` writes everything, with the Python and numpy
versions, ``nproc`` and the git commit when known.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-metric spread over seeds")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, seconds, args.trace) for seed in _seeds(args.seeds)]
        report[workload] = {"correct": all(r["correct"] for r in runs), "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            report[workload]["metrics"][name] = stats
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag, steady = "  > bound/3", False
            print(f"{workload:10s} {name:42s} median {stats['median']:12.6g} {first['unit']:6s}"
                  f" spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        print(f"{workload:10s} all outputs correct: {report[workload]['correct']}")

    if args.out:
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True).stdout.strip()
        args.out.write_text(json.dumps({
            "seeds": _seeds(args.seeds), "seconds": seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": _git_commit(),
            "workloads": report,
        }, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
