"""fogcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid_icn --seed 1 --seconds 10 --trace 0

Run from the root of a fogcast source tree; fogcast is imported from its
``src/`` directory, never from an installed copy. Every measurement runs in
a fresh single-threaded process (``perfbench/worker.py``), one after the
other.

``--trace 0`` reports the end-to-end metrics, with tracing off:

- ``setup_s``: median over several fresh processes of what the first trial
  pays beyond a steady trial: import + first ``run_trial`` - the same
  trial's steady time (median of five reruns in the same process). The
  trial is the grid's first config with the exact scheme and no catchment,
  short next to the set-up it measures (see ``worker.py``). It covers
  ``load_topology``, ``all_pairs`` and population assignment, and any work
  later moved into the first call.
- The last of those processes then repeats the workload's ``fogcast
  sweep`` for ``--seconds`` (at least twice) with the loaded
  context: ``wall_s`` is what a user of ``fogcast sweep`` waits for,
  ``setup_s`` + the median sweep wall-clock (CSV emission included);
  ``trials_per_s`` the trials completed per second of sweeping, set-up
  excluded; ``trial_ms_p50`` / ``trial_ms_p95`` percentiles of every
  ``run_trial`` call, each timed by one ``perf_counter`` pair;
  ``peak_rss_mb`` that process's peak resident memory.
- ``check_pass_frac``: output checks passed / run (see ``checks.py``);
  every repeated sweep must also reproduce the first one's CSV digests.

The timings above are given at reference host speed: each timed span
(each ``run_trial`` call, each part of a set-up sample) is divided by the
host's slowness, measured with the fixed calibration kernel of
``calibrate.py`` in the same process right before and right after it. The
shared host this runs on shifts in speed by up to 1.6x for a second or more
at a time and drifts over minutes; the scaling takes that out and leaves
every change to fogcast's own speed in. The calibration inside a sweep is
not counted in its wall-clock. ``result.json`` keeps the raw timings.

``--trace 1`` runs one fixed-size sweep untraced and one traced, each in a
fresh process, and reports the per-layer metrics of the traced one (see
``layers.py``). Both passes load the topology and population before their
sweep is timed, so ``trace.overhead_frac`` = traced sweep wall / untraced
sweep wall - 1 is the tracing cost of the trials and CSV output, not
set-up noise.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` (output checks run and
failed) and ``metrics``. Details of the run (CSV sha256 digests, sample
counts, versions, check failures) go to ``result.json`` in the run's work
directory, next to the CSVs of its last sweep; ``compare.py`` compares two
such directories.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")
RUN_BUDGET_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _child(mode: str, work: Path, name: str, grid: Path, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    result = work / f"{name}.json"
    src = Path("src").resolve()
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "worker.py"), mode, "--src", str(src),
               "--grid", str(grid), "--result", str(result), *extra]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} worker ran past the {RUN_BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result.read_text())


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_steady(workload, work: Path, grid: Path, seconds: int, deadline: float,
               log) -> tuple[dict, dict]:
    out = work / "csv"
    probes = [_child("setup", work, f"setup{i}", grid, deadline)
              for i in range(workload.setup_samples - 1)]
    main = _child("steady", work, "steady", grid, deadline,
                  "--out", str(out), "--seconds", str(seconds))
    setups = [probe["setup_s"] for probe in probes] + [main["setup_s"]]
    setup_s = statistics.median(setups)

    sweeps = main["sweeps"]
    for sweep in sweeps[1:]:
        log.check(sweep["digests"] == sweeps[0]["digests"], "repeated sweep changed its CSVs")
    checks.check_sweep(out, workload.cells(), workload.variants(), workload.trials, log)

    trial_ms = [t * 1e3 for times in main["trial_s"].values() for t in times]
    walls = [s["wall_s"] for s in sweeps]
    metrics = {
        "wall_s": (setup_s + statistics.median(walls), "s"),
        "trials_per_s": (len(trial_ms) / sum(walls), "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_p95": (_percentile(trial_ms, 95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "check_pass_frac": (1.0 - log.failed / log.attempted, "frac"),
    }
    details = {
        "numpy": main["numpy"],
        "digests": sweeps[0]["digests"],
        "samples": {"sweeps": len(sweeps), "trials": len(trial_ms),
                    "distinct_trials": len(main["trial_s"]), "setups": len(setups)},
        "sweep_wall_s": walls,
        "raw_sweep_wall_s": [s["raw_wall_s"] for s in sweeps],
        "sweep_slowness": [s["slowness"] for s in sweeps],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [p["raw_setup_s"] for p in probes] + [main["raw_setup_s"]],
        "trial_s": main["trial_s"],
    }
    return metrics, details


def run_traced(workload, work: Path, grid: Path, deadline: float, log) -> tuple[dict, dict]:
    plain = _child("pass", work, "plain", grid, deadline,
                   "--out", str(work / "plain"), "--traced", "0")
    traced = _child("pass", work, "traced", grid, deadline,
                    "--out", str(work / "csv"), "--traced", "1")
    for name, digest in plain["digests"].items():
        log.check(traced["digests"][name] == digest, f"tracing changed {name}")
    checks.check_sweep(work / "csv", workload.cells(), workload.variants(),
                       workload.trace_trials, log)

    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["experiment.csv_bytes"] = (
        sum((work / "csv" / name).stat().st_size for name in checks.CSV_FILES), "bytes")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "frac")
    details = {
        "numpy": traced["numpy"],
        "digests": traced["digests"],
        "samples": {"spans": traced["spans"]},
        "wrapped": traced["wrapped"],
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "traced_peak_rss_mb": traced["peak_rss_mb"],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fogcast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    if not Path("src/fogcast/__init__.py").is_file():
        print("perfbench: run from the root of a fogcast source tree "
              "(src/fogcast not found)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    grid = workload.write_inputs(work, args.seed, trace=bool(args.trace))
    log = checks.CheckLog()
    try:
        if args.trace:
            metrics, details = run_traced(workload, work, grid, deadline, log)
        else:
            metrics, details = run_steady(workload, work, grid, args.seconds, deadline, log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_s": time.monotonic() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": {"attempted": log.attempted, "failed": log.failed,
                   "failures": log.failures[:20]},
        "python": platform.python_version(), "numpy": details.pop("numpy"),
        "nproc": os.cpu_count(),
        **details,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} samples: {details['samples']}; checks {log.attempted - log.failed}"
          f"/{log.attempted} passed; details in {work / 'result.json'}")
    for failure in log.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
