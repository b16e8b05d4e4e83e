"""One measuring process of the benchmark, started fresh by ``run.py``.

Modes (each writes one JSON object to ``--result``):

``setup``   import fogcast and run a first trial; the set-up it pays is
            import time + first-trial time - the same trial's steady time.
            The trial is the grid's first config with the exact scheme and
            no catchment: it loads the same topology, hop table and
            population as every trial of the grid, and it is short, so the
            set-up is not the small difference of two long, noisy trials
            (on a 2-vCPU virtual machine a Bloom trial takes about 0.5 s,
            the set-up about 0.2 s).
``steady``  one set-up sample as in ``setup``, then repeated ``fogcast
            sweep`` calls through ``fogcast.cli.main`` for ``--seconds``,
            timing every sweep and, with one ``perf_counter`` pair, every
            ``run_trial`` call.
``pass``    one sweep of fixed size, with tracing (``--traced 1``) or
            without, timed after the topology and population are loaded;
            the traced pass also reports the per-layer metrics.

All sweeps run with ``--jobs 1`` in this process. The timings of set-up
samples and steady sweeps are given at reference host speed (see
``calibrate.py``): each timed part of a set-up sample and each ``run_trial``
call through ``calibrate.Clock``, and the rest of a steady sweep
(``run_sweep``'s own work and CSV output) at the sweep's mean slowness. A
steady sweep's wall-clock excludes the calibration done inside it. The raw
timings and slowness factors are returned as well. Fixed passes are timed
raw.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import checks

STEADY_REPEATS = 5   # extra runs of the first trial in a set-up probe
MIN_SWEEPS = 2       # a steady run always times at least this many sweeps


def _import_fogcast(src: Path):
    start = time.perf_counter()
    from fogcast import cli, experiment
    import_s = time.perf_counter() - start
    if not Path(experiment.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fogcast imported from {experiment.__file__}, not from {src}")
    return cli, experiment, import_s


def _sweep(cli, grid: Path, out: Path) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", "--grid", str(grid), "--jobs", "1", "--out", str(out)])
    wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"fogcast sweep exited with {code}")
    return wall


def _timed(clock: calibrate.Clock, fn, *args) -> tuple[float, float]:
    """(raw seconds, seconds at reference speed) of one call."""
    start = time.perf_counter()
    fn(*args)
    raw = time.perf_counter() - start
    return raw, clock.scale(raw)


def _set_up(args):
    """Import fogcast and run the first trial; return (cli, experiment, clock,
    set-up sample). The sample holds the set-up seconds at reference speed
    and the raw seconds."""
    clock = calibrate.Clock()
    cli, experiment, import_s = _import_fogcast(args.src)
    import_ref = clock.scale(import_s)
    config = dataclasses.replace(experiment.load_grid(args.grid)[0], scheme="exact", catchment=())
    first = _timed(clock, experiment.run_trial, config, 0)
    reruns = [_timed(clock, experiment.run_trial, config, 0) for _ in range(STEADY_REPEATS)]
    sample = {
        "setup_s": import_ref + first[1] - statistics.median(r[1] for r in reruns),
        "raw_setup_s": import_s + first[0] - statistics.median(r[0] for r in reruns),
    }
    return cli, experiment, clock, sample


def setup_probe(args) -> dict:
    *_, sample = _set_up(args)
    return sample


def steady(args) -> dict:
    cli, experiment, clock, setup = _set_up(args)
    run_trial = experiment.run_trial

    # Seconds at reference speed of every call, per distinct trial
    # "fog,cloud,ldns,mode,index".
    trial_s: dict[str, list[float]] = {}
    # (trial, raw seconds, reference seconds, calibration seconds) of the
    # running sweep.
    current: list[tuple[str, float, float, float]] = []

    def timed_run_trial(config, trial_index):
        start = time.perf_counter()
        outcome = run_trial(config, trial_index)
        elapsed = time.perf_counter() - start
        current.append((_trial_key(config, trial_index), elapsed, clock.scale(elapsed),
                        clock.spent))
        return outcome

    experiment.run_trial = timed_run_trial
    sweeps = []
    deadline = time.perf_counter() + args.seconds
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        raw_wall = _sweep(cli, args.grid, args.out)
        raw_wall -= sum(spent for *_, spent in current)  # the calibration in it
        trials_raw = sum(elapsed for _, elapsed, _, _ in current)
        trials_ref = sum(ref for _, _, ref, _ in current)
        # run_sweep's own work and CSV output, at the sweep's mean slowness
        rest = raw_wall - trials_raw
        sweeps.append({"wall_s": trials_ref + rest * trials_ref / trials_raw,
                       "raw_wall_s": raw_wall,
                       "slowness": trials_raw / trials_ref,
                       "digests": checks.digests(args.out)})
        for key, _, ref, _ in current:
            trial_s.setdefault(key, []).append(ref)
        current.clear()
    return {
        **setup,
        "sweeps": sweeps,
        "trial_s": trial_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _trial_key(config, trial_index: int) -> str:
    return f"{config.fog_k},{config.cloud_k},{config.ldns_k},{config.mode},{trial_index}"


def _load_inputs(experiment, grid: Path) -> None:
    """Load the sweep's topology and population ahead of the sweep, so that
    the pass times the trials and the CSV output, not the set-up. Without
    fogcast's ``_load_context`` cache the sweep pays the set-up itself."""
    load_context = getattr(experiment, "_load_context", None)
    if load_context is not None:
        first = experiment.load_grid(grid)[0]
        load_context(first.topology_path, first.population_path)


def fixed_pass(args) -> dict:
    cli, experiment, _ = _import_fogcast(args.src)
    probe = None
    if args.traced:
        import layers
        from spans import Tracer
        tracer = Tracer()
        probe = layers.LayerProbe()
        wrapped = tracer.install(probe.observers())
    _load_inputs(experiment, args.grid)
    wall = _sweep(cli, args.grid, args.out)
    result = {"wall_s": wall, "digests": checks.digests(args.out), "peak_rss_mb": _peak_rss_mb()}
    if probe is not None:
        result["layers"] = probe.metrics(tracer.totals())
        result["spans"] = len(tracer.starts)
        result["wrapped"] = wrapped
        tracer.write(args.out / "spans.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "steady", "pass"))
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--grid", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="sweep output directory")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    handler = {"setup": setup_probe, "steady": steady, "pass": fixed_pass}[args.mode]
    result = handler(args)
    result["numpy"] = sys.modules["numpy"].__version__
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
