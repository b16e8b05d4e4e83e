"""Command-line front end.

``run`` executes one scenario, ``sweep`` a grid file, ``summarize`` and
``ecdf`` post-process the emitted CSV files into gnuplot-ready columns.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import SUMMARY_HEADER, ScenarioConfig, load_grid, run_sweep, summary_row


def _parse_floats(raw: str) -> tuple[float, ...]:
    """argparse type of ``--catchment`` and ``--bitrates``: comma-separated numbers."""
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {raw!r}") from None


def _positive_int(raw: str) -> int:
    """argparse type of ``--jobs`` and ``--trials``: an integer >= 1."""
    if not raw.strip().isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return int(raw)


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run one scenario and write CSV output")
    p.add_argument("--topology", default="", help="GraphML file (default: bundled)")
    p.add_argument("--population", default="", help="population grid file (default: bundled)")
    p.add_argument("--arch", choices=("icn", "dns"), default="icn")
    p.add_argument("--fog", type=int, default=2, metavar="K")
    p.add_argument("--cloud", type=int, default=2, metavar="K")
    p.add_argument("--ldns", type=int, default=0, metavar="K")
    p.add_argument("--placement", choices=("pop", "cls"), default="pop")
    p.add_argument("--catchment", type=_parse_floats, default="", metavar="T[,T...]",
                   help="catchment intervals in seconds (icn only)")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--bitrates", type=_parse_floats, default="20e6,40e6,60e6")
    p.add_argument("--load-fraction", type=float, default=0.4)
    p.add_argument("--target-bitrate", type=float, default=70e9)
    p.add_argument("--fog-cache", type=float, default=0.1,
                   help="fraction of the catalogue cached at fog points")
    p.add_argument("--no-fallback-load", action="store_true",
                   help="exclude fog-to-cloud fallback traffic from backhaul")
    p.add_argument("--scheme", choices=("exact", "bloom"), default="exact")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True, metavar="DIR")


def _add_sweep_parser(sub) -> None:
    p = sub.add_parser("sweep", help="run a grid file")
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True, metavar="DIR")


def _add_summarize_parser(sub) -> None:
    p = sub.add_parser("summarize", help="mean/std backhaul per config from backhaul.csv")
    p.add_argument("--backhaul", required=True, metavar="FILE")


def _add_ecdf_parser(sub) -> None:
    p = sub.add_parser("ecdf", help="two-column ECDF of one config from pathlen.csv")
    p.add_argument("--pathlen", required=True, metavar="FILE")
    p.add_argument("--arch", required=True)
    p.add_argument("--fog", type=int, required=True)
    p.add_argument("--cloud", type=int, required=True)
    p.add_argument("--ldns", type=int, default=0)
    p.add_argument("--placement", default="pop")


def _cmd_run(args) -> int:
    config = ScenarioConfig(
        arch=args.arch,
        fog_k=args.fog,
        cloud_k=args.cloud,
        ldns_k=args.ldns,
        mode=args.placement,
        catchment=args.catchment,
        topology_path=args.topology,
        population_path=args.population,
        n_items=args.items,
        alpha=args.alpha,
        bitrates=args.bitrates,
        load_fraction=args.load_fraction,
        target_bitrate=args.target_bitrate,
        trials=args.trials,
        base_seed=args.seed,
        count_fallback=not args.no_fallback_load,
        scheme=args.scheme,
        fog_cache_fraction=args.fog_cache,
    )
    results = run_sweep([config], out_dir=args.out, jobs=args.jobs)
    for result in results:
        for key, mean in sorted(result.mean_backhaul.items()):
            label = "unicast" if key == 0.0 else f"T={key:g}s"
            print(f"{label}: mean backhaul {mean / 1e9:.2f} Gb/s "
                  f"(std {result.std_backhaul[key] / 1e9:.2f}) over {result.trials} trials")
    return 0


def _cmd_sweep(args) -> int:
    configs = load_grid(args.grid)
    run_sweep(configs, out_dir=args.out, jobs=args.jobs)
    print(f"{len(configs)} config(s) done, output in {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    # run_sweep writes each (config, interval) as a run of rows from trial 0.
    runs: list[tuple[str, list[float]]] = []
    lines = Path(args.backhaul).read_text().splitlines()
    for line in lines[1:]:
        label, trial, value = line.rsplit(",", 2)
        if trial == "0" or not runs or runs[-1][0] != label:
            runs.append((label, []))
        runs[-1][1].append(float(value))
    print(SUMMARY_HEADER)
    for label, values in runs:
        print(summary_row(label, values)[0])
    return 0


def _cmd_ecdf(args) -> int:
    wanted = (args.arch, str(args.fog), str(args.cloud), str(args.ldns), args.placement)
    lines = Path(args.pathlen).read_text().splitlines()
    matched = False
    print("# hops cum_fraction")
    for line in lines[1:]:
        arch, fog, cloud, ldns, mode, hopcount, fraction = line.split(",")
        if (arch, fog, cloud, ldns, mode) == wanted:
            matched = True
            print(f"{hopcount} {fraction}")
    if not matched:
        print(f"no rows match {wanted}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fogcast",
        description="Flow-level evaluation of service-routed fog delivery "
                    "against a resolver-redirection baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_sweep_parser(sub)
    _add_summarize_parser(sub)
    _add_ecdf_parser(sub)
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "summarize": _cmd_summarize,
        "ecdf": _cmd_ecdf,
    }[args.command]
    try:
        return handler(args)
    except OSError as error:
        # A missing or unreadable input file; its message names the path.
        print(f"fogcast: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
