"""Command-line front end.

``run`` executes one scenario and ``sweep`` a grid file; both write the
CSV files ``run_sweep`` publishes.
``run`` takes every grid key ``key_name`` as a flag ``--key-name``, read as its grid line is.
"""
from __future__ import annotations

import argparse
import sys

from .errors import FogcastError
from .experiment import (GRID_KEYS, UNICAST, ScenarioConfig, grid_configs, load_grid, row_label,
                         run_sweep)


def _positive_int(raw: str) -> int:
    """argparse type of ``--jobs``: an integer >= 1."""
    if not raw.strip().isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return int(raw)


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run one scenario, given as grid keys, and write CSV output")
    for key, name in GRID_KEYS.items():
        default = getattr(ScenarioConfig, name)  # the dataclass default
        p.add_argument(f"--{key.replace('_', '-')}", metavar="VALUE",
                       help=f"default: {default if default != '' else 'bundled'}")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True, metavar="DIR")


def _add_sweep_parser(sub) -> None:
    p = sub.add_parser("sweep", help="run a grid file")
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True, metavar="DIR")


def _cmd_run(args) -> int:
    raw = {key: getattr(args, key) for key in GRID_KEYS if getattr(args, key) is not None}
    results = run_sweep(grid_configs(raw), out_dir=args.out, jobs=args.jobs)
    for result in results:
        for key, mean in sorted(result.mean_backhaul.items()):
            label = "unicast" if key == UNICAST else f"T={key:g}s"
            print(f"{row_label(result.config)} {label}: mean backhaul {mean / 1e9:.2f} Gb/s "
                  f"(std {result.std_backhaul[key] / 1e9:.2f}) over {result.trials} trials")
    return 0


def _cmd_sweep(args) -> int:
    configs = load_grid(args.grid)
    run_sweep(configs, out_dir=args.out, jobs=args.jobs)
    print(f"{len(configs)} config(s) done, output in {args.out}")
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
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except (OSError, FogcastError) as error:
        # A missing or unreadable input file, a bad input, config or grid
        # key, or a scenario that cannot run; the message names the path,
        # line, key or value.
        print(f"fogcast: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
