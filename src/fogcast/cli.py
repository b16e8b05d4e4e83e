"""Command-line front end.

``run`` executes one scenario and ``sweep`` a grid file; both write the
CSV files ``run_sweep`` publishes.
``run`` takes every grid key ``key_name`` as a flag ``--key-name``, read as its grid line is.
Every error, argparse's own included, is one ``fogcast: error:`` line on
stderr and exit status 2.
"""
from __future__ import annotations

import argparse
import sys

from .errors import FogcastError
from .experiment import (GRID_KEYS, UNICAST, ScenarioConfig, grid_configs, load_grid, row_label,
                         run_sweep)


class _Parser(argparse.ArgumentParser):
    """argparse's own errors, the subcommands' too, as one ``fogcast: error:`` line."""

    def error(self, message: str):
        print(f"fogcast: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _positive_int(raw: str) -> int:
    """argparse type of ``--jobs``: an integer >= 1."""
    if not raw.strip().isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return int(raw)


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
    parser = _Parser(
        prog="fogcast",
        description="Flow-level evaluation of service-routed fog delivery "
                    "against a resolver-redirection baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario, given as grid keys, and write CSV output")
    for key, name in GRID_KEYS.items():
        default = getattr(ScenarioConfig, name)  # the dataclass default
        run.add_argument(f"--{key.replace('_', '-')}", metavar="VALUE",
                         help=f"default: {default if default != '' else 'bundled'}")
    sweep = sub.add_parser("sweep", help="run a grid file")
    sweep.add_argument("--grid", required=True, metavar="FILE")
    for command, handler in ((run, _cmd_run), (sweep, _cmd_sweep)):
        command.add_argument("--jobs", type=_positive_int, default=1)
        command.add_argument("--out", required=True, metavar="DIR")
        command.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, FogcastError) as error:
        # A missing or unreadable input file, a bad input, config or grid
        # key, or a scenario that cannot run; the message names the path,
        # line, key or value.
        print(f"fogcast: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
