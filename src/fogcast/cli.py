"""Command-line front end.

``run`` executes one scenario, ``sweep`` a grid file, ``summarize`` and
``ecdf`` post-process the emitted CSV files into gnuplot-ready columns.
``run`` takes every grid key ``key_name`` as a flag ``--key-name``, read as its grid line is.
"""
from __future__ import annotations

import argparse
import sys

from .errors import FogcastError, read_text
from .experiment import (BACKHAUL_HEADER, GRID_KEYS, PATHLEN_HEADER, SUMMARY_HEADER,
                         ScenarioConfig, grid_configs, load_grid, row_label, run_sweep,
                         summary_row)


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
    raw = {key: getattr(args, key) for key in GRID_KEYS if getattr(args, key) is not None}
    results = run_sweep(grid_configs(raw), out_dir=args.out, jobs=args.jobs)
    for result in results:
        for key, mean in sorted(result.mean_backhaul.items()):
            label = "unicast" if key == 0.0 else f"T={key:g}s"
            print(f"{row_label(result.config)} {label}: mean backhaul {mean / 1e9:.2f} Gb/s "
                  f"(std {result.std_backhaul[key] / 1e9:.2f}) over {result.trials} trials")
    return 0


def _cmd_sweep(args) -> int:
    configs = load_grid(args.grid)
    run_sweep(configs, out_dir=args.out, jobs=args.jobs)
    print(f"{len(configs)} config(s) done, output in {args.out}")
    return 0


def _csv_rows(path: str, header: str) -> list[tuple[int, list[str]]]:
    """The data rows of a CSV file ``run_sweep`` wrote under ``header``, with
    their line numbers; a row of another width names its file and line."""
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines()[1:], start=2):
        row = line.split(",")
        if len(row) != width:
            raise FogcastError(f"{path}:{lineno}: expected {width} comma-separated "
                               f"fields, got {len(row)}")
        rows.append((lineno, row))
    return rows


def _cmd_summarize(args) -> int:
    # run_sweep writes each (config, interval) as a run of rows from trial 0.
    runs: list[tuple[str, list[float]]] = []
    for lineno, row in _csv_rows(args.backhaul, BACKHAUL_HEADER):
        *fields, trial, value = row
        label = ",".join(fields)
        try:
            value = float(value)
        except ValueError:
            raise FogcastError(f"{args.backhaul}:{lineno}: backhaul_bps {value!r} "
                               "is not a number") from None
        if trial == "0" or not runs or runs[-1][0] != label:
            runs.append((label, []))
        runs[-1][1].append(value)
    print(SUMMARY_HEADER)
    for label, values in runs:
        print(summary_row(label, values)[0])
    return 0


def _cmd_ecdf(args) -> int:
    wanted = [args.arch, str(args.fog), str(args.cloud), str(args.ldns), args.placement]
    steps = [row[5:] for _, row in _csv_rows(args.pathlen, PATHLEN_HEADER) if row[:5] == wanted]
    print("# hops cum_fraction")
    for hopcount, fraction in steps:
        print(f"{hopcount} {fraction}")
    if not steps:
        print(f"no rows match {tuple(wanted)}", file=sys.stderr)
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
    except (OSError, FogcastError) as error:
        # A missing or unreadable input file, a bad input, config or grid
        # key, or a scenario that cannot run; the message names the path,
        # line, key or value.
        print(f"fogcast: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
