from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fogcast import cli, experiment
from fogcast.cli import main
from fogcast.experiment import GRID_KEYS, ScenarioConfig, load_grid
from conftest import cli_error, write_bad_topologies, write_graphml
from test_golden import GRIDS


@pytest.fixture()
def tiny_inputs(tmp_path):
    top = tmp_path / "tiny.graphml"
    write_graphml(
        top,
        [("a", 50.0, 0.0), ("b", 50.0, 1.0), ("c", 50.0, 2.0)],
        [(0, 1), (1, 2)],
    )
    pop = tmp_path / "tiny.txt"
    pop.write_text("50.0,0.0,60\n50.0,1.0,30\n50.0,2.0,10\n")
    return str(top), str(pop)


def run_cmd(args):
    return main(args)


def test_run_writes_output(tiny_inputs, tmp_path, capsys):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    code = run_cmd([
        "run", "--topology", top, "--population", pop,
        "--arch", "icn", "--fog", "1", "--cloud", "1",
        "--catchment", "0.1,1", "--trials", "2", "--seed", "5",
        "--items", "3", "--target-bitrate", "2e9",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "backhaul.csv").exists()
    lines = (out / "backhaul.csv").read_text().splitlines()
    assert lines[0] == "arch,fog_k,cloud_k,ldns_k,mode,T,trial,backhaul_bps"
    assert len(lines) - 1 == 3 * 2  # (unicast + 2 intervals) x 2 trials
    stdout = capsys.readouterr().out
    assert "unicast" in stdout


def test_run_labels_every_line_with_its_config(tmp_path, capsys):
    """A run of several configs prints each config's lines under its CSV row label."""
    assert run_cmd(["run", "--fog", "2,4", "--placement", "pop,cls", "--catchment", "0,0.1",
                    "--items", "50", "--trials", "1", "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    unicast = [line.split(" ")[0] for line in lines if " unicast: " in line]
    assert sorted(unicast) == ["icn,2,2,0,cls", "icn,2,2,0,pop", "icn,4,2,0,cls", "icn,4,2,0,pop"]
    assert sorted(line.split(" ")[0] for line in lines) == sorted(unicast * 2)


def test_run_dns_arch(tiny_inputs, tmp_path):
    top, pop = tiny_inputs
    code = run_cmd([
        "run", "--topology", top, "--population", pop,
        "--arch", "dns", "--fog", "1", "--cloud", "1", "--ldns", "1",
        "--trials", "1", "--items", "3", "--target-bitrate", "2e9",
        "--out", str(tmp_path / "dns_out"),
    ])
    assert code == 0


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--jobs", "0"), ("run", "--jobs", "two"), ("run", "--trials", "0"),
    ("run", "--trials", "1.5"), ("sweep", "--jobs", "0"), ("sweep", "--jobs", "-2"),
    ("run", "--bitrates", "1e6,x"),
    pytest.param("run", "--bogus", "1", id="unknown-flag"),
    pytest.param("", "", "", id="no-command"),
    pytest.param("sweep", "", "", id="bare-sweep"),
])
def test_jobs_and_trials_must_be_positive(command, flag, value, tiny_inputs, tmp_path):
    """Bad counts and number lists, an unknown flag, and a missing command
    or argument exit 2 with one error line and no output (``cli_error``):
    argparse checks the command line and ``--jobs``, the config the grid keys."""
    top, pop = tiny_inputs
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"topology = {top}\npopulation = {pop}\nitems = 3\ntrials = 1\n")
    out = tmp_path / "out"
    args = {"run": ["run", "--topology", top, "--population", pop, "--items", "3"],
            "sweep": ["sweep", "--grid", str(grid)], "": []}[command]
    # The rows without a flag give the bare command, or none at all.
    argv = args + [flag, value, "--out", str(out)] if flag else [command] if command else []
    expected = {
        "--jobs": f"argument --jobs: expected an integer >= 1, got {value!r}",
        "--trials": {"0": "trials 0 must be >= 1",
                     "1.5": "trials must be an integer, got 1.5"}.get(value),
        "--bitrates": "bitrates 'x' must be finite and > 0",
        "--bogus": "unrecognized arguments: --bogus 1",
        "": {"": "the following arguments are required: command",
             "sweep": "the following arguments are required: --grid, --out"}.get(command),
    }[flag]
    assert cli_error(argv, out) == f"fogcast: error: {expected}"


@pytest.mark.parametrize("command, setting, named", [
    ("sweep", "unknown = 3", "unknown key 'unknown'"),
    ("sweep", "just some words", "grid.cfg:5: expected key = value"),
    ("sweep", "load_fraction = 0.4", "unknown key 'load_fraction'"),
    ("sweep", "fog = 2\ncloud = 2\nfog = 4", "grid.cfg:7: key 'fog' repeated (first on line 5)"),
    ("sweep", "fog = 2,-1", "fog_k -1 must be >= 0"),
    ("sweep", "fog = 2,2", "fog 2 repeated"),
    ("run", "--placement=pop,pop", "placement pop repeated"),
    ("run", "--cloud=-2", "cloud_k -2 must be >= 0"),
    ("run", "--scheme=bloom", "bloom forwarding needs a nonzero catchment interval"),
    ("run", "--scheme=bloom --catchment=0",
     "bloom forwarding needs a nonzero catchment interval"),
    ("sweep", "fog = abc", "fog_k must be an integer, got 'abc'"),
    ("sweep", "trials = 1.5", "trials must be an integer, got 1.5"),
    ("sweep", "items = 2e3", "n_items must be an integer, got 2000.0"),
    ("sweep", "seed = true", "base_seed must be an integer, got True"),
    ("sweep", "target_bitrate = 1", "config icn,2,2,0,pop: no trial drew a request"),
    ("run", "--topology={tmp}/bad.graphml", "bad.graphml: malformed GraphML document"),
    ("run", "--population={tmp}/bad.txt", "bad.txt:2: expected lat,lon,count"),
    ("run", "--population={tmp}/nan.txt", "nan.txt:1: coordinates out of range in 'nan,nan,500'"),
    ("run", "--population={tmp}/north.txt",
     "north.txt:2: coordinates out of range in '95.0,8.6,1000'"),
    ("run", "--population={tmp}/huge.txt", "huge.txt:1: population total reaches 2**63"),
    ("run", "--population={tmp}/wrap.txt", "wrap.txt:2: population total reaches 2**63"),
    ("run", "--population={tmp}/zero.txt", "zero.txt: population grid holds no people"),
    ("run", "--topology={tmp}/nan.graphml",
     "nan.graphml: node '1' ('b') lacks usable coordinates"),
    ("sweep", "topology = no,such.graphml", "No such file or directory: 'no,such.graphml'"),
    ("sweep", "population = no\0such.txt", "population_path 'no\\x00such.txt' holds a NUL byte"),
    ("run", "--topology={tmp}/nokeys.graphml",
     "nokeys.graphml: document declares no Latitude/Longitude node keys"),
    ("run", "--topology={tmp}/nograph.graphml",
     "nograph.graphml: document contains no <graph> element"),
    ("run", "--topology={tmp}/noid.graphml", "noid.graphml: node without id attribute"),
    ("run", "--topology={tmp}/noend.graphml", "noend.graphml: edge references unknown node None"),
    ("run", "--topology={tmp}/split.graphml", "split.graphml: graph is disconnected"),
    ("run", "--topology={tmp}/dup.graphml", "dup.graphml: node id '0' repeated"),
    ("run", "--topology={tmp}/loop.graphml", "loop.graphml: self-loop on node 1"),
    ("run", "--topology={tmp}/empty.graphml", "empty.graphml: graph has no nodes"),
    ("run", "--topology= --population= --fog=40",
     "config icn,40,2,0,pop: fog = 40 exceeds the 37 populated nodes"),
    ("sweep", "fog = 1,4", "config icn,4,2,0,pop: fog = 4 exceeds the 3 populated nodes"),
    ("sweep", "placement = cls\nfog = 1,4", "config icn,4,2,0,cls: fog = 4 exceeds the 3 nodes"),
    ("run", "--cloud=0", "no cloud point to serve item"),
    ("run", "--fog=0 --cloud=0 --fog-cache-fraction=1",
     "config icn,0,0,0,pop: no service point (fog = 0 and cloud = 0)"),
    ("run", "--fog=0 --cloud=0 --topology={tmp}/missing.graphml",
     "config icn,0,0,0,pop: no service point (fog = 0 and cloud = 0)"),
    ("sweep", "count_fallback = 1", "count_fallback 1 must be true or false"),
    ("run", "--count-fallback 1", "count_fallback 1 must be true or false"),
    ("sweep", "catchment = abc", "catchment interval 'abc' must be finite and >= 0"),
    ("run", "--catchment abc", "catchment interval 'abc' must be finite and >= 0"),
    ("sweep", "catchment = 0.1,true", "catchment interval True must be finite and >= 0"),
    ("run", "--catchment=-1", "catchment interval -1 must be finite and >= 0"),
    ("run", "--catchment=1,1", "catchment interval 1 repeated"),
    ("sweep", "catchment = 0.1,1,0.1", "catchment interval 0.1 repeated"),
    ("sweep", "catchment = nan", "catchment interval nan must be finite and >= 0"),
    ("run", "--catchment=0.1,inf", "catchment interval inf must be finite and >= 0"),
    ("run", "--catchment=1e308", "catchment interval 1e+308 must be <= 1e+09 s"),
    ("run", "--arch=p2p", "unknown architecture 'p2p'"),
    ("run", "--placement=random", "unknown placement mode 'random'"),
    ("run", "--scheme=xor", "unknown forwarding scheme 'xor'"),
    ("run", "--ldns=2", "icn runs take no LDNS points"),
    ("run", "--arch=dns", "dns runs need at least one LDNS point"),
    ("run", "--arch=dns --ldns=-1", "ldns_k -1 must be >= 0"),
    ("run", "--arch=dns --ldns=2 --catchment=1", "dns runs support no catchment aggregation"),
    ("run", "--items=0", "n_items 0 must be >= 1"),
    ("run", "--alpha=-1", "alpha -1 must be finite and >= 0"),
    ("sweep", "alpha = nan", "alpha nan must be finite and >= 0"),
    ("sweep", "alpha = steep", "alpha 'steep' must be finite and >= 0"),
    ("run", "--target-bitrate=-5", "target_bitrate -5 must be finite and > 0"),
    ("run", "--target-bitrate=inf", "target_bitrate inf must be finite and > 0"),
    ("run", "--fog-cache=2", "fog_cache_fraction 2 must be in (0, 1]"),
    ("sweep", "fog_cache_fraction = 0", "fog_cache_fraction 0 must be in (0, 1]"),
    ("run", "--bitrates=0", "bitrates 0 must be finite and > 0"),
    ("sweep", "bitrates = 20e6,inf", "bitrates inf must be finite and > 0"),
    ("run", "--bitrates=,", "bitrates must hold at least one value"),
    ("sweep", "fog = ,", "fog must hold at least one value"),
    ("run", "--cloud=,", "cloud must hold at least one value"),
    ("run", "--fog=2,,4", "fog '2,,4' holds an empty item"),
    ("sweep", "fog = 2,", "fog '2,' holds an empty item"),
    ("run", "--catchment=,", "catchment must hold at least one value"),
    ("sweep", "catchment = 0.1, ,10", "catchment '0.1, ,10' holds an empty item"),
    ("run", "--bitrates=20e6,,40e6", "bitrates '20e6,,40e6' holds an empty item"),
    ("run", "--bitrates=1e-290",
     "target_bitrate 70000000000.0 / bitrates 1e-290 must be <= 1000000 users"),
    ("sweep", "target_bitrate = 1e300\nbitrates = 20e6,40e6",
     "target_bitrate 1e+300 / bitrates 20000000.0 must be <= 1000000 users"),
    ("run", "--items 9223372036854775807", "n_items 9223372036854775807 must be <= 1000000"),
    ("run", "--items 4611686018427387904", "n_items 4611686018427387904 must be <= 1000000"),
    ("run", "--items 10000000000", "n_items 10000000000 must be <= 1000000"),
    ("run", "--trials 9223372036854775807", "trials 9223372036854775807 must be <= 100000"),
    ("run", "--bitrates 1e-5",
     "target_bitrate 70000000000.0 / bitrates 1e-05 must be <= 1000000 users"),
    ("run", "--target-bitrate 1e19",
     "target_bitrate 1e+19 / bitrates 20000000.0 must be <= 1000000 users"),
    ("run", "--bitrates 1", "target_bitrate 70000000000.0 / bitrates 1 must be <= 1000000 users"),
    ("run", "--target-bitrate 1.7e308 --bitrates 1.7e302",
     "target_bitrate 1.7e+308 must be <= 1e+18 b/s"),
])
def test_bad_config_is_one_error_line(command, setting, named, tiny_inputs, tmp_path):
    """A bad grid key, config value or input file exits 2 with one stderr
    line naming it, no warning and no output (``cli_error``)."""
    top, pop = tiny_inputs
    out = tmp_path / "out"
    write_bad_topologies(tmp_path)
    for name, records in {"bad.txt": "50.0,0.0,60\n50.0,1.0\n", "nan.txt": "nan,nan,500\n",
                          "north.txt": "50.0,0.0,60\n95.0,8.6,1000\n",
                          "huge.txt": f"50.0,0.0,{10**20}\n",
                          "wrap.txt": f"50.0,0.0,{5 * 10**18}\n50.0,1.0,{5 * 10**18}\n",
                          "zero.txt": "50.0,0.0,0\n50.0,1.0,0\n"}.items():
        (tmp_path / name).write_text(records)
    if command == "sweep":
        # The setting's own keys replace these defaults: a grid key may appear once.
        defaults = {"topology": top, "population": pop, "items": "3", "trials": "1"}
        given = {line.partition("=")[0].strip() for line in setting.splitlines()}
        grid = tmp_path / "grid.cfg"
        grid.write_text("".join(f"{key} = {value}\n" for key, value in defaults.items()
                                if key not in given) + f"{setting}\n")
        args = ["sweep", "--grid", str(grid), "--out", str(out)]
    else:
        args = ["run", "--topology", top, "--population", pop, "--items", "3",
                *setting.format(tmp=tmp_path).split(), "--out", str(out)]
    error = cli_error(args, out)
    assert error is not None and named in error


@pytest.mark.parametrize("setting, named", [
    ("fog = 2,40", "config icn,40,2,0,pop: fog = 40 exceeds the 37 populated nodes"),
    ("placement = cls\nfog = 2,40", "config icn,40,2,0,cls: fog = 40 exceeds the 37 nodes"),
    ("arch = dns\nldns = 1\ncloud = 2,40",
     "config dns,2,40,1,pop: cloud = 40 exceeds the 37 populated nodes"),
    ("arch = dns\nplacement = cls\nldns = 1,38",
     "config dns,2,2,38,cls: ldns = 38 exceeds the 37 nodes"),
    ("cloud = 2,0", "config icn,2,0,0,pop: no cloud point to serve items past the fog cache"),
    ("fog = 2,0\ncloud = 0\nfog_cache_fraction = 1",
     "config icn,0,0,0,pop: no service point (fog = 0 and cloud = 0)"),
])
def test_bad_grid_fails_before_the_first_trial(setting, named, tmp_path, monkeypatch):
    """A grid whose second config cannot run spends no trial and writes no file."""
    calls = []
    run_trial = experiment.run_trial
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *args: calls.append(args) or run_trial(*args))
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"{setting}\ntrials = 2\n")
    out = tmp_path / "out"
    assert cli_error(["sweep", "--grid", str(grid), "--out", str(out)], out) == \
        f"fogcast: error: {named}"
    assert calls == []


def test_importing_the_cli_loads_no_worker_pool_and_no_hashlib():
    """Only ``--jobs`` > 1 loads ``concurrent.futures`` and only Bloom
    labelling ``hashlib``: a fresh ``import fogcast.cli`` loads neither."""
    code = "import fogcast.cli; import sys; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True, check=True)
    loaded = ast.literal_eval(done.stdout)
    assert "fogcast.cli" in loaded
    assert [name for name in loaded if name == "hashlib"
            or name.split(".")[:2] == ["concurrent", "futures"]] == []


def test_cloudless_grid_runs_when_fog_caches_every_item(tiny_inputs, tmp_path):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    assert run_cmd(["run", "--topology", top, "--population", pop, "--items", "3",
                    "--cloud", "0", "--fog-cache-fraction", "1", "--trials", "2",
                    "--out", str(out)]) == 0
    assert (out / "backhaul.csv").exists()


# A value for each grid key, away from its ``ScenarioConfig`` default.
KEY_SAMPLES = {
    "topology": "{top}", "population": "{pop}", "arch": "dns", "placement": "cls",
    "fog": "1,2", "cloud": "1", "ldns": "1,2", "catchment": "0,0.1,1", "items": "2",
    "alpha": "1.2", "bitrates": "1e6,2e6", "target_bitrate": "3e9",
    "trials": "3", "seed": "7", "count_fallback": "false", "scheme": "bloom",
    "fog_cache_fraction": "0.5",
}
# dns runs need an LDNS point, and only dns runs take one; bloom runs need
# a catchment interval.
COMPANIONS = {"arch": {"ldns": "1"}, "ldns": {"arch": "dns"}, "scheme": {"catchment": "0.1"}}


@pytest.mark.parametrize("key", list(GRID_KEYS))
def test_run_flag_builds_the_config_of_its_grid_line(key, tiny_inputs, tmp_path, monkeypatch):
    """``fogcast run --key-name v`` and the grid line ``key_name = v`` build
    equal configs, for every grid key."""
    top, pop = tiny_inputs
    settings = {"topology": top, "population": pop, "items": "3",
                key: KEY_SAMPLES[key].format(top=top, pop=pop), **COMPANIONS.get(key, {})}
    grid = tmp_path / "grid.cfg"
    grid.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    swept = []
    monkeypatch.setattr(cli, "run_sweep", lambda configs, **_: swept.append(configs) or [])
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
    assert run_cmd(["run", *flags, "--out", str(tmp_path / "out")]) == 0
    assert swept == [load_grid(grid)]
    field = GRID_KEYS[key]
    assert getattr(swept[0][0], field) != getattr(ScenarioConfig, field)


def test_run_flags_and_grid_file_give_identical_output(tmp_path, capsys):
    """``fogcast run`` flags and the same keys in a grid file write the same
    bytes to every output file, manifest included; the run prints one
    unicast line per config, each under its own label."""
    assert run_cmd(["run", "--arch", "icn", "--fog", "2,4", "--cloud", "2",
                    "--placement", "pop,cls", "--catchment", "0,0.1,1", "--scheme", "bloom",
                    "--count-fallback", "false", "--fog-cache-fraction", "0.2",
                    "--items", "500", "--trials", "3", "--seed", "3",
                    "--out", str(tmp_path / "flags")]) == 0
    unicast = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()
               if " unicast: " in line]
    assert len(unicast) == len(set(unicast)) == 4
    grid = tmp_path / "flags.cfg"
    grid.write_text("arch = icn\nfog = 2,4\ncloud = 2\nplacement = pop,cls\n"
                    "catchment = 0,0.1,1\nscheme = bloom\ncount_fallback = false\n"
                    "fog_cache_fraction = 0.2\nitems = 500\ntrials = 3\nseed = 3\n")
    assert run_cmd(["sweep", "--grid", str(grid), "--out", str(tmp_path / "grid")]) == 0
    for name in ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes()


def test_sweep_from_grid_file(tiny_inputs, tmp_path):
    top, pop = tiny_inputs
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        f"topology = {top}\n"
        f"population = {pop}\n"
        "arch = icn\n"
        "fog = 1,2\n"
        "cloud = 1\n"
        "items = 3\n"
        "target_bitrate = 2e9\n"
        "trials = 2\n"
    )
    out = tmp_path / "sweep_out"
    assert run_cmd(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) - 1 == 2


def test_sweep_replaces_its_outputs_rather_than_rewriting_them(tmp_path):
    """A sweep into a used directory puts a new file at each output path:
    a hard link to an earlier sweep's file keeps that sweep's bytes, each
    path reads what the new sweep writes into a fresh directory, and a file
    that is not an output is left alone."""
    names = ("backhaul.csv", "pathlen.csv", "summary.csv", "manifest.txt")
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("arch = icn\nfog = 2,4\ncloud = 2\ncatchment = 0.1,1\nitems = 50\n"
                     "trials = 3\nseed = 1\n")
    second.write_text("arch = icn\nfog = 2\ncloud = 2\nitems = 50\ntrials = 2\nseed = 2\n")
    out, fresh, links = tmp_path / "out", tmp_path / "fresh", tmp_path / "links"
    assert run_cmd(["sweep", "--grid", str(first), "--out", str(out)]) == 0
    links.mkdir()
    before = {}
    for name in names:
        before[name] = (out / name).read_bytes()
        os.link(out / name, links / name)
    (out / "notes.txt").write_text("not an output\n")
    assert run_cmd(["sweep", "--grid", str(second), "--out", str(out)]) == 0
    assert run_cmd(["sweep", "--grid", str(second), "--out", str(fresh)]) == 0
    for name in names:
        assert (links / name).read_bytes() == before[name]
        assert (out / name).read_bytes() == (fresh / name).read_bytes() != before[name]
    assert (out / "notes.txt").read_text() == "not an output\n"


@pytest.mark.parametrize("command", ["run_topology", "run_population", "sweep_grid",
                                     "sweep_topology"])
def test_missing_file_is_one_error_line(command, tiny_inputs, tmp_path):
    """A missing input file, or one that is not UTF-8, exits 2 with one
    stderr line naming it, no warning and no output (``cli_error``)."""
    top, pop = tiny_inputs
    not_utf8 = tmp_path / "not_utf8.file"
    not_utf8.write_bytes(b"\xff\n")
    for bad in (str(tmp_path / "missing.file"), str(not_utf8)):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"topology = {bad}\npopulation = {pop}\nitems = 3\ntrials = 1\n")
        out = str(tmp_path / "out")
        run = ["run", "--items", "3", "--trials", "1", "--out", out]
        args = {
            "run_topology": run + ["--topology", bad, "--population", pop],
            "run_population": run + ["--topology", top, "--population", bad],
            "sweep_grid": ["sweep", "--grid", bad, "--out", out],
            "sweep_topology": ["sweep", "--grid", str(grid), "--out", out],
        }[command]
        error = cli_error(args, tmp_path / "out")
        assert error is not None and bad in error


@pytest.mark.parametrize("grid", [
    "arch = icn\nfog = 2,4,8\ncloud = 2,4\ncatchment = 0.1,1,10\ntrials = 20\nseed = 1\n",
    "arch = icn\nfog = 2,4\ncloud = 2,4\ncatchment = 0.1,1,10\nscheme = bloom\ntrials = 20\n"
    "seed = 3\n",
    "arch = dns\nfog = 2,4,8\ncloud = 2,4\nldns = 2\ntrials = 20\nseed = 1\n",
    GRIDS["ci_bloom"],
    GRIDS["ci_dns"],
], ids=["icn", "icn_bloom", "dns", "ci_bloom", "ci_dns"])
def test_summary_csv_is_the_mean_and_std_of_backhaul_csv(grid, tmp_path):
    """Each ``summary.csv`` row is the mean and population std of its
    (config, interval)'s ``backhaul.csv`` rows, which run from trial 0."""
    (tmp_path / "grid.cfg").write_text(grid)
    out = tmp_path / "out"
    assert run_cmd(["sweep", "--grid", str(tmp_path / "grid.cfg"), "--out", str(out)]) == 0
    runs: dict[str, list[float]] = {}
    for row in (out / "backhaul.csv").read_text().splitlines()[1:]:
        label, trial, value = row.rsplit(",", 2)
        values = runs.setdefault(label, [])
        assert int(trial) == len(values)
        values.append(float(value))
    expected = [experiment.SUMMARY_HEADER] + [
        f"{label},{len(values)},{float(np.mean(values))!r},{float(np.std(values))!r}"
        for label, values in runs.items()]
    assert (out / "summary.csv").read_text() == "\n".join(expected) + "\n"
