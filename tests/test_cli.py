from __future__ import annotations

import pytest

from fogcast.cli import main
from test_experiment import write_graphml


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
    ("run", "--catchment", "abc"), ("run", "--bitrates", "1e6,x"),
])
def test_jobs_and_trials_must_be_positive(command, flag, value, tiny_inputs, tmp_path, capsys):
    """Bad counts and number lists exit 2 with one argparse line and no output."""
    top, pop = tiny_inputs
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"topology = {top}\npopulation = {pop}\nitems = 3\ntrials = 1\n")
    out = tmp_path / "out"
    args = {"run": ["run", "--topology", top, "--population", pop, "--items", "3"],
            "sweep": ["sweep", "--grid", str(grid)]}[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cmd(args + [flag, value, "--out", str(out)])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    expected = {"--catchment": "comma-separated numbers",
                "--bitrates": "comma-separated numbers"}.get(flag, "an integer >= 1")
    assert errors == [f"fogcast {command}: error: argument {flag}: "
                      f"expected {expected}, got {value!r}"]
    assert not out.exists()


def test_run_rejects_repeated_catchment(tiny_inputs, tmp_path, capsys):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    assert run_cmd(["run", "--topology", top, "--population", pop, "--items", "3",
                    "--catchment", "1,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "fogcast: error: catchment interval 1.0 repeated\n"
    assert not out.exists()


@pytest.mark.parametrize("command, setting, named", [
    ("sweep", "unknown = 3", "unknown key 'unknown'"),
    ("sweep", "load_fraction = 0", "load_fraction 0 outside (0, 1]"),
    ("sweep", "load_fraction = 1.5", "load_fraction 1.5 outside (0, 1]"),
    ("run", "--load-fraction=0", "load_fraction 0.0 outside (0, 1]"),
    ("run", "--load-fraction=-0.4", "load_fraction -0.4 outside (0, 1]"),
    ("sweep", "fog = abc", "fog_k must be an integer, got 'abc'"),
    ("sweep", "trials = 1.5", "trials must be an integer, got 1.5"),
    ("sweep", "items = 2e3", "n_items must be an integer, got 2000.0"),
    ("sweep", "seed = true", "base_seed must be an integer, got True"),
    ("sweep", "target_bitrate = 1", "config icn,2,2,0,pop: no trial drew a request"),
])
def test_bad_config_is_one_error_line(command, setting, named, tiny_inputs, tmp_path, capsys):
    """A bad grid key or config value exits 2 with one stderr line naming it
    and no output."""
    top, pop = tiny_inputs
    out = tmp_path / "out"
    if command == "sweep":
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"topology = {top}\npopulation = {pop}\nitems = 3\ntrials = 1\n"
                        f"{setting}\n")
        args = ["sweep", "--grid", str(grid)]
    else:
        args = ["run", "--topology", top, "--population", pop, "--items", "3", setting]
    assert run_cmd(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fogcast: error: ") and named in captured.err
    assert not out.exists()


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


def test_summarize_round_trips_backhaul(tiny_inputs, tmp_path, capsys):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    run_cmd([
        "run", "--topology", top, "--population", pop,
        "--arch", "icn", "--fog", "1", "--cloud", "1",
        "--trials", "2", "--items", "3", "--target-bitrate", "2e9",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert run_cmd(["summarize", "--backhaul", str(out / "backhaul.csv")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("arch,")
    assert len(lines) == 2  # one variant row


def test_ecdf_emits_gnuplot_columns(tiny_inputs, tmp_path, capsys):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    run_cmd([
        "run", "--topology", top, "--population", pop,
        "--arch", "icn", "--fog", "1", "--cloud", "1",
        "--trials", "2", "--items", "3", "--target-bitrate", "2e9",
        "--out", str(out),
    ])
    capsys.readouterr()
    code = run_cmd([
        "ecdf", "--pathlen", str(out / "pathlen.csv"),
        "--arch", "icn", "--fog", "1", "--cloud", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#")
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_ecdf_reports_missing_config(tiny_inputs, tmp_path, capsys):
    top, pop = tiny_inputs
    out = tmp_path / "out"
    run_cmd([
        "run", "--topology", top, "--population", pop,
        "--arch", "icn", "--fog", "1", "--cloud", "1",
        "--trials", "1", "--items", "3", "--target-bitrate", "2e9",
        "--out", str(out),
    ])
    capsys.readouterr()
    code = run_cmd([
        "ecdf", "--pathlen", str(out / "pathlen.csv"),
        "--arch", "dns", "--fog", "9", "--cloud", "9",
    ])
    assert code == 1


@pytest.mark.parametrize("command", ["run_topology", "run_population", "sweep_grid",
                                     "sweep_topology", "summarize", "ecdf"])
def test_missing_file_is_one_error_line(command, tiny_inputs, tmp_path, capsys):
    """A missing input file exits 2 with one stderr line naming it and no output."""
    top, pop = tiny_inputs
    missing = str(tmp_path / "missing.file")
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"topology = {missing}\npopulation = {pop}\nitems = 3\ntrials = 1\n")
    out = str(tmp_path / "out")
    run = ["run", "--items", "3", "--trials", "1", "--out", out]
    args = {
        "run_topology": run + ["--topology", missing, "--population", pop],
        "run_population": run + ["--topology", top, "--population", missing],
        "sweep_grid": ["sweep", "--grid", missing, "--out", out],
        "sweep_topology": ["sweep", "--grid", str(grid), "--out", out],
        "summarize": ["summarize", "--backhaul", missing],
        "ecdf": ["ecdf", "--pathlen", missing, "--arch", "icn", "--fog", "1", "--cloud", "1"],
    }[command]
    assert run_cmd(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fogcast: error: ") and missing in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", [
    "arch = icn\nfog = 2,4,8\ncloud = 2,4\ncatchment = 0.1,1,10\ntrials = 20\nseed = 1\n",
    "arch = icn\nfog = 2,4\ncloud = 2,4\ncatchment = 0.1,1,10\nscheme = bloom\ntrials = 20\n"
    "seed = 3\n",
    "arch = dns\nfog = 2,4,8\ncloud = 2,4\nldns = 2\ntrials = 20\nseed = 1\n",
], ids=["icn", "icn_bloom", "dns"])
def test_summarize_equals_summary_csv(grid, tmp_path, capsys):
    (tmp_path / "grid.cfg").write_text(grid)
    out = tmp_path / "out"
    assert run_cmd(["sweep", "--grid", str(tmp_path / "grid.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cmd(["summarize", "--backhaul", str(out / "backhaul.csv")]) == 0
    assert capsys.readouterr().out == (out / "summary.csv").read_text()
