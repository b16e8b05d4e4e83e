"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import calibrate
import checks
import compare
import layers
import spans
import synth
from workloads import WORKLOADS, Workload


# -- synthetic backbone ------------------------------------------------------

def test_generator_same_seed_gives_identical_files(tmp_path):
    a = synth.write_backbone(tmp_path / "a", seed=7)
    b = synth.write_backbone(tmp_path / "b", seed=7)
    for path_a, path_b in zip(a, b):
        assert path_a.read_bytes() == path_b.read_bytes()
    c = synth.write_backbone(tmp_path / "c", seed=8)
    assert a[0].read_bytes() != c[0].read_bytes()
    assert a[1].read_bytes() != c[1].read_bytes()


def test_generator_output_loads_through_fogcast(tmp_path):
    from fogcast.topology import load_topology
    from fogcast.workload import assign_population, load_population

    topology, population = tmp_path / "g.graphml", tmp_path / "p.txt"
    topology.write_text(synth.backbone_graphml(3, n_nodes=300, n_chords=60))
    population.write_text(synth.population_grid(3))
    graph = load_topology(topology)
    assert graph.n_nodes == 300
    assert graph.n_arcs == 2 * (299 + 60)
    totals = assign_population(graph, load_population(population))
    assert (totals > 0).sum() >= 16  # enough for fog 8 + cloud 8 placement


# -- spans and self time -----------------------------------------------------

def test_self_time_is_duration_minus_children():
    # 0: [0, 100] root; 1: [10, 30] and 2: [40, 90] its children;
    # 3: [50, 60] child of 2; 4: [200, 205] a second root.
    starts = np.array([0, 10, 40, 50, 200])
    ends = np.array([100, 30, 90, 60, 205])
    parents = np.array([-1, 0, 0, 2, -1])
    assert spans.self_times(starts, ends, parents).tolist() == [30, 20, 40, 10, 5]


def test_tracer_totals_nest_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    seen = []
    observed = tracer.wrap("observed", lambda x: x * 2, lambda args, result: seen.append((args, result)))
    assert outer(1) == 3
    assert observed(4) == 8
    assert seen == [((4,), 8)]
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    calls, total_ns, self_ns = totals["outer"]
    assert self_ns == total_ns - totals["inner"][1]
    assert list(tracer.parents) == [-1, 0, 0, -1]


def test_tracer_records_span_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.totals()["boom"][0] == 1
    assert tracer.ends[0] >= tracer.starts[0]


def test_missing_target_reads_as_zero(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [("gone.fn", "experiment", "no_such_function"),
                                           ("gone.method", "rendezvous", "NoClass.match")])
    tracer = spans.Tracer()
    assert tracer.install() == []
    probe = layers.LayerProbe()
    metrics = probe.metrics(tracer.totals())
    assert metrics["rendezvous.match.calls"] == (0.0, "calls")
    assert metrics["forwarding.tree_arc_frac"] == (0.0, "frac")


# -- layer metrics read from returned objects --------------------------------

def _outcome(unicast, by_catchment):
    metrics = lambda load: SimpleNamespace(arc_load=np.array(load, dtype=float))
    return SimpleNamespace(unicast=metrics(unicast),
                           by_catchment={t: metrics(v) for t, v in by_catchment.items()})


def test_monotonicity_violations_count_arc_samples():
    probe = layers.LayerProbe()
    probe.outcomes.append(_outcome([4.0, 2.0, 0.0],
                                   {0.1: [3.0, 2.5, 0.0],     # arc 1 > unicast
                                    1.0: [3.5, 1.0, 1e-3],    # arc 0 > T=0.1, arc 2 > both
                                    10.0: [1.0, 1.0, 0.0]}))
    probe.outcomes.append(_outcome([1e9], {1.0: [1e9 * (1 + 1e-13)]}))  # rounding only
    assert probe.monotonicity_violations() == 4


def test_forwarding_arcs_split_tree_and_false_positives():
    probe = layers.LayerProbe()
    fid_a, fid_b = object(), object()
    probe.encoded += [(fid_a, frozenset({1, 2})), (fid_b, frozenset({5}))]
    probe.forwarded += [(fid_a, {1}), (fid_a, {2, 7}), (fid_b, {5}), (fid_b, set())]
    assert probe.forwarding_arcs() == (1, 4)


# -- host-speed calibration --------------------------------------------------

def test_calibration_kernel_is_fixed_work():
    assert calibrate._kernel() == calibrate._kernel() == calibrate._CHECKSUM
    slow, spent = calibrate.slowness(0.0)
    assert slow > 0 and spent >= slow * calibrate.REF_S


def test_calibration_scales_its_share_with_the_span(monkeypatch):
    calls = []
    monkeypatch.setattr(calibrate, "_kernel", lambda: calls.append(1) or calibrate._CHECKSUM)
    calibrate.slowness(0.0)
    assert len(calls) == calibrate.MIN_CALLS
    calls.clear()
    calibrate.slowness(1.0)
    assert len(calls) == round(calibrate.SHARE / calibrate.REF_S)


def test_clock_divides_by_slowness_weighted_by_measuring_time(monkeypatch):
    # (slowness, seconds spent measuring it)
    measured = iter([(1.0, 0.01), (3.0, 0.01), (1.0, 0.01), (4.0, 0.03)])
    monkeypatch.setattr(calibrate, "slowness", lambda span_s=0.0: next(measured))
    clock = calibrate.Clock()
    assert clock.scale(0.4) == pytest.approx(0.2)   # before 1.0, after 3.0
    assert clock.scale(0.2) == pytest.approx(0.1)   # before 3.0, after 1.0
    assert clock.scale(3.25) == pytest.approx(1.0)  # (1.0 + 3 * 4.0) / 4


def test_calibration_checks_its_result_and_restores_gc(monkeypatch):
    import gc

    monkeypatch.setattr(calibrate, "_kernel", lambda: calibrate._CHECKSUM + 1)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        calibrate.slowness(0.0)
    assert gc.isenabled()


# -- output checks -----------------------------------------------------------

TINY = Workload("tiny", arch="icn", fog=(2,), cloud=(2, 4), catchment=(0.1, 1.0),
                scheme="exact", count_fallback=False, trials=2, trace_trials=2,
                setup_samples=1)


def _write_sweep(out, backhaul_values=None, ecdf_tail=1.0):
    out.mkdir(parents=True, exist_ok=True)
    backhaul = [checks.HEADERS["backhaul.csv"]]
    summary = [checks.HEADERS["summary.csv"]]
    pathlen = [checks.HEADERS["pathlen.csv"]]
    for cell in TINY.cells():
        for t, scale in zip(TINY.variants(), (1.0, 0.8, 0.5)):
            for trial in range(TINY.trials):
                value = (backhaul_values or {}).get((cell, t, trial), 1e9 * scale)
                backhaul.append(f"{cell},{t!r},{trial},{value!r}")
            summary.append(f"{cell},{t!r},2,{1e9 * scale!r},0.0")
        pathlen += [f"{cell},0,0.25", f"{cell},2,0.75", f"{cell},3,{ecdf_tail!r}"]
    for name, lines in (("backhaul.csv", backhaul), ("summary.csv", summary),
                        ("pathlen.csv", pathlen)):
        (out / name).write_text("\n".join(lines) + "\n")
    return out


def _check(out):
    log = checks.CheckLog()
    checks.check_sweep(out, TINY.cells(), TINY.variants(), TINY.trials, log)
    return log


def test_checks_pass_on_valid_output(tmp_path):
    log = _check(_write_sweep(tmp_path))
    assert log.failures == []
    assert log.attempted > 2 * 3 * 2 * 2


@pytest.mark.parametrize("values, fragment", [
    ({("icn,2,2,0,pop", 0.0, 1): -1.0}, "backhaul"),
    ({("icn,2,4,0,pop", 0.0, 0): math.nan}, "backhaul"),
    ({("icn,2,2,0,pop", 1.0, 0): 1.5e9}, "> unicast"),
    ({("icn,2,4,0,pop", 1.0, 1): 0.9e9}, "> T=0.1"),
])
def test_checks_flag_bad_backhaul(tmp_path, values, fragment):
    log = _check(_write_sweep(tmp_path, backhaul_values=values))
    assert log.failed >= 1
    assert any(fragment in failure for failure in log.failures)


def test_checks_flag_missing_rows_and_bad_ecdf(tmp_path):
    out = _write_sweep(tmp_path, ecdf_tail=0.99)
    lines = (out / "backhaul.csv").read_text().splitlines()
    (out / "backhaul.csv").write_text("\n".join(lines[:-1]) + "\n")
    failures = _check(out).failures
    assert any("missing" in f for f in failures)
    assert any("ends at 0.99" in f for f in failures)


def test_compare_reports_identity_or_relative_difference(tmp_path):
    _write_sweep(tmp_path / "a" / "csv")
    _write_sweep(tmp_path / "b" / "csv",
                 backhaul_values={("icn,2,2,0,pop", 0.0, 0): 1e9 * (1 + 1e-13)})
    for run in ("a", "b"):
        digests = checks.digests(tmp_path / run / "csv")
        (tmp_path / run / "result.json").write_text(json.dumps({"digests": digests}))
    assert compare.compare_runs(tmp_path / "a", tmp_path / "a") == ("byte-identical", 0.0)
    verdict, worst = compare.compare_runs(tmp_path / "a", tmp_path / "b")
    assert 0 < worst < 1e-12 and verdict.startswith("largest relative difference")
    assert compare.max_rel_diff("a,1\n", "a,1\nb,2\n") == math.inf


def test_workload_grids_expand_to_the_checked_cells(tmp_path):
    from fogcast.experiment import load_grid

    for workload in WORKLOADS.values():
        if workload.synthetic:
            continue
        configs = load_grid(workload.write_inputs(tmp_path, seed=5, trace=False))
        cells = {f"{c.arch},{c.fog_k},{c.cloud_k},{c.ldns_k},{c.mode}" for c in configs}
        assert cells == set(workload.cells())
        assert all(c.trials == workload.trials and c.base_seed == 5 for c in configs)
        assert all(sorted(set(c.catchment) | {0.0}) == workload.variants() for c in configs)


def test_reported_metric_names_match_benchmark_json():
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer_names = set(layers.LayerProbe().metrics({})) | {"experiment.csv_bytes",
                                                          "trace.overhead_frac"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (_, unit) in layers.LayerProbe().metrics({}).items():
        assert units[name] == unit, name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
