"""Smoke tests of the benchmark harness at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_N = {"radius-su2_1": 6, "radius-su2_2": 4, "phase-sweep-cli": 6}


def tiny(name):
    return WORKLOADS[name].tiny(TINY_N[name])


def traced_op(workload, value, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        out = workload.run(value, workdir)
    finally:
        tracer.uninstall()
    return out, tracer.op_metrics(0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_op_passes_its_check(name, tmp_path):
    w = tiny(name)
    value = next(w.inputs(7))
    assert w.check(value, w.run(value, str(tmp_path))) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    w = tiny(name)
    value = next(w.inputs(3))
    _, first = traced_op(w, value, str(tmp_path / "a"))
    _, second = traced_op(w, value, str(tmp_path / "b"))
    assert {k: first[k] for k in COUNT_METRICS} == \
        {k: second[k] for k in COUNT_METRICS}
    assert first["experiments.points"] > 0


def test_layers_land_where_the_workloads_say(tmp_path):
    _, su2_1 = traced_op(tiny("radius-su2_1"), 0.3, str(tmp_path / "a"))
    _, su2_2 = traced_op(tiny("radius-su2_2"), 0.2, str(tmp_path / "b"))
    assert su2_1["numerics.pfaffian_calls"] == 0
    assert su2_1["hilbert.unitary_s"] == 0
    assert su2_2["numerics.pfaffian_calls"] > 0
    assert su2_2["hilbert.unitary_s"] > 0
    for m in (su2_1, su2_2):
        # 3 grid points, the Brent evaluations, and the final point
        assert m["experiments.points"] == 3 + m["numerics.brent_evals"] + 1
        assert m["hamiltonians.matvecs"] == m["experiments.points"]
        assert m["hamiltonians.ground_retries"] == 0
        assert 0 < m["hamiltonians.eig_kept_share"] <= 1


def test_tracing_leaves_no_patch_behind(tmp_path):
    from idmps import blocks, experiments, hamiltonians
    before = (blocks.pfaffian_log, experiments.scan_radius, hamiltonians.build)
    traced_op(tiny("radius-su2_2"), 0.2, str(tmp_path))
    assert (blocks.pfaffian_log, experiments.scan_radius,
            hamiltonians.build) == before


def test_aklt_anchor_is_exact(tmp_path):
    w = WORKLOADS["radius-su2_2"].tiny(6)
    res = w.run(math.atan(1 / 3), str(tmp_path))
    assert res.optimum[1] - res.ground_energy <= 1e-9
    assert w.check(math.atan(1 / 3), res) == []


def test_sweep_check_catches_a_wrong_exact_point(tmp_path):
    w = tiny("phase-sweep-cli")
    values = next(w.inputs(5))
    out = w.run(values, str(tmp_path))
    row = out["rows"][1 + values.index(0.5)]
    row[2] = repr(float(row[2]) + 1e-6)
    assert w.check(values, out)
    out["rows"].pop()
    assert w.check(values, out)


def test_scan_check_catches_a_violated_bound(tmp_path):
    w = tiny("radius-su2_1")
    res = w.run(0.3, str(tmp_path))
    r_opt, _, f_opt = res.optimum
    res.optimum = (r_opt, res.ground_energy - 1e-6, f_opt)
    assert w.check(0.3, res)
    res.optimum = (100.0, res.ground_energy - 1e-6, 1.5)
    assert len(w.check(0.3, res)) == 3


def test_worker_runs_untraced_and_traced(tmp_path):
    w = tiny("radius-su2_1")
    loop, metrics, detail = worker.measure(w, 1, 0.0, str(tmp_path))
    assert set(metrics) == set(run.E2E_UNITS) - {"setup_s"}
    assert loop.failed == 0 and loop.attempted == detail["ops"] == 1
    loop, metrics, detail = worker.measure_traced(w, 1, 0.0, str(tmp_path))
    assert set(metrics) == set(LAYER_METRICS)
    assert detail["counts_stable"] and loop.failed == 0
    with open(tmp_path / detail["span_file"]) as fh:
        assert len(fh.readlines()) == detail["spans"] + 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    times = [float(i) for i in range(40)]
    value, pct, beyond = worker.tail(times)
    assert (pct, beyond) == (75, 10)
    assert sum(t > value for t in times) == 10


def test_benchmark_json_names_the_harness_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == LAYER_METRICS
