"""Smoke test of the benchmark: tiny versions of the four workloads.

Asserts metric names and units against BENCHMARK.json, the correctness
checks and the failures the seed is known to have.  Never asserts a time.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_INTEGRATOR = {
    "record_dense": {"steps": 20, "record_stride": 1},
    "expr_sparse": {"steps": 20, "record_stride": 10},
    "figure8_report": {"steps": 300, "record_stride": 100},
}


@pytest.fixture
def tiny(monkeypatch):
    load = workloads.load_template

    def load_tiny(name):
        raw = load(name)
        raw["integrator"].update(TINY_INTEGRATOR[name])
        return raw

    monkeypatch.setattr(workloads, "load_template", load_tiny)
    monkeypatch.setattr(workloads, "SETUP_PROCESSES", 1)
    monkeypatch.setattr(workloads, "PER_BAND", 4)
    monkeypatch.setattr(workloads, "TRACE_REPEATS", dict.fromkeys(workloads.WORKLOADS, 1))


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run(tiny, tmp_path, name):
    run = workloads.run_workload(name, 7, 0, False, tmp_path, ROOT / "src")
    assert run.checks and run.correct, run.checks
    assert {k: m["unit"] for k, m in run.metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in run.metrics.values())
    assert 0 <= run.failed <= run.attempted and run.attempted > 0
    if name == "figure8_report":
        # Known seed failure: the collinear, L = 0 sample at t = 0.
        assert run.failed == 1
        assert run.accuracy["samples_excluded_nonfinite"] == 1
    elif name != "evaluate_mix":
        assert run.failed == 0


@pytest.mark.parametrize("name", ["figure8_report", "evaluate_mix"])
def test_counts_depend_on_the_seed_only(tiny, tmp_path, name):
    """attempted and failed come from fixed work, not from the run length."""
    short = workloads.run_workload(name, 7, 0, False, tmp_path, ROOT / "src")
    longer = workloads.run_workload(name, 7, 0.5, False, tmp_path, ROOT / "src")
    traced = workloads.run_workload(name, 7, 0, True, tmp_path, ROOT / "src")
    assert len(longer.info["raw"]["repeat"]) > len(short.info["raw"]["repeat"])
    assert (short.attempted, short.failed) == (longer.attempted, longer.failed)
    assert (short.attempted, short.failed) == (traced.attempted, traced.failed)


def test_evaluate_mix_bands_show_known_failures(tiny, tmp_path):
    run = workloads.run_workload("evaluate_mix", 7, 0, False, tmp_path, ROOT / "src")
    bands = run.info["bands"]
    assert len({row["attempted"] for row in bands.values()}) == 1  # equal shares
    assert bands["generic"]["failed"] == 0
    assert bands["zero_L"]["failed"] == 0
    # Known seed failures: the collinear branch drops out-of-plane bending.
    assert bands["sub_threshold"]["failed"] > 0
    assert bands["collinear_3d"]["failed"] > 0
    assert run.failed == sum(row["failed"] for row in bands.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run(tiny, tmp_path, name):
    run = workloads.run_workload(name, 7, 0, True, tmp_path, ROOT / "src")
    assert run.correct, run.checks
    assert {k: m["unit"] for k, m in run.metrics.items()} == _units("per_layer")
    m = {k: v["value"] for k, v in run.metrics.items()}
    assert m["trace.absent_points"] == 0
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(m["trace.self_sum_s"])
    assert self_sum + m["trace.unspanned_s"] == pytest.approx(m["trace.wall_s"])
    if name == "evaluate_mix":
        assert m["hamiltonian.evaluate_reduced.calls"] == len(workloads.BANDS) * 4
    else:
        assert m["cli.main.calls"] == 1
    assert (tmp_path / f"spans-{name}.csv").is_file()
    if name == "expr_sparse":
        assert m["potential.forces_cartesian.expression.calls"] > 0
        assert m["potential.forces_cartesian.builtin.calls"] == 0
    if name == "record_dense":
        assert m["dynamics.samples"] == 21 and m["dynamics.steps"] == 20


def test_same_seed_same_inputs():
    a = workloads.make_batch(np.random.default_rng(3))
    b = workloads.make_batch(np.random.default_rng(3))
    assert [(x[0], x[3]) for x in a] == [(y[0], y[3]) for y in b]
    assert all(np.array_equal(x[2].positions, y[2].positions) for x, y in zip(a, b))


def test_band_states_have_zero_momentum_and_their_band():
    rng = np.random.default_rng(5)
    for band in workloads.BANDS:
        m, x, v = workloads.band_state(rng, band)
        assert np.allclose(m @ v, 0.0, atol=1e-12)
        assert np.allclose(m @ x, 0.0, atol=1e-12)
        L = sum(np.cross(xi, mi * vi) for mi, xi, vi in zip(m, x, v))
        if band == "zero_L":
            assert np.allclose(L, 0.0, atol=1e-12)
        if band.startswith("collinear"):
            assert np.linalg.norm(np.cross(x[0] - x[2], x[1] - x[2])) < 1e-12


def test_absent_span_point_is_reported(monkeypatch):
    points = tracer.SPAN_POINTS + [("hamiltonian.gone", "trireduce.hamiltonian", "gone", "")]
    monkeypatch.setattr(tracer, "SPAN_POINTS", points)
    original = workloads.hamiltonian.evaluate_reduced
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["hamiltonian.gone"]
        assert workloads.hamiltonian.evaluate_reduced is not original
    finally:
        t.uninstall()
    assert workloads.hamiltonian.evaluate_reduced is original


def test_command_prints_result_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate_mix",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == set(_units("end_to_end"))
    assert "seed=2" in done.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "record_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
