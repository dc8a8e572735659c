"""Tests of the benchmark's oracles, tracer, inputs and metric lists.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import workloads
from tracing import SpanView, Tracer
from vortexstab import algebra, dynamics, scenarios, stability

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_a_equilateral_triangle_rotates_and_is_stable():
    q = np.exp(2j * np.pi * np.arange(3) / 3)
    omega, w, resid = oracles.fit_rotation(q, np.ones(3))
    # N identical vortices on a unit-radius polygon: Omega = Gamma (N - 1) / (4 pi)
    assert omega == pytest.approx(2.0 / (4.0 * np.pi), rel=1e-12)
    assert abs(w) < 1e-14 and resid < 1e-12
    max_re, scale = oracles.full_space_max_real_part(q, np.ones(3))
    assert not oracles.unstable(max_re, scale)


@pytest.mark.parametrize("kind, gamma", [("triangle-with-center", 1.5), ("square-with-center", -1.0)])
def test_oracle_a_matches_reduced_spectrum_when_unstable(kind, gamma):
    scen = scenarios.build_scenario(kind, gamma=gamma)
    mu0 = scenarios.scenario_fixed_point(scen)
    reduced = stability.spectrum(stability.linearize(mu0, scen.circ)).real.max()
    max_re, scale = oracles.full_space_max_real_part(np.asarray(scen.positions), scen.circ.as_array())
    assert oracles.unstable(max_re, scale)
    assert max_re == pytest.approx(reduced, rel=1e-8)


def test_oracle_b_follows_rigid_rotation_and_program_coordinates():
    q0 = np.exp(2j * np.pi * np.arange(3) / 3)
    omega = 2.0 / (4.0 * np.pi)
    q_end = oracles.dop853_positions(q0, np.ones(3), 2.0)
    assert np.abs(q_end - np.exp(2j * omega) * q0).max() < 1e-10

    rng = np.random.default_rng(5)
    cfg = workloads.random_configuration(rng, 5)
    mu = dynamics.moment_map(dynamics.relative_coordinates(cfg))
    ours = oracles.shape_matrix_coordinates(np.asarray(cfg.positions))
    assert np.allclose(ours, algebra.flatten(mu), rtol=0, atol=1e-13)


def test_oracle_c_cholesky_minors():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + 6 * np.eye(6)
    dets = [np.linalg.det(h[: k + 1, : k + 1]) for k in range(6)]
    assert np.allclose(oracles.cholesky_minors(h), dets, rtol=1e-12)
    assert oracles.minors_agree(dets, h)
    assert not oracles.minors_agree(dets, -h)
    assert not oracles.minors_agree(np.array(dets) * (1 + 1e-3), h)


def test_tracer_spans_self_time_and_counts():
    tracer = Tracer()

    def inner():
        np.linalg.det(np.eye(2))

    inner_t = tracer.wrap("inner", inner)
    det = np.linalg.det
    np.linalg.det = tracer.count("det", det)
    try:
        outer_t = tracer.wrap("outer", lambda: [inner_t() for _ in range(3)])
        tracer.begin_op("w")
        outer_t()
        tracer.op = -1
        inner_t()
    finally:
        np.linalg.det = det
    view = SpanView(tracer)
    assert view.calls("inner", "w") == 3 and view.calls("inner", "-") == 1
    assert view.calls("outer", "w") == 1
    t = tracer.table()
    outer_row = t[t[:, 0] == tracer.names.index("outer")][0]
    children = t[t[:, 3] == outer_row[5]]
    assert len(children) == 3
    outer_idx = int(np.flatnonzero(t[:, 0] == tracer.names.index("outer"))[0])
    expected_self = (outer_row[2] - outer_row[1]) - (children[:, 2] - children[:, 1]).sum()
    assert view.self_dur[outer_idx] == expected_self
    assert view.counted("det", "w") == 3 and view.counted("det", "-") == 1


def test_sweep_operations_partition_the_paper_grids():
    wl = workloads.SweepPaper(seed=3)
    for kind, lo, hi, _ in workloads.SWEEP_FAMILIES:
        points = sorted(g for op in wl.ops if op.kind == kind for g in op.args[3])
        assert points == workloads.sweep_grid(lo, hi)
    assert {len(op.args[3]) for op in wl.ops} <= {13, 14}
    assert sorted(op.key for op in wl.round_order()) == sorted(op.key for op in wl.ops)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.Integrate(s) for s in (1, 1, 2))
    pos = lambda wl: [op.args[0].positions for op in wl.ops]
    assert pos(a) == pos(b) and pos(a) != pos(c)
    assert [op.key for op in a.round_order()] == [op.key for op in b.round_order()]
    certify = workloads.CertifyLarge(seed=1)
    assert len(certify.ops) == len(workloads.CERTIFY_GAMMAS) * len(workloads.CERTIFY_COPIES)
    scaled = next(op for op in certify.ops if op.kind == "pos*10,circ*1e-2").args[1]
    assert scaled.positions[0] == 10 * 1 + 0j and scaled.circ.gammas[0] == pytest.approx(1e-2)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert set(layers.SPAN_MEDIANS) | set(layers.SPANS_PER_VERDICT) <= set(layers.UNITS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "integrate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
