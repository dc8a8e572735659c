"""The benchmark in ``bench/`` traces and probes public ``vortexstab``
functions by name.  These tests fail when a change to the package would
break its traced run (``bench/run.py --trace 1``)."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# functions bench/layers.py calls directly, outside the traced spans
PROBED = (
    ("dynamics", "full_vector_field"),
    ("dynamics", "lie_poisson_vector_field"),
    ("dynamics", "moment_map"),
    ("dynamics", "relative_coordinates"),
    ("hamiltonian", "reduced_gradient"),
)


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_bench_module("tracing").TRACED + PROBED, ids=".".join)
def test_traced_and_probed_names_resolve(target):
    obj = importlib.import_module(f"vortexstab.{target[0]}")
    for attr in target[1:]:
        obj = getattr(obj, attr)
    assert callable(obj)


# Runs one small operation per workload under the benchmark's tracer and
# computes every span-based per-layer metric, as the traced run does.
SPAN_RUN = """
import math, sys
sys.path[:0] = sys.argv[1:]
import layers, tracing
import vortexstab
from vortexstab import dynamics, report, scenarios

tracer = tracing.Tracer()
tracer.install()
tracer.begin_op(layers.SWEEP)
table = report.gamma_sweep("triangle-with-center", 0.5, 0.7, 0.1)
tracer.begin_op(layers.CERTIFY)
report.analyze(scenarios.build_scenario("square-with-center", gamma=1.0))
tracer.begin_op(layers.INTEGRATE)
cfg = scenarios.build_scenario("triangle-with-center", gamma=0.5).configuration
for which in dynamics.Which:
    dynamics.integrate(cfg, cfg.circ, 0.01, 1e-3, which=which)
certified = sum(row.verdict == "certified-stable" for row in table.rows)
values = layers.from_spans(tracer, certified, max(tracer.hessian_builds))
bad = sorted(name for name, v in values.items() if not math.isfinite(v))
print(len(values), bad)
# the calls of each once-per-certificate span inside each certificate of
# the sweep, keyed by the certificate's sequence number (-1: outside any)
spans = tracer.table()
by_seq = {int(row[5]): row for row in spans}
certificate = tracer.names.index(layers.CERTIFICATE)
sweep = [row for row in spans if tracer.op_workloads[row[4]] == layers.SWEEP]
for name in ONCE:
    per = {int(row[5]): 0 for row in sweep if row[0] == certificate}
    for row in sweep:
        if row[0] == tracer.names.index(name):
            parent = int(row[3])
            while parent >= 0 and by_seq[parent][0] != certificate:
                parent = int(by_seq[parent][3])
            per[parent] = per.get(parent, 0) + 1
    print(name, sorted(per.items()))
"""
# traced spans that run exactly once inside each certificate of the sweep,
# the ones the per-verdict metrics of the traced run count
ONCE = (
    "hamiltonian.ReducedHamiltonian.gradient",
    "hamiltonian.ReducedHamiltonian.hessian",
    "constraints.ConstraintSystem.jacobian",
)


@pytest.fixture(scope="module")
def span_run():
    script = SPAN_RUN.replace("for name in ONCE:", f"for name in {ONCE!r}:")
    out = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_traced_run_yields_every_span_metric(span_run):
    layers = load_bench_module("layers")
    expected = len(layers.SPAN_MEDIANS) + len(layers.SPANS_PER_VERDICT)
    expected += len(layers.LINALG_PER_VERDICT) + 3  # certified share, hessian build time and size
    assert span_run[0].split() == [str(expected), "[]"]


def test_traced_layers_run_once_per_certificate_of_the_sweep(span_run):
    # a doubled call, or one moved out of the certificate, changes the
    # per-verdict metrics without making any of them less than finite
    per_name = dict(line.split(" ", 1) for line in span_run[1:])
    assert sorted(per_name) == sorted(ONCE)
    for name, per in per_name.items():
        counts = ast.literal_eval(per)
        assert counts and all(seq >= 0 and calls == 1 for seq, calls in counts), (name, counts)
