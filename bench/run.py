#!/usr/bin/env python3
"""Benchmark of vortexstab: stability verdicts, gamma sweeps and integration.

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
command starts its own worker processes, one at a time, with one BLAS thread:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` set-up probes, then one measuring
  worker.  Prints ``setup_s`` (median of all set-ups), ``peak_rss_mb``,
  ``throughput_per_s`` and ``latency_p50_ms``, with every time scaled to
  reference machine speed by ``Calibration``.
* ``--trace 1``: one untraced and one traced worker, a fresh ``import
  vortexstab`` and a cold ``vortexstab analyze``.  Prints the per-layer
  metrics of ``layers.PER_LAYER``, the tracing overhead among them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
environment they were measured in, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
RUN_DEADLINE_S = 175.0
# Machine speed on a shared host varies by tens of percent within a minute,
# for the same operation on the same input.  Each time is therefore scaled
# to reference speed: multiplied by CALIBRATION_REF_S over the time the
# calibration kernel took right after it.
CALIBRATION_REF_S = 4e-3
CALIBRATION_SAMPLES = 5
# one calibration run per this much operation time, at least one, at most 10
CALIBRATION_EVERY_S = 0.1
COLD_ANALYZE = ["analyze", "--scenario", "polygon-with-center", "--m", "20", "--gamma", "20"]
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)


# --------------------------------------------------------------------------
# worker processes: they import numpy and vortexstab


def _import_program():
    sys.path[:0] = [str(SRC), str(BENCH)]
    import vortexstab

    if not Path(vortexstab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"vortexstab imported from {vortexstab.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }


class Calibration:
    """A fixed kernel, independent of vortexstab, that stands for the kind of
    work a workload does: ``interpreted`` runs Python loops and small numpy
    products, ``dense`` runs a BLAS product and a LAPACK SVD.  Each takes
    about ``CALIBRATION_REF_S`` at reference speed."""

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.svd = np.linalg.svd  # bound before any tracing wraps it
        self.kernel = {"interpreted": self._interpreted, "dense": self._dense}[kind]
        self.small = rng.standard_normal((4, 4)) + 0j
        dense = rng.standard_normal((100, 100))
        self.symmetric = dense + dense.T
        self.square = rng.standard_normal((200, 200))
        self.tall = rng.standard_normal((150, 150))

    def _interpreted(self) -> None:
        np = self.np
        total = 0
        for i in range(20000):
            total += i * i % 7
        m = self.small
        for _ in range(300):
            m = (m @ self.small) / np.abs(m).max()
        np.linalg.eigvalsh(self.symmetric)

    def _dense(self) -> None:
        for _ in range(3):
            self.square @ self.square
        self.svd(self.tall, compute_uv=False)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def median(self) -> float:
        return statistics.median(self() for _ in range(CALIBRATION_SAMPLES))

    def after(self, op_s: float) -> float:
        """Mean calibration time over runs proportional to an operation's time."""
        runs = min(10, max(1, round(op_s / CALIBRATION_EVERY_S)))
        return statistics.fmean(self() for _ in range(runs))


def _timed_phase(workload, seconds: float, calibration, tracer=None):
    """Whole rounds until ``seconds`` have passed.  Each operation's wall
    time is paired with a calibration run right after it."""
    first, executed, repeats, latencies, calibrations = {}, [], [], [], []
    start = time.perf_counter()
    while True:
        for op in workload.round_order():
            if tracer is not None:
                tracer.begin_op(workload.name)
            t0 = time.perf_counter()
            out = workload.run(op)
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = -1
            calibrations.append(calibration.after(latencies[-1]))
            executed.append(op.key)
            if op.key in first:
                repeats.append((op, workload.signature(out)))
            else:
                first[op.key] = (op, out)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return first, executed, repeats, latencies, calibrations, elapsed


def worker(args) -> int:
    import resource

    _import_program()
    import workloads

    calibration = Calibration(workloads.WORKLOADS[args.workload].calibration)
    tracer = None
    if args.role == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for op in wl.warm_up_ops():
        wl.run(op)
    ready_at = time.perf_counter()
    setup_calibration_s = calibration.median()
    if args.role == "setup":
        print(json.dumps({"ready_at": ready_at, "setup_calibration_s": setup_calibration_s}))
        return 0

    first, executed, repeats, latencies, cals, elapsed = _timed_phase(
        wl, args.seconds, calibration, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [lat * CALIBRATION_REF_S / cal for lat, cal in zip(latencies, cals)]
    out = {
        "ready_at": ready_at,
        "setup_calibration_s": setup_calibration_s,
        "environment": _environment(),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": len(executed) / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "wall_throughput_per_s": len(executed) / elapsed,
        "wall_latency_p50_ms": statistics.median(latencies) * 1e3,
        "latencies_ms": [x * 1e3 for x in latencies],
        "calibrations_ms": [x * 1e3 for x in cals],
        "elapsed_s": elapsed,
        "rounds": len(executed) // len(wl.ops),
    }
    if tracer is not None:
        out["layers"] = traced_layers(tracer, wl, first, executed, args)
    result = wl.check(list(first.values()), repeats)
    out["attempted"] = len(executed)
    out["failed"] = sum(key in result.failed for key in executed)
    out["failed_ops"] = sorted(result.failed)
    out["problems"] = result.problems
    print(json.dumps(out))
    return 0


def traced_layers(tracer, wl, first, executed, args) -> dict:
    """Coverage operations of the other workloads, untraced probes, and the
    per-layer values derived from the spans."""
    import layers
    import workloads

    sweep_outputs = [first[key] for key in executed] if wl.name == layers.SWEEP else []
    others = {}
    for name, cls in workloads.WORKLOADS.items():
        if name == wl.name:
            others[name] = wl
            continue
        other = others[name] = cls(args.seed)
        for op in other.warm_up_ops():
            other.run(op)
        for op in other.coverage_ops():
            tracer.begin_op(name)
            result = other.run(op)
            if name == layers.SWEEP:
                sweep_outputs.append((op, result))
        tracer.op = -1
    tracer.active = False
    values = layers.from_spans(
        tracer, layers.certified_rows(sweep_outputs), workloads.CERTIFY_M
    )
    values.update(layers.dynamics_probes(others[layers.INTEGRATE]))
    values["report.sweep_pool_efficiency"] = layers.sweep_pool_efficiency(others[layers.SWEEP])
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"trace_{args.workload}_seed{args.seed}.npz")
    return values


# --------------------------------------------------------------------------
# the command: no numpy here, only worker processes run one after another


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(SRC))

    def _run(self, cmd) -> tuple[str, float, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, timeout=remaining, text=True
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{' '.join(cmd)} timed out") from exc
        if proc.returncode != 0:
            raise RunFailed(f"{' '.join(cmd)} exited with {proc.returncode}")
        return proc.stdout, spawned, time.perf_counter() - spawned

    def worker(self, role: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "run.py"), "--role", role, "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds)]
        stdout, spawned, _ = self._run(cmd)
        out = json.loads(stdout.strip().splitlines()[-1])
        out["wall_setup_s"] = out["ready_at"] - spawned
        out["setup_s"] = out["wall_setup_s"] * CALIBRATION_REF_S / out["setup_calibration_s"]
        return out

    def import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import vortexstab; print(time.perf_counter() - t)"
        return statistics.median(
            float(self._run([sys.executable, "-c", code])[0]) for _ in range(IMPORT_SAMPLES)
        )

    def analyze_cold_s(self) -> float:
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / "cold_analyze.json"
        cmd = [sys.executable, "-m", "vortexstab.cli", *COLD_ANALYZE, "--out", str(out)]
        return self._run(cmd)[2]


def end_to_end(w: dict, setups: list[float]) -> dict:
    values = dict(w, setup_s=statistics.median(setups))
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def measure(runner: Runner, trace: bool) -> dict:
    if not trace:
        setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        w = runner.worker("measure")
        setups.append(w["setup_s"])
        return {"workers": [w], "setups": setups, "metrics": end_to_end(w, setups)}
    import layers

    untraced = runner.worker("measure")
    traced = runner.worker("traced")
    values = dict(traced["layers"])
    for name, _ in END_TO_END:
        values[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    values["cli.import_s"] = runner.import_s()
    values["cli.analyze_cold_s"] = runner.analyze_cold_s()
    missing = layers.check_complete(values)
    if missing:
        raise RunFailed(f"per-layer metrics missing: {missing}")
    return {"workers": [untraced, traced], "metrics": layers.as_metrics(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-paper", "certify-large", "integrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        return worker(args)

    if not (SRC / "vortexstab" / "__init__.py").is_file():
        print(f"no vortexstab sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        run = measure(runner, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    workers = run["workers"]
    problems = [p for w in workers for p in w["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": run["metrics"],
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=workers[0]["environment"],
        setup_samples_s=run.get("setups"),
        failed_ops=workers[0]["failed_ops"],
        problems=problems,
        workers=[{k: v for k, v in w.items() if k not in ("environment", "problems")} for w in workers],
    )
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"environment: {json.dumps(record['environment'])}")
    for p in problems[:20]:
        print(f"check failed: {p}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
