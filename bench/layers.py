"""Per-layer metrics of the traced run.

Each metric is measured on the operations of the workload it is meant to
explain (its source workload).  A traced run of any workload also runs the
coverage operations of the other workloads, so every metric is present in
every traced run; on its source workload a metric rests on all the
operations of the timed phase.
"""

from __future__ import annotations

import math
import statistics
import time

SWEEP, CERTIFY, INTEGRATE = "sweep-paper", "certify-large", "integrate"

# name, unit, better
PER_LAYER = (
    ("stability.linearize_ms", "ms", "lower"),
    ("stability.spectrum_ms", "ms", "lower"),
    ("stability.independence_check_ms", "ms", "lower"),
    ("stability.tangent_basis_ms", "ms", "lower"),
    ("stability.solve_multiplier_system_ms", "ms", "lower"),
    ("stability.restricted_hessian_ms", "ms", "lower"),
    ("stability.sylvester_verdict_ms", "ms", "lower"),
    ("stability.certificate_self_ms", "ms", "lower"),
    ("stability.candidates_per_verdict", "count", "lower"),
    ("stability.certified_per_candidate", "ratio", "higher"),
    ("stability.svd_calls_per_verdict", "count", "lower"),
    ("stability.lstsq_calls_per_verdict", "count", "lower"),
    ("stability.det_calls_per_verdict", "count", "lower"),
    ("constraints.jacobian_calls_per_verdict", "count", "lower"),
    ("constraints.jacobian_us", "us", "lower"),
    ("constraints.hessians_build_ms", "ms", "lower"),
    ("constraints.hessians_mb", "MB", "lower"),
    ("constraints.residuals_us", "us", "lower"),
    ("constraints.casimir_values_us", "us", "lower"),
    ("hamiltonian.gradient_us", "us", "lower"),
    ("hamiltonian.hessian_us", "us", "lower"),
    ("hamiltonian.gradient_calls_per_verdict", "count", "lower"),
    ("hamiltonian.reduced_gradient_us", "us", "lower"),
    ("algebra.flatten_us", "us", "lower"),
    ("algebra.unflatten_us", "us", "lower"),
    ("algebra.build_coupling_matrix_us", "us", "lower"),
    ("dynamics.reduced_rhs_us", "us", "lower"),
    ("dynamics.full_rhs_us", "us", "lower"),
    ("dynamics.rk4_step_us.reduced", "us", "lower"),
    ("dynamics.rk4_step_us.full", "us", "lower"),
    ("dynamics.observe_share.reduced", "ratio", "lower"),
    ("dynamics.observe_share.full", "ratio", "lower"),
    ("scenarios.build_scenario_us", "us", "lower"),
    ("scenarios.scenario_fixed_point_us", "us", "lower"),
    ("report.analyze_ms", "ms", "lower"),
    ("report.sweep_pool_efficiency", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.analyze_cold_s", "s", "lower"),
    ("trace.overhead.setup_s", "s", "lower"),
    ("trace.overhead.peak_rss_mb", "MB", "lower"),
    ("trace.overhead.throughput_per_s", "1/s", "higher"),
    ("trace.overhead.latency_p50_ms", "ms", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# metric -> (span name, source workload, scale from ns, self time)
SPAN_MEDIANS = {
    "stability.linearize_ms": ("stability.linearize", CERTIFY, 1e-6, False),
    "stability.spectrum_ms": ("stability.spectrum", CERTIFY, 1e-6, False),
    "stability.independence_check_ms": ("stability.independence_check", CERTIFY, 1e-6, False),
    "stability.tangent_basis_ms": ("stability.tangent_basis", CERTIFY, 1e-6, False),
    "stability.solve_multiplier_system_ms": ("stability.solve_multiplier_system", CERTIFY, 1e-6, False),
    "stability.restricted_hessian_ms": ("stability.restricted_hessian", CERTIFY, 1e-6, False),
    "stability.sylvester_verdict_ms": ("stability.sylvester_verdict", CERTIFY, 1e-6, False),
    "stability.certificate_self_ms": ("stability.energy_casimir_certificate", CERTIFY, 1e-6, True),
    "constraints.jacobian_us": ("constraints.ConstraintSystem.jacobian", SWEEP, 1e-3, False),
    "constraints.residuals_us": ("constraints.ConstraintSystem.values", INTEGRATE, 1e-3, False),
    "constraints.casimir_values_us": ("constraints.casimir_values", INTEGRATE, 1e-3, False),
    "hamiltonian.gradient_us": ("hamiltonian.ReducedHamiltonian.gradient", SWEEP, 1e-3, False),
    "hamiltonian.hessian_us": ("hamiltonian.ReducedHamiltonian.hessian", SWEEP, 1e-3, False),
    "algebra.flatten_us": ("algebra.flatten", INTEGRATE, 1e-3, False),
    "algebra.unflatten_us": ("algebra.unflatten", INTEGRATE, 1e-3, False),
    "algebra.build_coupling_matrix_us": ("algebra.build_coupling_matrix", SWEEP, 1e-3, False),
    "scenarios.build_scenario_us": ("scenarios.build_scenario", SWEEP, 1e-3, False),
    "scenarios.scenario_fixed_point_us": ("scenarios.scenario_fixed_point", SWEEP, 1e-3, False),
    "report.analyze_ms": ("report.analyze", CERTIFY, 1e-6, False),
}
CERTIFICATE = "stability.energy_casimir_certificate"
# metric -> span name counted per certificate in sweep-paper operations
SPANS_PER_VERDICT = {
    "stability.candidates_per_verdict": "stability.restricted_hessian",
    "constraints.jacobian_calls_per_verdict": "constraints.ConstraintSystem.jacobian",
    "hamiltonian.gradient_calls_per_verdict": "hamiltonian.ReducedHamiltonian.gradient",
}
LINALG_PER_VERDICT = {
    "stability.svd_calls_per_verdict": "svd",
    "stability.lstsq_calls_per_verdict": "lstsq",
    "stability.det_calls_per_verdict": "det",
}
PROBE_REPEATS = 25


def from_spans(tracer, certified_in_sweep: int, hessians_n: int) -> dict:
    from tracing import SpanView

    view = SpanView(tracer)
    out = {}
    for metric, (span, source, scale, self_time) in SPAN_MEDIANS.items():
        out[metric] = view.median_ns(span, source, self_time) * scale
    verdicts = view.calls(CERTIFICATE, SWEEP)
    for metric, span in SPANS_PER_VERDICT.items():
        out[metric] = view.calls(span, SWEEP) / verdicts
    for metric, fn in LINALG_PER_VERDICT.items():
        out[metric] = view.counted(fn, SWEEP) / verdicts
    candidates = view.calls("stability.restricted_hessian", SWEEP)
    out["stability.certified_per_candidate"] = certified_in_sweep / candidates
    build_ms, nbytes = tracer.hessian_builds[hessians_n]
    out["constraints.hessians_build_ms"] = build_ms
    out["constraints.hessians_mb"] = nbytes / 2**20
    return out


def _median_call_us(fn, *args) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def dynamics_probes(integrate_workload) -> dict:
    """Right-hand sides, the reduced gradient and RK4 steps, timed untraced
    on the integrate workload's first configuration of each size.  The
    right-hand sides are timed before and after the steps, so that the
    observe share compares times taken at the same machine speed."""
    from vortexstab import dynamics, hamiltonian
    from workloads import INTEGRATE_DT, INTEGRATE_T_END

    steps = int(round(INTEGRATE_T_END / INTEGRATE_DT))
    rows = {k: [] for k in ("reduced_rhs", "full_rhs", "reduced_gradient", "step_reduced",
                            "step_full", "observe_reduced", "observe_full")}
    for op in integrate_workload.warm_up_ops():
        cfg = op.args[0]
        mu0 = dynamics.moment_map(dynamics.relative_coordinates(cfg))
        rhs = {"reduced": (dynamics.lie_poisson_vector_field, mu0, cfg.circ),
               "full": (dynamics.full_vector_field, cfg)}
        before = {k: _median_call_us(*call) for k, call in rhs.items()}
        for which in (dynamics.Which.REDUCED, dynamics.Which.FULL):
            start = time.perf_counter()
            dynamics.integrate(cfg, cfg.circ, INTEGRATE_T_END, INTEGRATE_DT, which=which)
            rows[f"step_{which.value}"].append((time.perf_counter() - start) / steps * 1e6)
        for k, call in rhs.items():
            rhs_us = (before[k] + _median_call_us(*call)) / 2
            rows[f"{k}_rhs"].append(rhs_us)
            rows[f"observe_{k}"].append(1.0 - 4.0 * rhs_us / rows[f"step_{k}"][-1])
        rows["reduced_gradient"].append(_median_call_us(hamiltonian.reduced_gradient, mu0, cfg.circ))
    med = {k: statistics.median(v) for k, v in rows.items()}
    return {
        "dynamics.reduced_rhs_us": med["reduced_rhs"],
        "dynamics.full_rhs_us": med["full_rhs"],
        "hamiltonian.reduced_gradient_us": med["reduced_gradient"],
        "dynamics.rk4_step_us.reduced": med["step_reduced"],
        "dynamics.rk4_step_us.full": med["step_full"],
        "dynamics.observe_share.reduced": med["observe_reduced"],
        "dynamics.observe_share.full": med["observe_full"],
    }


def sweep_pool_efficiency(sweep_workload) -> float:
    """Summed per-point analyze time of a serial pass over each operation's
    slice, divided by the wall time of gamma_sweep on the same slice."""
    from vortexstab import report, scenarios

    serial = pooled = 0.0
    for op in sweep_workload.ops:
        start = time.perf_counter()
        sweep_workload.run(op)
        pooled += time.perf_counter() - start
        for gamma in op.args[3]:
            if gamma == 0.0:
                continue
            scen = scenarios.build_scenario(op.kind, gamma=gamma)
            start = time.perf_counter()
            report.analyze(scen)
            serial += time.perf_counter() - start
    return serial / pooled


def certified_rows(sweep_outputs) -> int:
    return sum(row.verdict == "certified-stable" for _, table in sweep_outputs for row in table.rows)


def as_metrics(values: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": UNITS[name]} for name, _, _ in PER_LAYER}


def check_complete(values: dict) -> list[str]:
    return [name for name, _, _ in PER_LAYER if name not in values or not math.isfinite(values[name])]
