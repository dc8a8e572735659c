"""Reference-value acceptance checks.

Each check compares the library against closed-form reference values for the
polygon-with-center families and the zero-total-circulation examples: printed
spectra, multiplier vectors, tangent bases, leading principal minors, and the
proven stability/instability intervals.  The checks are shared between the
test suite and the ``check`` CLI subcommand.

One reference tangent vector is corrected here: the first vector of the
triangle-with-center basis as published omits its final +e9 component, which
breaks tangency to the second diagonal constraint.  With the component
restored, all closed-form minor formulas are reproduced to near machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .algebra import Circulations, flatten, unflatten
from .constraints import constraint_system, in_open_set, submersion_rank_check
from .dynamics import (
    RelativeCoordinates,
    Which,
    integrate,
    invariant_drift_report,
    moment_map,
    relative_coordinates,
)
from .hamiltonian import FOUR_PI, VortexConfiguration, reduced_system
from .localmodel import local_model
from .report import gamma_sweep
from .scenarios import build_scenario, scenario_fixed_point
from .stability import (
    linearize,
    restricted_hessian,
    solve_multiplier_system,
    spectrum,
)

PI = np.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _match_multisets(got: np.ndarray, expected: np.ndarray) -> float:
    """Greedy absolute-distance multiset matching; returns the worst gap."""
    got = list(got)
    worst = 0.0
    for e in expected:
        dists = [abs(g - e) for g in got]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        del got[i]
    return worst


EQUILATERAL3_MU0 = np.array([1.0, 1.0, 0.5, -np.sqrt(3) / 2])


def _sq(x: complex) -> complex:
    return complex(np.sqrt(complex(x)))


def check_equilateral3_spectrum() -> CheckResult:
    """Eigenvalues {0, 0, +-(sqrt3/2pi) sqrt(-sigma2)} for random circulations."""
    rng = np.random.default_rng(101)
    mu0 = unflatten(EQUILATERAL3_MU0, 2)
    worst = 0.0
    count = 0
    while count < 20:
        g = rng.uniform(-2.0, 2.0, 3)
        if np.any(np.abs(g) < 0.05) or abs(g.sum()) < 0.05:
            continue
        count += 1
        circ = Circulations(tuple(g))
        ev = spectrum(linearize(mu0, circ))
        s2 = g[0] * g[1] + g[0] * g[2] + g[1] * g[2]
        lam = (np.sqrt(3) / (2 * PI)) * _sq(-s2)
        expected = np.array([0.0, 0.0, lam, -lam])
        worst = max(worst, _match_multisets(ev, expected))
    return _result(
        "equilateral3 spectrum (20 random circulation triples)",
        worst < 1e-8,
        f"worst multiset gap {worst:.3e}",
    )


def check_triangle_center_spectrum() -> CheckResult:
    """{+-i/pi, +-sqrt(gamma-1)/(2pi) x2, 0 x3} for the triangle-with-center family."""
    worst = 0.0
    for g in (-5.0, -2.0, 0.5, 2.0, 5.0):
        scen = build_scenario("triangle-with-center", gamma=g)
        ev = spectrum(linearize(scenario_fixed_point(scen), scen.circ))
        lam = _sq(g - 1.0) / (2 * PI)
        expected = np.array([1j / PI, -1j / PI, lam, -lam, lam, -lam, 0, 0, 0])
        worst = max(worst, _match_multisets(ev, expected))
    return _result(
        "triangle-with-center spectrum family",
        worst < 1e-8,
        f"worst multiset gap {worst:.3e}",
    )


def check_square_center_spectrum() -> CheckResult:
    """The 16-eigenvalue closed form for the square-with-center family."""
    worst = 0.0
    for g in (-1.0, 0.5, 1.0, 2.0, 3.0):
        scen = build_scenario("square-with-center", gamma=g)
        ev = spectrum(linearize(scenario_fixed_point(scen), scen.circ))
        a = _sq(-g - 0.5) / PI
        b = _sq(g - 2.25) / (2 * PI)
        expected = np.array(
            [1j / (4 * PI), -1j / (4 * PI), 1j / PI, -1j / PI,
             5j / (4 * PI), -5j / (4 * PI), a, -a, b, -b, b, -b,
             0, 0, 0, 0]
        )
        worst = max(worst, _match_multisets(ev, expected))
    return _result(
        "square-with-center spectrum family",
        worst < 1e-8,
        f"worst multiset gap {worst:.3e}",
    )


def check_zero_total_fixtures() -> CheckResult:
    """Zero-total-circulation examples: 2x2 restricted Hessian and spectrum."""
    scen = build_scenario("triangle-with-center", gamma=-3.0)
    mu0 = scenario_fixed_point(scen)
    u0 = flatten(mu0)
    sys = reduced_system(scen.circ)
    basis = np.array([[1.0, 0, 1, 0], [-1.0, 1, 0, 0]])
    worst_h = 0.0
    for c0 in (1.0, -1.0):
        h = FOUR_PI * c0 * sys.hessian(u0)
        rh = basis @ h @ basis.T
        expected = (c0 / 9.0) * np.array([[-4.0, 2.0], [2.0, -4.0]])
        worst_h = max(worst_h, float(np.abs(rh - expected).max()))

    scen2 = build_scenario("square-with-center", gamma=-4.0)
    ev = spectrum(linearize(scenario_fixed_point(scen2), scen2.circ))
    lam = np.sqrt(3.5) / PI
    expected = np.array(
        [lam, -lam, 5j / (4 * PI), -5j / (4 * PI), 1j / (4 * PI), -1j / (4 * PI),
         0, 0, 0]
    )
    gap = _match_multisets(ev, expected)
    ok = worst_h < 1e-10 and gap < 1e-8
    return _result(
        "zero-total-circulation fixtures (restricted Hessian, spectrum)",
        ok,
        f"Hessian gap {worst_h:.3e}, spectrum gap {gap:.3e}",
    )


TRIANGLE_GAMMAS = (-5.0, -1.0, 0.5, 2.0, 4.0)
SQUARE_GAMMAS = (-2.0, 0.5, 1.0, 2.0, 3.0)


def _triangle_center_multipliers(g: float, a0: float) -> np.ndarray:
    q = 2 * g / (3 * (g + 3))
    return a0 * np.array([g + 1.0, q, q, -2 * q, 0.0])


def _square_center_multipliers(g: float, a0: float) -> np.ndarray:
    p = (3 * g + 2) / (4 * (g + 4))
    r = (g - 1) / (g + 4)
    return a0 * np.array(
        [(2 * g + 3) / 2, p, 2 * p, p, -2 * p, -r, 0.0, r, -2 * p, -r]
    )


def check_multiplier_reproduction() -> CheckResult:
    """Closed-form multiplier vectors for all three certified settings."""
    worst = 0.0
    rng = np.random.default_rng(202)
    mu0 = unflatten(EQUILATERAL3_MU0, 2)
    count = 0
    while count < 5:
        g = rng.uniform(-2.0, 2.0, 3)
        if np.any(np.abs(g) < 0.05) or abs(g.sum()) < 0.05:
            continue
        count += 1
        circ = Circulations(tuple(g))
        model = local_model(mu0, circ)
        for a0 in (1.0, -1.0):
            m = solve_multiplier_system(model, circ, a0=a0)
            got = np.array([m.a[0], m.b[0]])
            expected = np.array([a0 * g.sum(), 0.0])
            worst = max(
                worst, float(np.abs(got - expected).max() / max(1.0, abs(g.sum())))
            )
    for kind, gammas, closed_form in (
        ("triangle-with-center", TRIANGLE_GAMMAS, _triangle_center_multipliers),
        ("square-with-center", SQUARE_GAMMAS, _square_center_multipliers),
    ):
        for g in gammas:
            scen = build_scenario(kind, gamma=g)
            mu = local_model(scenario_fixed_point(scen), scen.circ)
            for a0 in (1.0, -1.0):
                m = solve_multiplier_system(mu, scen.circ, a0=a0)
                got = np.concatenate([m.a, m.constraint_coefficients])
                expected = closed_form(g, a0)
                scale = max(1.0, float(np.abs(expected).max()))
                worst = max(worst, float(np.abs(got - expected).max() / scale))
    return _result(
        "multiplier reproduction (three settings, both signs of a0)",
        worst < 1e-8,
        f"worst relative gap {worst:.3e}",
    )


def _basis_triangle_center() -> np.ndarray:
    e = np.eye(9)
    s3 = np.sqrt(3)
    return np.array(
        [
            s3 * e[0] - s3 * e[2] - e[4] + e[8],
            e[0] - e[2] - e[3] + e[7],
            -s3 * e[1] + s3 * e[2] + e[4] + e[6],
            e[1] - e[2] - e[3] + e[5],
        ]
    )


def _basis_square_center() -> np.ndarray:
    e = np.eye(16)
    return np.array(
        [
            e[4] - e[7] - e[8],
            -e[0] + e[1] + e[2] - e[3] - e[9] - e[11],
            -e[0] + e[1] - e[2] + e[3] + e[6] - e[12],
            -e[4] + e[10] - e[13],
            -e[7] + e[10] - e[14],
            -e[0] - e[1] + e[2] + e[3] + e[5] - e[15],
        ]
    )


def _triangle_center_minors(g: float, a0: float) -> np.ndarray:
    q = 9 * g**2 + 20 * g + 3
    return np.array(
        [
            a0 * 2 * q / (3 * (g + 3)),
            -16 * g * (g - 1) / (3 * (g + 3)),
            -a0 * 8 * g * (g - 1) * q / (3 * (g + 3) ** 2),
            16 * (g - 1) ** 2 * g**2 / (g + 3) ** 2,
        ]
    )


def _square_center_minors(g: float, a0: float) -> np.ndarray:
    p = 4 * g**3 + 63 * g**2 + 192 * g + 66
    return np.array(
        [
            a0 * (g + 14) / (2 * (g + 4)),
            p / (2 * (g + 4) ** 2),
            a0 * (2 * g + 1) * p / (g + 4) ** 2,
            -(3 * g + 22) * (2 * g + 1) * g * (4 * g - 9) / (2 * (g + 4) ** 2),
            2 * a0 * (2 * g + 1) * g * (4 * g - 9) * (g - 6) / (g + 4) ** 2,
            2 * (2 * g + 1) * g**2 * (4 * g - 9) ** 2 / (g + 4) ** 2,
        ]
    )


def check_minor_formulas() -> CheckResult:
    """Leading principal minors on the reference tangent bases."""
    from .stability import sylvester_verdict

    worst = 0.0
    for kind, gammas, basis, closed_form in (
        ("triangle-with-center", TRIANGLE_GAMMAS, _basis_triangle_center(),
         _triangle_center_minors),
        ("square-with-center", SQUARE_GAMMAS, _basis_square_center(),
         _square_center_minors),
    ):
        for g in gammas:
            scen = build_scenario(kind, gamma=g)
            mu = local_model(scenario_fixed_point(scen), scen.circ)
            for a0 in (1.0, -1.0):
                m = solve_multiplier_system(mu, scen.circ, a0=a0)
                rh = restricted_hessian(mu, scen.circ, m, basis)
                got = np.array(sylvester_verdict(rh).minors)
                expected = closed_form(g, a0)
                scale = np.maximum(1.0, np.abs(expected))
                worst = max(worst, float((np.abs(got - expected) / scale).max()))
    return _result(
        "closed-form minors on reference tangent bases",
        worst < 1e-6,
        f"worst relative gap {worst:.3e}",
    )


def _sweep_verdicts(kind: str, lo: float, hi: float, step: float):
    table = gamma_sweep(kind, lo, hi, step)
    return {row.gamma: row.verdict for row in table.rows}


def check_verdict_regions() -> CheckResult:
    """Certified/unstable verdicts on the proven parameter intervals, at
    every point of a step-0.1 grid but the interval ends themselves."""
    step = 0.1
    failures = []

    verdicts = _sweep_verdicts("triangle-with-center", -5.0, 2.0, step)
    for g, v in verdicts.items():
        if any(abs(g - b) <= 1e-9 for b in (-3.0, 0.0, 1.0)):
            continue
        if g < -3.0 or 0.0 < g < 1.0:
            if v != "certified-stable":
                failures.append(f"triangle g={g}: {v}")
        elif g > 1.0:
            if v != "linearly-unstable":
                failures.append(f"triangle g={g}: {v}")

    verdicts = _sweep_verdicts("square-with-center", -1.5, 3.0, step)
    for g, v in verdicts.items():
        if any(abs(g - b) <= 1e-9 for b in (-0.5, 0.0, 2.25)):
            continue
        if 0.0 < g < 2.25:
            if v != "certified-stable":
                failures.append(f"square g={g}: {v}")
        elif g < -0.5 or g > 2.25:
            if v != "linearly-unstable":
                failures.append(f"square g={g}: {v}")

    return _result(
        "verdict regions via gamma sweeps",
        not failures,
        "all grid points match" if not failures else "; ".join(failures[:5]),
    )


def _random_configurations(count: int, seed: int):
    """Well-separated random configurations cycling through N in {3, 4, 5}."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_vortices = 3 + len(out) % 3
        q = rng.uniform(-1.5, 1.5, n_vortices) + 1j * rng.uniform(-1.5, 1.5, n_vortices)
        gaps = [abs(q[i] - q[j]) for i in range(n_vortices) for j in range(i + 1, n_vortices)]
        if min(gaps) < 0.7:
            continue
        g = rng.uniform(0.3, 1.5, n_vortices) * rng.choice([-1.0, 1.0], n_vortices)
        if abs(g.sum()) < 0.2:
            continue
        out.append(VortexConfiguration(tuple(q), Circulations(tuple(g))))
    return out


# the length and the step of the paired runs
RUN_T_END, RUN_DT = 5.0, 1e-3


@cache
def _paired_runs() -> tuple[bool, float, float]:
    """What two checks read of ten paired reduced and full runs (to RUN_T_END
    at step RUN_DT) from random configurations: whether a run aborted, the
    worst sup-norm gap between the reduced states and the full ones mapped
    through J (every 50th sample), and the worst drift of the reduced runs'
    invariants."""
    aborted, gap, drift = False, 0.0, 0.0
    for cfg in _random_configurations(10, seed=303):
        reduced = integrate(cfg, cfg.circ, t_end=RUN_T_END, dt=RUN_DT, which=Which.REDUCED)
        full = integrate(cfg, cfg.circ, t_end=RUN_T_END, dt=RUN_DT, which=Which.FULL)
        aborted = aborted or reduced.aborted or full.aborted
        for i in range(0, min(len(reduced), len(full)), 50):
            q = full.states[i]
            mu = moment_map(relative_coordinates(VortexConfiguration(tuple(q), cfg.circ)))
            gap = max(gap, float(np.abs(flatten(mu) - reduced.states[i]).max()))
        rep = invariant_drift_report(reduced)
        drift = max(drift, rep.hamiltonian_max, float(rep.casimir_max.max()), rep.residual_max)
    return aborted, gap, drift


def check_reduction_consistency() -> CheckResult:
    """Full-dynamics trajectories mapped through J match reduced ones."""
    aborted, gap, _ = _paired_runs()
    if aborted:
        return _result("reduction consistency (10 random runs)", False, "a run aborted")
    return _result(
        "reduction consistency (10 random runs)",
        gap < 1e-6,
        f"worst sup-norm gap {gap:.3e}",
    )


def check_conservation() -> CheckResult:
    """Hamiltonian, Casimir, and constraint drift along the random runs."""
    *_, drift = _paired_runs()
    return _result(
        "invariant conservation along the random runs",
        drift < 1e-8,
        f"worst drift {drift:.3e}",
    )


def check_submersion_rank() -> CheckResult:
    """Rank of the constraint differential at random rank-one points."""
    rng = np.random.default_rng(404)
    failures = 0
    total = 0
    for n in (2, 3, 4, 5):
        for _ in range(100):
            z = rng.uniform(0.3, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            mu = moment_map(RelativeCoordinates(tuple(z)))
            if not in_open_set(mu):
                continue
            total += 1
            rc = submersion_rank_check(mu)
            if rc.rank != (n - 1) ** 2:
                failures += 1
    return _result(
        "constraint map is a submersion at random rank-one points",
        failures == 0 and total >= 350,
        f"{failures} rank failures out of {total} points",
    )


def check_derivatives() -> CheckResult:
    """Analytic gradients and Jacobians against central differences."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(100):
        n_vortices = 3 + trial % 3
        g = rng.uniform(0.3, 1.5, n_vortices) * rng.choice([-1.0, 1.0], n_vortices)
        if abs(g.sum()) < 0.2:
            g[0] += 0.5 * np.sign(g[0])
        circ = Circulations(tuple(g))
        n = circ.n
        z = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        u = flatten(moment_map(RelativeCoordinates(tuple(z))))
        sys = reduced_system(circ)
        grad = sys.gradient(u)
        eps = 1e-6
        fd = np.empty_like(grad)
        for i in range(len(u)):
            d = np.zeros_like(u)
            d[i] = eps
            fd[i] = (sys.value(u + d) - sys.value(u - d)) / (2 * eps)
        scale = max(1.0, float(np.abs(grad).max()))
        worst = max(worst, float(np.abs(grad - fd).max() / scale))

        csys = constraint_system(n)
        jac = csys.jacobian(u)
        if jac.size:
            fdj = np.empty_like(jac)
            for i in range(len(u)):
                d = np.zeros_like(u)
                d[i] = eps
                fdj[:, i] = (csys.values(u + d) - csys.values(u - d)) / (2 * eps)
            scale = max(1.0, float(np.abs(jac).max()))
            worst = max(worst, float(np.abs(jac - fdj).max() / scale))
    return _result(
        "analytic derivatives vs central differences (100 points)",
        worst < 1e-6,
        f"worst relative gap {worst:.3e}",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_equilateral3_spectrum,
    check_triangle_center_spectrum,
    check_square_center_spectrum,
    check_zero_total_fixtures,
    check_multiplier_reproduction,
    check_minor_formulas,
    check_verdict_regions,
    check_reduction_consistency,
    check_conservation,
    check_submersion_rank,
    check_derivatives,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
