"""Linear stability decided on the symplectic leaf.

The certificate takes the spectrum of the d x d matrix L = B A B^T, where the
rows of B span the tangent space of the joint Casimir/constraint level set
(d = 2n - 2) and A is the n^2 x n^2 linearization.  These tests check the
directional ``linearize`` that builds L, the verdicts it gives on the
polygon-with-center family against the full-space rotating-frame oracle of
``bench/oracles.py``, and the work the certificate does.
"""

import functools
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import energy_momentum
from vortexstab import constraints, localmodel
from vortexstab.algebra import (
    Circulations,
    MuMatrix,
    Regime,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    flatten_stack,
    pair_indices,
    unflatten,
)
from vortexstab.constraints import (
    ConstraintSystem,
    casimir_gradient,
    casimir_values,
    constraint_jacobian,
    constraint_system,
    row_rank,
)
from vortexstab.errors import (
    DimensionMismatch,
    Infeasible,
    InvalidArgument,
    NotAFixedPointWarning,
    VortexStabError,
)
from vortexstab.hamiltonian import (
    FOUR_PI,
    ReducedHamiltonian,
    gradient_entries,
    gradient_matrix,
    reduced_system,
)
from vortexstab.localmodel import LocalModel, local_model
from vortexstab.report import analyze, gamma_sweep
from vortexstab.scenarios import build_scenario, scenario_fixed_point
from vortexstab.stability import (
    energy_casimir_certificate,
    independence_check,
    linearize,
    restricted_hessian,
    solve_multiplier_system,
    sylvester_verdict,
    tangent_basis,
)


def load_bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = load_bench_module("oracles")

# n = 2..6, both circulation regimes (a center of -m makes the total zero)
LEAF_CASES = [
    ("equilateral3", None, None),
    ("triangle-with-center", -3.0, None),
    ("triangle-with-center", 0.5, None),
    ("square-with-center", -4.0, None),
    ("square-with-center", 1.0, None),
    ("polygon-with-center", -5.0, 5),
    ("polygon-with-center", 1.0, 5),
    ("polygon-with-center", -6.0, 6),
    ("polygon-with-center", 2.0, 6),
    ("polygon-with-center", -7.0, 7),
]


def fixed_point(kind, gamma, m=None):
    scen = build_scenario(kind, gamma=gamma, m=m)
    return scenario_fixed_point(scen), scen.circ


def coordinate_jacobian(mu0, circ):
    """The n^2 x n^2 Jacobian, differentiating along each coordinate direction
    E_c: the field's derivative is -nu g K^-1 - mu p K^-1 + K^-1 p mu + K^-1 g nu
    with nu = i E_c and p the Hessian column c as a matrix."""
    n = circ.n
    sys = reduced_system(circ)
    u0 = flatten(mu0)
    kinv = build_coupling_matrix(circ).k_inv
    m = mu0.entries
    g = gradient_matrix(sys.gradient(u0), n).entries
    nu = 1j * coordinate_basis(n)
    p = gradient_entries(sys.hessian(u0).T, n)
    deriv = -nu @ g @ kinv - m @ p @ kinv + kinv @ p @ m + kinv @ g @ nu
    return np.ascontiguousarray(flatten_stack(deriv).T)


class TestDirectionalLinearize:
    @pytest.mark.parametrize("kind,gamma,m", LEAF_CASES)
    def test_matches_projected_full_matrix(self, kind, gamma, m):
        mu0, circ = fixed_point(kind, gamma, m)
        full = linearize(mu0, circ)
        leaf = tangent_basis(mu0, circ)
        rng = np.random.default_rng(circ.n)
        q, _ = np.linalg.qr(rng.standard_normal((circ.n**2, leaf.shape[0])))
        for basis in (leaf, q.T):
            expected = basis @ full @ basis.T
            got = linearize(mu0, circ, basis)
            assert got.shape == (basis.shape[0],) * 2
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("kind,gamma,m", LEAF_CASES)
    def test_leaf_is_invariant(self, kind, gamma, m):
        # A B^T = B^T L: the linearized field maps the leaf into itself
        mu0, circ = fixed_point(kind, gamma, m)
        basis = tangent_basis(mu0, circ)
        moved = linearize(mu0, circ) @ basis.T
        restricted = basis.T @ linearize(mu0, circ, basis)
        assert np.abs(moved - restricted).max() <= 1e-12 * np.abs(moved).max()

    def test_rejects_basis_of_wrong_width(self):
        mu0, circ = fixed_point("triangle-with-center", 0.5)
        with pytest.raises(DimensionMismatch):
            linearize(mu0, circ, np.eye(4))
        with pytest.raises(DimensionMismatch):
            linearize(mu0, circ, np.ones(9))

    def test_without_basis_is_the_coordinate_jacobian(self):
        # bit for bit on the fixtures of the acceptance spectrum checks
        mu0 = unflatten(np.array([1.0, 1.0, 0.5, -np.sqrt(3) / 2]), 2)
        rng = np.random.default_rng(101)
        points = []
        while len(points) < 20:
            g = rng.uniform(-2.0, 2.0, 3)
            if np.any(np.abs(g) < 0.05) or abs(g.sum()) < 0.05:
                continue
            points.append((mu0, Circulations(tuple(g))))
        for kind, gammas in (
            ("triangle-with-center", (-5.0, -3.0, -2.0, 0.5, 2.0, 5.0)),
            ("square-with-center", (-4.0, -1.0, 0.5, 1.0, 2.0, 3.0)),
        ):
            points += [fixed_point(kind, g) for g in gammas]
        for mu, circ in points:
            got = linearize(mu, circ)
            expected = coordinate_jacobian(mu, circ)
            assert got.tobytes() == expected.tobytes()


# polygon-with-center, a ring of m unit vortices around a center of strength
# gamma; gamma = 0 is excluded by the scenario
GRID_M = range(3, 21)
GRID_GAMMA = (-5.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def band_ends(m):
    """Where the restricted Hessian turns singular: the lower formula holds for
    m >= 7, the upper one (gamma = 1 for the triangle) for every m.  There the
    leaf matrix has a nilpotent block: linear analysis cannot decide, and no
    eigenvalue grows."""
    lower = (m - 1) * (m - 7) / 16.0 if m % 2 else (m * m - 8 * m + 8) / 16.0
    return lower, (m - 1) ** 2 / 4.0


def oracle_max_real_part(scen):
    q = np.asarray(scen.positions, dtype=complex)
    return oracles.full_space_max_real_part(q, scen.circ.as_array())


class TestPolygonVerdicts:
    @pytest.mark.parametrize("m,gamma", [(7, 5.0), (8, 10.0), (18, 30.0)])
    def test_round_off_does_not_make_stable_points_unstable(self, m, gamma):
        # the full n^2 spectrum puts 1.2e-8 .. 6.7e-8 on defective zero
        # eigenvalues here; the restricted Hessian is definite
        rep = analyze(build_scenario("polygon-with-center", gamma=gamma, m=m))
        assert rep.verdict == "certified-stable", rep.reason

    def test_grid_agrees_with_full_space_oracle(self):
        problems = []
        for m in GRID_M:
            for gamma in GRID_GAMMA:
                if gamma in band_ends(m):
                    continue
                scen = build_scenario("polygon-with-center", gamma=gamma, m=m)
                rep = analyze(scen)
                max_re = max(re for re, _ in rep.spectrum)
                oracle_re, scale = oracle_max_real_part(scen)
                unstable = rep.verdict == "linearly-unstable"
                if unstable != oracles.unstable(oracle_re, scale):
                    problems.append((m, gamma, rep.verdict, max_re, oracle_re))
                if abs(max_re - oracle_re) > oracles.UNSTABLE_SHARE * scale:
                    problems.append((m, gamma, "max Re", max_re, oracle_re))
        assert problems == []

    @pytest.mark.parametrize(
        "m,gamma",
        [(m, band_ends(m)[1]) for m in (3, 4, 7, 11)] + [(m, band_ends(m)[0]) for m in (11, 17)],
    )
    def test_band_ends_are_not_unstable(self, m, gamma):
        scen = build_scenario("polygon-with-center", gamma=gamma, m=m)
        oracle_re, scale = oracle_max_real_part(scen)
        assert not oracles.unstable(oracle_re, scale)
        assert analyze(scen).verdict != "linearly-unstable"


# the families whose total circulation vanishes at gamma = -m
ZERO_TOTAL_FAMILIES = [("triangle-with-center", 3, None), ("square-with-center", 4, None)] + [
    ("polygon-with-center", m, m) for m in range(5, 9)
]


class TestAcrossZeroTotal:
    @pytest.mark.parametrize("kind,m,size", ZERO_TOTAL_FAMILIES)
    def test_verdicts_hold_up_to_the_regime_switch(self, kind, m, size):
        # gamma = -m +- 10^-k: for k = 1..11 (nonzero total) each side keeps
        # its verdict at 1e-3 or reads inconclusive for dependent
        # differentials; at k = 12 the zero-total reduction gives the
        # gamma = -m verdict.  analyze raises NotAFixedPoint on a rejected point.
        def verdict(gamma, regime):
            scen = build_scenario(kind, gamma=gamma, m=size)
            assert scen.circ.regime is regime
            rep = analyze(scen)
            return rep.verdict, rep.reason

        limit, _ = verdict(-m, Regime.ZERO_TOTAL)
        for side in (-1.0, 1.0):
            near, _ = verdict(-m + side * 1e-3, Regime.NON_ZERO_TOTAL)
            for k in range(1, 12):
                got, reason = verdict(-m + side * 10.0**-k, Regime.NON_ZERO_TOTAL)
                dependent = reason.startswith("differentials not independent")
                assert got == near or (got == "inconclusive" and dependent), (k, side, reason)
            assert verdict(-m + side * 1e-12, Regime.ZERO_TOTAL)[0] == limit


PAPER_FAMILIES = (("triangle-with-center", -5.0, 2.0), ("square-with-center", -1.5, 3.0))


def leaf_hessian(mu0, circ):
    """The tangent basis and the restricted Hessian for a0 = +1 on it, or None
    where the multipliers do not exist."""
    basis = tangent_basis(mu0, circ)
    try:
        mult = solve_multiplier_system(mu0, circ, a0=1.0)
    except Infeasible:
        return basis, None
    return basis, restricted_hessian(mu0, circ, mult, basis)


class TestCertificateFunction:
    def test_linearized_field_preserves_certificate_function(self):
        # L = B A B^T and H, the restricted Hessian of the certificate
        # function f, come from two derivative paths coded apart; the flow
        # preserves f, so L^T H + H L = 0 on the leaf, unstable points included
        worst, points = 0.0, 0
        for kind, lo, hi in PAPER_FAMILIES:
            for row in gamma_sweep(kind, lo, hi, 0.1).rows:
                mu0, circ = fixed_point(kind, row.gamma)
                basis, h = leaf_hessian(mu0, circ)
                lin = linearize(mu0, circ, basis)
                defect = np.linalg.norm(lin.T @ h + h @ lin)
                worst = max(worst, defect / (np.linalg.norm(lin) * np.linalg.norm(h)))
                points += 1
        assert points > 100 and worst <= 1e-10

    def test_unstable_points_have_no_definite_hessian(self):
        # a definite H would certify a point the spectrum finds unstable
        sweeps = [(kind, None, gamma_sweep(kind, lo, hi, 0.02)) for kind, lo, hi in PAPER_FAMILIES]
        sweeps += [
            ("polygon-with-center", m, gamma_sweep("polygon-with-center", -5.0, 40.0, 2.5, m=m))
            for m in GRID_M
        ]
        checked, contradictions = 0, []
        for kind, m, table in sweeps:
            for row in table.rows:
                if row.verdict != "linearly-unstable":
                    continue
                mu0, circ = fixed_point(kind, row.gamma, m)
                _, h = leaf_hessian(mu0, circ)
                if h is None:
                    continue
                checked += 1
                if sylvester_verdict(h).sign:
                    contradictions.append((kind, m, row.gamma))
        assert checked > 300 and contradictions == []

    def test_the_casimir_multiplier_is_two_pi_omega(self):
        # H is the z-Hessian of 4 pi h + 2 pi Omega C_1, Omega from
        # K^-1 G z0 = i Omega z0: at every independent point of the polygon
        # grid and the paper's families a_1 = 2 pi Omega = (m - 1) / 2 + gamma
        points = [
            ("polygon-with-center", g, m) for m in GRID_M for g in np.arange(-5.0, 40.1, 2.5)
        ]
        points += [("triangle-with-center", g, 3) for g in np.arange(-5.0, 2.1, 0.25)]
        points += [("square-with-center", g, 4) for g in np.arange(-1.5, 3.1, 0.25)]
        checked, problems = 0, []
        for kind, gamma, m in points:
            if not gamma:
                continue
            mu0, circ = fixed_point(kind, float(gamma), m if kind == "polygon-with-center" else None)
            model = local_model(mu0, circ)
            if model.rank[0] < model.row_count:
                continue
            a = model.multipliers.a[0, 0]
            two_pi_omega = 2 * np.pi * model._energy_rows[1][0, 0, 0]
            gaps = abs(two_pi_omega - a), abs(two_pi_omega - ((m - 1) / 2 + gamma))
            if max(gaps) > 1e-13 * max(1.0, abs(a)):
                problems.append((kind, m, gamma, gaps))
            checked += 1
        assert problems == [] and checked == 370

    def test_restricted_hessian_equals_the_dense_contraction(self):
        # the z-Hessian of 4 pi h + 2 pi Omega C_1 on the leaf's
        # z-directions, against the dense forms projected by one
        # complex product, on stacks of the polygon grid (N = 4..21), for the
        # own bases B and for rotated tangent bases Q B.  The two take other
        # terms in another order, so they agree to round-off, not bit for bit
        checked = 0
        for m in GRID_M:
            for model in polygon_stacks(m):
                mult, own = model.multipliers, model.basis
                rng = np.random.default_rng(m)
                d = own.shape[1]
                rotation = np.linalg.qr(rng.standard_normal((len(own), d, d)))[0]
                for basis, tol in ((own, 1e-13), (rotation @ own, 1e-12)):
                    got = model.restricted_hessian(mult, basis)
                    dense = dense_restricted_hessian(model, mult, basis)
                    scale = np.abs(dense).max(axis=(-2, -1), keepdims=True)
                    assert np.all(np.abs(got - dense) <= tol * scale)
                checked += len(model.circs)
        assert checked == len(GRID_M) * len(GRID_GAMMA)

    def test_only_a_tangent_basis_is_accepted(self):
        # the restricted Hessian has a meaning on the leaf only: a row off it
        # by more than RANK_THRESHOLD of its length, or not finite, is
        # rejected, and so is a basis of the wrong shape; the leaf operator
        # rejects what the model rejects, and linearize takes the Jacobian
        mu0, circ = fixed_point("triangle-with-center", 0.5)
        model = local_model(mu0, circ)
        mult, own = solve_multiplier_system(model, circ), model.basis[0]
        rng = np.random.default_rng(3)
        normal = rng.standard_normal(own.shape[1])
        normal -= (normal @ own.T) @ own
        normal /= np.linalg.norm(normal)
        for size, accepted in ((1e-12, True), (1e-6, False), (1.0, False)):
            basis = own.copy()
            basis[1] += size * normal
            if accepted:
                expected = dense_restricted_hessian(model, model.multipliers, basis[None])[0]
                got = restricted_hessian(model, circ, mult, basis)
                assert relative_gap(got, 0.5 * (expected + expected.T)) <= 1e-12
                continue
            with pytest.raises(InvalidArgument, match="off the leaf"):
                restricted_hessian(model, circ, mult, basis)
            with pytest.raises(InvalidArgument, match="off the leaf"):
                model.leaf_operator(basis[None])
            full = linearize(model, circ)
            assert relative_gap(linearize(model, circ, basis), basis @ full @ basis.T) <= 1e-12
        nan = own.copy()
        nan[1, 0] = np.nan
        with pytest.raises(InvalidArgument, match="off the leaf"):
            model.restricted_hessian(model.multipliers, nan[None])
        with pytest.raises(InvalidArgument, match="off the leaf"):
            model.leaf_operator(nan[None])
        stages = (
            lambda circs, basis: restricted_hessian(model, circs, mult, basis),
            lambda circs, basis: linearize(model, circs, basis),
        )
        for stage in stages:
            with pytest.raises(InvalidArgument, match="finite"):
                stage(circ, nan)
            # one point: rows of length n^2 = 9, one basis
            for wrong in (np.eye(4), np.ones(9), np.stack([own, own])):
                with pytest.raises(DimensionMismatch):
                    stage(circ, wrong)
            # a stack of one point: one basis for it
            with pytest.raises(DimensionMismatch):
                stage(model.circs, np.stack([own, own]))

    def test_a_dependent_point_takes_every_row_of_dphi(self):
        # the C_1 row lies in the constraint rows' span (rank 4 of 5), so the
        # tangent space of the joint level set is all of span(T), one more
        # dimension than the rows of B: the unit component of a row of T off
        # span(B) is tangent, though its product with the C_1 row is 3.2e-11
        # of that row's length
        mu0, circ = fixed_point("triangle-with-center", NEAR_ZERO_TOTAL[1])
        model = local_model(mu0, circ)
        assert model.rank[0] == 4
        own, tangent, c1 = model.basis[0], model._frame[0][0], model.casimirs[0, 0]
        extra = tangent[0] - (tangent[0] @ own.T) @ own
        extra /= np.linalg.norm(extra)
        assert 1e-11 < abs(extra @ c1) / np.linalg.norm(c1) < 1e-10
        basis = np.vstack([own, extra])
        assert model.restricted_hessian(model.multipliers, basis[None]).shape == (1, 5, 5)
        full = linearize(model, circ)
        expected = basis @ full @ basis.T
        assert relative_gap(model.leaf_operator(basis[None])[0], expected) <= 1e-12
        assert relative_gap(linearize(model, circ, basis), expected) <= 1e-12
        # a row off span(T) by 1e-6 of its length is not tangent
        normal = np.random.default_rng(4).standard_normal(circ.n**2)
        normal -= np.linalg.lstsq(tangent.T, normal, rcond=None)[0] @ tangent
        basis[1] += 1e-6 * normal / np.linalg.norm(normal)
        with pytest.raises(InvalidArgument, match="off the leaf"):
            model.leaf_operator(basis[None])
        with pytest.raises(InvalidArgument, match="off the leaf"):
            model.restricted_hessian(model.multipliers, basis[None])


def polygon_stacks(m):
    """The models of the polygon grid at m, one stack per n (gamma = -m has
    zero total circulation)."""
    groups = {}
    for gamma in GRID_GAMMA:
        mu0, circ = fixed_point("polygon-with-center", gamma, m)
        groups.setdefault(circ.n, []).append((mu0.entries, circ))
    return [
        local_model(MuMatrix(np.stack([e for e, _ in members])), [c for _, c in members])
        for members in groups.values()
    ]


def dense_restricted_hessian(model, mult, basis):
    """basis H_f basis^T (C_1 is linear and adds nothing) through the dense
    (4, n(n-1)/2, n^2) complex constraint forms, projected onto the basis by
    one product and contracted with the multipliers."""
    n = model.n
    ell = np.einsum("mab->abm", coordinate_basis(n))
    blocks = [(i, i) for i in range(n - 1)] + list(pair_indices(n - 1))
    i, j = np.array(blocks, dtype=int).reshape(-1, 2).T
    forms = np.stack([ell[i, j], ell[i + 1, j + 1], ell[i, j + 1], ell[i + 1, j]])
    basis_t = basis.swapaxes(-1, -2)
    h = (mult.a0 * FOUR_PI) * (model.hamiltonian.hessian(model.u0, basis) @ basis_t)
    p1, p2, p3, p4 = (forms @ basis_t[:, None]).swapaxes(0, 1)
    c, d = np.asarray(mult.c, dtype=float), np.asarray(mult.d, dtype=float)
    w = np.concatenate([np.asarray(mult.b, dtype=float), c - 1j * d], axis=-1)[..., None, :]
    s = (p1.swapaxes(-1, -2) * w) @ p2 - (p3.swapaxes(-1, -2) * w) @ p4
    return h + (s + s.swapaxes(-1, -2)).real


# just below zero total circulation (triangle gamma = -3) the C_1 row lies
# in the span of the constraint rows to the rank rule
NEAR_ZERO_TOTAL = (-3.0 - 1e-9, -3.0 - 1e-10)
# and just above it, in ascending order
ABOVE_ZERO_TOTAL = (-3.0 + 1e-10, -3.0 + 1e-9)


# the traced names of the certificate's layers that one sweep-paper operation
# (13 triangle points, one stack) and one certify-large analyze each call
# once; they call the other traced names of these layers not at all
CERTIFICATE_LAYERS = ("stability", "constraints", "hamiltonian")
TRACED_ONCE_PER_STACK = (
    "constraints.ConstraintSystem.jacobian",
    "hamiltonian.ReducedHamiltonian.gradient",
    "hamiltonian.ReducedHamiltonian.hessian",
    "stability.energy_casimir_certificate",
    "stability.independence_check",
    "stability.linearize",
    "stability.restricted_hessian",
    "stability.solve_multiplier_system",
    "stability.spectrum",
    "stability.sylvester_verdict",
    "stability.tangent_basis",
)


def count_traced_calls(monkeypatch, run):
    """Calls of each name of the benchmark's TRACED list in the certificate's
    layers during ``run``, after one run that is not counted, each name
    replaced the way the benchmark's tracer replaces it."""
    calls = {}

    def counting(fn, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    modules = [m for k, m in sys.modules.items() if k.startswith("vortexstab.")]
    for target in load_bench_module("tracing").TRACED:
        if target[0] not in CERTIFICATE_LAYERS:
            continue
        name, owner = ".".join(target), sys.modules[f"vortexstab.{target[0]}"]
        calls[name] = 0
        if len(target) == 3:
            cls = getattr(owner, target[1])
            monkeypatch.setattr(cls, target[2], counting(getattr(cls, target[2]), name))
            continue
        fn = getattr(owner, target[1])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(fn, name))
    run()
    calls.update(dict.fromkeys(calls, 0))
    run()
    return calls


# Python-level calls of one warm certificate, as "call" and "c_call"
# profiler events (numpy's own Python wrappers among them): the 13-point
# triangle stack gamma = -5 + 0.54 i of the sweep-paper range, and the N = 21
# point of certify-large.  A stack makes them once whatever its size, so a
# stage run twice, a quantity taken again on a narrowed model or a per-point
# loop that grows shows here
CERTIFICATE_EVENTS = {"triangle-stack": 755, "polygon-21": 665}


def certificate_case(case):
    if case == "triangle-stack":
        scens = [build_scenario("triangle-with-center", gamma=-5 + 0.54 * i) for i in range(13)]
        return scenario_fixed_point(scens), [s.circ for s in scens]
    scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
    return scenario_fixed_point(scen), scen.circ


def profiler_events(run):
    """Profiler events of a warm ``run``.  The collector is kept out of the
    profiled run: a collection inside it runs the callbacks in gc.callbacks
    (hypothesis installs one), which add events that the run does not make."""
    import gc

    counted = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counted:
            counted[event] += 1

    run()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counted["call"] + counted["c_call"]


class TestCertificateWork:
    @pytest.mark.parametrize("case", sorted(CERTIFICATE_EVENTS))
    def test_python_calls_per_certificate(self, case):
        mu0, circ = certificate_case(case)
        events = profiler_events(lambda: energy_casimir_certificate(mu0, circ))
        assert events <= CERTIFICATE_EVENTS[case], events

    def test_a_narrowed_model_slices_its_arguments_and_moment_map(self):
        # gathered and checked once per model, to the bits of a model built
        # at the narrowed rows
        mu0, circs = certificate_case("triangle-stack")
        model = local_model(mu0, circs)
        model.moment  # taken before the narrowing, as the certificate does
        rows = np.array([1, 4, 5, 12])
        part = model.take(rows)
        assert {"arguments", "moment"} <= set(vars(part))
        fresh = local_model(mu0.take(rows), [circs[i] for i in rows])
        pairs = [(part.arguments, fresh.arguments)] + list(zip(part.moment, fresh.moment))
        for got, expected in pairs:
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "run",
        [
            lambda: gamma_sweep("triangle-with-center", -5.0, 1.48, 0.54),
            lambda: analyze(build_scenario("polygon-with-center", gamma=20.0, m=20)),
        ],
        ids=["sweep-paper", "certify-large"],
    )
    def test_each_traced_layer_runs_once_per_stack(self, run, monkeypatch):
        # the traced per-layer metrics (candidates, Jacobian and gradient
        # calls per verdict) divide by these counts
        calls = count_traced_calls(monkeypatch, run)
        expected = {name: int(name in TRACED_ONCE_PER_STACK) for name in calls}
        assert len(calls) == 15 and calls == expected

    def test_certified_large_analyze_factors_nothing_wider_than_2n(self, monkeypatch):
        calls = {
            "qr": [], "solve": [], "cholesky": [], "svd": [], "lstsq": [], "pinv": [], "eigvals": []
        }
        for name, shapes in calls.items():
            fn = getattr(np.linalg, name)

            def counting(a, *args, fn=fn, shapes=shapes, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        gathers = []

        def counted(v, n, fn=constraints.hermitian_stack):
            gathers.append(np.shape(v))
            return fn(v, n)

        monkeypatch.setattr(constraints, "hermitian_stack", counted)
        scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
        rep = analyze(scen)
        n, d = scen.circ.n, 2 * scen.circ.n - 2
        assert rep.verdict == "certified-stable"
        # R of Dphi's 2n - 1 rows from one Cholesky factor of their Gram
        # matrix, then one per matrix of Sylvester's verdict (d >= 16); one
        # QR of the projected C_1 row, and no QR with n^2 rows
        assert calls["cholesky"] == [(1, 2 * n - 1, 2 * n - 1), (d, d)]
        assert calls["qr"] == [(1, 2 * n - 1, 1)]
        # R^-T for the C_1 row and the energy gradient on U, R^-1 for the
        # tangent bases' coordinates R^-1 Q_1, and the (n - 1) x (n - 1) Gram
        # matrix of the constraint multipliers' A
        assert calls["solve"] == [(1, 2 * n - 1, 2 * n - 1)] * 2 + [(1, n - 1, n - 1)]
        assert all(shape[-1] < 2 * n for shape in calls["qr"] + calls["solve"])
        assert calls["svd"] == calls["lstsq"] == calls["pinv"] == []
        assert calls["eigvals"] and all(shape[-1] <= d for shape in calls["eigvals"])
        assert len(rep.spectrum) == d
        # the constraint contraction gathers no entries of M from the basis,
        # and no basis has another path that could
        assert gathers == []
        assert not hasattr(localmodel, "hermitian_stack")
        assert not any(hasattr(LocalModel, name) for name in ("owns", "energy_hessian"))

    def test_certified_analyze_builds_no_dense_energy_hessian(self, monkeypatch):
        # and evaluates the reduced field once: the residual, the certificate's
        # fixed-point check and the linearization share one evaluation; the
        # energy Hessian is applied once, to the 2n - 1 rows of Dphi, for the
        # leaf operator and the restricted Hessian
        calls = {"gradient": [], "hessian": []}
        for name in calls:
            method = getattr(ReducedHamiltonian, name)

            def counted(self, u, *args, method=method, name=name, **kwargs):
                calls[name].append(np.shape(args[0]) if args and args[0] is not None else None)
                return method(self, u, *args, **kwargs)

            monkeypatch.setattr(ReducedHamiltonian, name, counted)
        scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
        rep = analyze(scen)
        rows = (1, 2 * scen.circ.n - 1, scen.circ.n**2)
        assert rep.verdict == "certified-stable"
        assert calls == {"gradient": [None], "hessian": [rows]}

    def test_constraint_system_keeps_no_dense_forms(self):
        # the factored Hessians and the Jacobian's terms take O(n^2) entries
        n = 20
        system = constraint_system(n)
        system.jacobian(np.ones(n * n))  # its terms are built on first use
        held = []
        for value in vars(system).values():
            held += value if isinstance(value, tuple) else [value]
        held = [a for a in held if isinstance(a, np.ndarray)]
        assert len(held) == 4 and max(a.size for a in held) <= 8 * n * n

    def test_reduced_hamiltonian_keeps_no_dense_forms(self):
        # the pair forms are index triples that the sets of a stack share:
        # each set holds its weights, O(n^2), and at zero total its
        # (n + 1) x n^2 block
        n, k = 20, 3
        stacks = {
            n * n: [Circulations((1.0,) * n + (20.0 + c,)) for c in range(k)],
            (n + 1) * n * n: [Circulations((1.0 + c,) + (1.0,) * n + (-(n + 1.0 + c),)) for c in range(k)],
        }
        rng = np.random.default_rng(5)
        z = rng.uniform(0.5, 1.5, (k, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, (k, n)))
        u = flatten_stack(1j * z[:, :, None] * z[:, None, :].conj())
        for largest, circs in stacks.items():
            system = ReducedHamiltonian(circs)
            assert circs[0].n == n
            system.hessian(u, rng.standard_normal((k, 2, n * n)))
            held = [a for a in vars(system).values() if isinstance(a, np.ndarray)]
            assert max(a.size for a in held) <= k * largest

    def test_certified_large_analyze_reads_the_stored_forms(self, monkeypatch):
        calls = {"hessians": [], "jacobian": []}
        for name, seen in calls.items():
            method = getattr(ConstraintSystem, name)

            def counted(self, *args, method=method, seen=seen, **kwargs):
                seen.append((args, kwargs))
                return method(self, *args, **kwargs)

            monkeypatch.setattr(ConstraintSystem, name, counted)
        scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
        rep = analyze(scen)
        assert rep.verdict == "certified-stable"
        assert len(calls["jacobian"]) == 1
        # the Jacobian's terms come from the stored factor table on first
        # use, once per system
        calls["hessians"].clear()
        n = 5
        system = ConstraintSystem(n)
        u = np.ones((2, n * n))
        for _ in range(2):
            system.jacobian(u)
        assert calls["hessians"] == [((), {})]

    @pytest.mark.parametrize(
        "kind,gamma,m,verdict",
        [
            ("triangle-with-center", 2.0, None, "linearly-unstable"),
            ("polygon-with-center", 20.0, 30, "linearly-unstable"),
            *[("triangle-with-center", g, None, "inconclusive") for g in NEAR_ZERO_TOTAL],
            *[("triangle-with-center", g, None, "inconclusive") for g in ABOVE_ZERO_TOTAL],
        ],
    )
    def test_unstable_and_dependent_points_read_no_jacobian(
        self, kind, gamma, m, verdict, monkeypatch
    ):
        # linearly unstable points and points with dependent differentials
        # never reach the multipliers, the one reader of the Jacobian
        calls = []
        jacobian = ConstraintSystem.jacobian

        def counted(self, u):
            calls.append(np.shape(u))
            return jacobian(self, u)

        monkeypatch.setattr(ConstraintSystem, "jacobian", counted)
        rep = analyze(build_scenario(kind, gamma=gamma, m=m))
        assert rep.verdict == verdict and calls == []

    @pytest.mark.parametrize("kind,gamma", [("square-with-center", 1.0), ("triangle-with-center", -4.0)])
    def test_certified_analyze_evaluates_the_multipliers_once(self, kind, gamma, monkeypatch):
        # the residual check, solve_multiplier_system and the a0 = -1 set
        # share one evaluation, and the reported set is a0 times the a0 = +1
        # set, bit for bit, with ||Df(mu0)||_inf of the Casimir and
        # constraint differentials at that a0
        calls = []
        evaluate = LocalModel.multipliers.func

        def counted(self):
            calls.append(len(self.circs))
            return evaluate(self)

        multipliers = functools.cached_property(counted)
        multipliers.__set_name__(LocalModel, "multipliers")
        monkeypatch.setattr(LocalModel, "multipliers", multipliers)
        scen = build_scenario(kind, gamma=gamma)
        rep = analyze(scen)
        assert rep.verdict == "certified-stable" and calls == [1]
        mu0 = scenario_fixed_point(scen)
        model = local_model(mu0, scen.circ)
        unit = model.multipliers
        a0, n = rep.multipliers["a0"], scen.circ.n
        w = a0 * np.concatenate([unit.a, unit.constraint_coefficients], axis=-1)[0]
        rest = w[1:]
        assert rep.multipliers["a"] == list(w[:1])
        assert rep.multipliers["b"] == list(rest[: n - 1])
        assert rep.multipliers["c"] == list(rest[n - 1 :: 2])
        assert rep.multipliers["d"] == list(rest[n::2])
        assert rep.multipliers["residual"] == unit.residual[0]
        k = build_coupling_matrix(scen.circ)
        stack = np.vstack([casimir_gradient(mu0, k, 1), constraint_jacobian(mu0)])
        df = a0 * model.energy_gradient[0] + stack.T @ w
        scale = np.abs(model.energy_gradient).max()
        assert abs(rep.multipliers["residual"] - np.abs(df).max()) <= 1e-15 * scale
        assert rep.multipliers["solution_space_dim"] == 0

    def test_sweep_evaluates_the_field_once_per_group(self, monkeypatch):
        calls = []
        gradient = ReducedHamiltonian.gradient
        def counted(self, u, *args, **kwargs):
            calls.append(u.shape)
            return gradient(self, u, *args, **kwargs)

        monkeypatch.setattr(ReducedHamiltonian, "gradient", counted)
        table = gamma_sweep("triangle-with-center", -4.0, 2.0, 0.5)
        # one group of n = 3 points and the zero-total point gamma = -3 (n = 2)
        assert len(table.rows) == 12
        assert sorted(calls) == [(1, 4), (11, 9)]

    @pytest.mark.parametrize(
        "kind,gamma,m,verdict",
        [
            ("triangle-with-center", 0.7, None, "certified-stable"),
            ("square-with-center", 1.0, None, "certified-stable"),
            ("polygon-with-center", 1.0, 5, "certified-stable"),
            # the n = 2 zero-total reduction, and dependent differentials
            ("triangle-with-center", -3.0, None, "certified-stable"),
            ("triangle-with-center", NEAR_ZERO_TOTAL[0], None, "inconclusive"),
            ("triangle-with-center", ABOVE_ZERO_TOTAL[0], None, "inconclusive"),
        ],
    )
    def test_analyze_takes_the_gradient_of_c1_once(self, kind, gamma, m, verdict, monkeypatch):
        # C_1 is the one Casimir: one gradient per model
        calls = count_casimir_gradients(monkeypatch)
        rep = analyze(build_scenario(kind, gamma=gamma, m=m))
        assert rep.verdict == verdict and calls == [(1, 1)]

    @pytest.mark.parametrize(
        "lo,hi,step,stacks",
        [
            # one stack of n = 3 points: certified, inconclusive and unstable
            (0.25, 2.0, 0.25, [(1, 8)]),
            # eleven n = 3 points and the zero-total point gamma = -3 (n = 2)
            (-4.0, 2.0, 0.5, [(1, 1), (1, 11)]),
        ],
    )
    def test_a_sweep_takes_the_gradient_of_c1_once_per_stack(
        self, lo, hi, step, stacks, monkeypatch
    ):
        calls = count_casimir_gradients(monkeypatch)
        table = gamma_sweep("triangle-with-center", lo, hi, step)
        assert "certified-stable" in {row.verdict for row in table.rows}
        assert sorted(calls) == stacks

    @pytest.mark.parametrize("gamma", NEAR_ZERO_TOTAL + ABOVE_ZERO_TOTAL)
    def test_dependent_differentials_take_the_full_spectrum(self, gamma):
        scen = build_scenario("triangle-with-center", gamma=gamma)
        rep = analyze(scen)
        assert rep.verdict == "inconclusive"
        assert rep.reason == "differentials not independent (rank 4 < 5); full n^2 spectrum"
        assert len(rep.spectrum) == scen.circ.n**2

    @pytest.mark.parametrize(
        "kind,gamma,m", [("triangle-with-center", 2.0, None), ("polygon-with-center", 20.0, 30)]
    )
    def test_unstable_dependent_points_name_both(self, kind, gamma, m, monkeypatch):
        # a rank rule one row short makes these unstable points dependent:
        # the reason gives the growth rate, then the rank
        monkeypatch.setattr(localmodel, "row_rank", lambda rows, r=None: row_rank(rows, r) - 1)
        scen = build_scenario(kind, gamma=gamma, m=m)
        rep = analyze(scen)
        n = scen.circ.n
        assert rep.verdict == "linearly-unstable"
        growth, dependent = rep.reason.split("; ", 1)
        assert growth.startswith("max Re lambda = ")
        rows = 1 + (n - 1) ** 2
        assert dependent == (
            f"differentials not independent (rank {rows - 1} < {rows}); full n^2 spectrum"
        )
        assert len(rep.spectrum) == n**2

    def test_zero_dimensional_leaf_has_empty_spectrum(self):
        # three vortices of zero total circulation reduce to n = 1, d = 0
        scen = build_scenario(
            "custom",
            positions=(0.0, 1.0, 0.5 + 0.5j * np.sqrt(3)),
            circulations=(1.0, 1.0, -2.0),
        )
        rep = analyze(scen)
        assert rep.spectrum == [] and rep.verdict == "inconclusive"


# independent points of n = 3, 4, 5 and 20, unscaled and with positions x1e-3
FACTOR_CASES = [
    ("triangle-with-center", 0.5, None, 1.0),
    ("square-with-center", 1.0, None, 1.0),
    ("polygon-with-center", 1.0, 5, 1.0),
    ("polygon-with-center", 20.0, 20, 1.0),
    ("polygon-with-center", 20.0, 20, 1e-3),
]


def scaled_fixed_point(kind, gamma, m, pos_scale):
    base = build_scenario(kind, gamma=gamma, m=m)
    scen = build_scenario(
        "custom",
        positions=tuple(pos_scale * p for p in base.positions),
        circulations=base.circ.gammas,
    )
    return scenario_fixed_point(scen), scen.circ


SCALE_FREE_POINTS = [
    ("square-with-center", 1.0, None),
    ("triangle-with-center", -4.0, None),
    ("polygon-with-center", 20.0, 20),
]


class TestStackFactors:
    """The ranks, tangent bases and multipliers of the Casimir and constraint
    differentials."""

    @pytest.mark.parametrize("kind,gamma,m,pos_scale", FACTOR_CASES)
    def test_a_dependent_row_lowers_the_rank_by_one(self, kind, gamma, m, pos_scale):
        # C_2 - C_1^2 vanishes on the rank-one stratum, so its differential
        # lies in the span of the constraint rows: as the Casimir row it
        # adds nothing to the rank
        mu0, circ = scaled_fixed_point(kind, gamma, m, pos_scale)
        one = independence_check(mu0, circ)
        assert one.independent and one.rank == one.expected
        base = local_model(mu0, circ)
        model = LocalModel(base.mu0, base.circs)
        model.casimirs = power_gap_row(model)
        assert model.rank.tolist() == [one.expected - 1]

    @pytest.mark.parametrize("kind,gamma,m,pos_scale", FACTOR_CASES[:3])
    def test_rank_ignores_the_length_of_a_row(self, kind, gamma, m, pos_scale):
        # the Casimir row is the row the rank reads: C_1 adds to the rank and
        # C_2 - C_1^2 does not, at any length of either
        mu0, circ = scaled_fixed_point(kind, gamma, m, pos_scale)
        base = local_model(mu0, circ)
        rows = {base.row_count: base.casimirs, base.row_count - 1: power_gap_row(base)}
        for scale in (1e-12, 1e12):
            for rank, row in rows.items():
                model = LocalModel(base.mu0, base.circs)
                model.casimirs = row * scale
                assert model.rank.tolist() == [rank], scale

    def test_large_basis_and_multipliers(self):
        scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
        mu0, circ = scenario_fixed_point(scen), scen.circ
        k = build_coupling_matrix(circ)
        stack = np.vstack([casimir_gradient(mu0, k, 1), constraint_jacobian(mu0)])
        basis = tangent_basis(mu0, circ)
        n = circ.n
        assert basis.shape == (2 * n - 2, n * n) and basis.flags.c_contiguous
        assert not basis.flags.writeable
        np.testing.assert_allclose(basis @ basis.T, np.eye(2 * n - 2), rtol=0, atol=1e-13)
        along = np.abs(stack @ basis.T).max(axis=-1)
        assert np.all(along <= 1e-14 * np.linalg.norm(stack, axis=-1))
        mult = solve_multiplier_system(mu0, circ)
        w = np.concatenate([mult.a, mult.constraint_coefficients])
        rhs = -4 * np.pi * reduced_system(circ).gradient(flatten(mu0))
        expected, *_ = np.linalg.lstsq(stack.T, rhs, rcond=None)
        assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("pos_scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kind,gamma,m", SCALE_FREE_POINTS)
    def test_dependent_casimirs_ignore_units(self, kind, gamma, m, pos_scale):
        # the rank rule of the Casimir row, applied after the constraints, at
        # any units: C_1 adds to the rank and C_2 - C_1^2 does not
        mu0, circ = scaled_fixed_point(kind, gamma, m, pos_scale)
        res = independence_check(mu0, circ)
        assert res.independent and res.rank == res.expected
        base = local_model(mu0, circ)
        model = LocalModel(base.mu0, base.circs)
        model.casimirs = power_gap_row(model)
        assert model.rank.tolist() == [res.expected - 1]

    @pytest.mark.parametrize("pos_scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("gamma", NEAR_ZERO_TOTAL + ABOVE_ZERO_TOTAL)
    def test_a_dependent_c1_row_ignores_units(self, gamma, pos_scale):
        # the rank rule of the C_1 row, applied after the constraints
        mu0, circ = scaled_fixed_point("triangle-with-center", gamma, None, pos_scale)
        res = independence_check(mu0, circ)
        assert not res.independent and res.rank == res.expected - 1 == 4

    def test_multipliers_match_a_least_squares_solve(self):
        # the closed form against lstsq of [C; J]^T w = -4 pi grad h on rows
        # of unit length (see TestLeafFromMomentMap).  The points of a stack
        # share mu0 and so J: one lstsq of J^T takes every right-hand side
        # and every C row, and the least-squares C_1 coefficient is the one
        # that cancels what J^T leaves of the right-hand side
        checked, problems = 0, []
        for mu0, circs in reference_stacks():
            k = len(circs)
            assert np.all(mu0.entries == mu0.entries[0])
            jacobian = constraint_jacobian(MuMatrix(mu0.entries[0]))
            length = np.linalg.norm(jacobian, axis=-1)[:, None]
            rhs = -FOUR_PI * ReducedHamiltonian(circs).gradient(flatten(mu0))
            rows = casimir_gradient(mu0, build_coupling_matrix(circs), 1)
            columns = np.concatenate([rhs, rows]).T
            y = np.linalg.lstsq((jacobian / length).T, columns, rcond=None)[0]
            left = columns - (jacobian / length).T @ y
            a = (left[:, :k] * left[:, k:]).sum(axis=0) / (left[:, k:] ** 2).sum(axis=0)
            expected = np.concatenate([a[:, None], ((y[:, :k] - a * y[:, k:]) / length).T], -1)
            model = local_model(mu0, circs)
            mult = model.multipliers
            w = np.concatenate([mult.a, mult.constraint_coefficients], axis=-1)
            gap = np.abs(w - expected).max(axis=-1) / np.abs(expected).max(axis=-1)
            residual = mult.residual / np.abs(rhs).max(axis=-1)
            for i in (model.rank == model.row_count).nonzero()[0]:
                checked += 1
                if gap[i] > 1e-12 or residual[i] > 1e-12 or mult.solution_space_dim[i]:
                    problems.append((circs[i].gammas[-1], gap[i], residual[i]))
        assert problems == [] and checked == 382

    @pytest.mark.parametrize("gammas", [NEAR_ZERO_TOTAL, ABOVE_ZERO_TOTAL], ids=["below", "above"])
    def test_dependent_multipliers_take_the_closed_form(self, gammas, monkeypatch):
        calls = []
        for name in ("pinv", "svd", "lstsq"):
            def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        # near zero total both points have dependent rows: the certificate
        # stops at the rank
        lo, hi = gammas
        table = gamma_sweep("triangle-with-center", lo, hi, hi - lo)
        assert [row.gamma for row in table.rows] == [lo, hi]
        assert {row.verdict for row in table.rows} == {"inconclusive"}
        points = [fixed_point("triangle-with-center", g) for g in gammas]
        mu0 = MuMatrix(np.stack([p[0].entries for p in points]))
        model = local_model(mu0, [p[1] for p in points])
        assert np.all(model.rank == 4)
        mult = model.multipliers
        assert calls == []
        # a_1 = 2 pi Omega = 1 + gamma, as at the independent points.  The
        # minimal-norm set of [C; J] leaves 0.686 of max |4 pi grad h| here,
        # so the residual bound tells the two sets apart
        assert np.array_equal(mult.a, 2 * np.pi * model._energy_rows[1][:, 0])
        assert np.abs(mult.a[:, 0] - (1.0 + np.array(gammas))).max() <= 1e-13
        scale = np.abs(model.energy_gradient).max(axis=-1)
        assert np.all(mult.residual <= 1e-5 * scale)
        assert mult.solution_space_dim.tolist() == [1, 1]
        with pytest.raises(Infeasible):
            solve_multiplier_system(model, model.circs)


def reference_stacks():
    """The polygon grid (m = 3..20, gamma = -5..40 at step 2.5), the paper's
    families at step 0.25 and the twelve certify-large copies (m = 20), as
    (mu0, circulation sets) stacks of the scenarios that share their
    positions and regime, and so mu0."""
    scens = [
        build_scenario("polygon-with-center", gamma=float(g), m=m)
        for m in GRID_M
        for g in np.arange(-5.0, 40.1, 2.5)
        if g
    ]
    for kind, lo, hi in PAPER_FAMILIES:
        scens += [build_scenario(kind, gamma=float(g)) for g in np.arange(lo, hi + 0.1, 0.25) if g]
    for gamma in (20.0, 25.0, 30.0, 35.0):
        base = build_scenario("polygon-with-center", gamma=gamma, m=20)
        for pos_scale, circ_scale in ((1.0, 1.0), (10.0, 1.0), (10.0, 1e-2)):
            positions = tuple(pos_scale * p for p in base.positions)
            gammas = tuple(circ_scale * g for g in base.circ.gammas)
            scens.append(build_scenario("custom", positions=positions, circulations=gammas))
    stacks = {}
    for scen in scens:
        stacks.setdefault((scen.positions, scen.circ.regime), []).append(scen)
    return [(scenario_fixed_point(g), tuple(s.circ for s in g)) for g in stacks.values()]


def count_casimir_gradients(monkeypatch):
    """Record (j, stack size) of each Casimir gradient the certificate takes."""
    calls = []
    gradient = localmodel.casimir_gradient

    def counted(mu, k, j):
        calls.append((j, len(mu.entries)))
        return gradient(mu, k, j)

    monkeypatch.setattr(localmodel, "casimir_gradient", counted)
    return calls


def power_gap_row(model):
    """The differential of C_2 - C_1^2 at the model's points as one row."""
    mu0, k = model.mu0, model.coupling
    first = casimir_values(mu0, k, [1])
    return (casimir_gradient(mu0, k, 2) - 2 * first * casimir_gradient(mu0, k, 1))[:, None]


def family_points():
    """The paper's families at step 0.25 (both regimes: triangle gamma = -3
    and square gamma = -4 have zero total circulation), the polygon with
    center for m = 3..20 (gamma = -m is zero total), the scaled copies of
    the scale-free points and the n = 1 leaf."""
    points = []
    for kind, lo, hi in (("triangle-with-center", -5.0, 2.0), ("square-with-center", -4.5, 3.0)):
        for gamma in np.arange(lo, hi + 1e-9, 0.25):
            if gamma != 0.0:
                points.append(fixed_point(kind, float(gamma)))
    for m in GRID_M:
        for gamma in (-float(m), -5.0, 5.0, 20.0, 40.0):
            points.append(fixed_point("polygon-with-center", gamma, m))
    for kind, gamma, m in SCALE_FREE_POINTS:
        base = build_scenario(kind, gamma=gamma, m=m)
        for pos_scale, circ_scale in ((10.0, 1.0), (1e3, 1.0), (1e-3, 1.0), (1.0, 1e4),
                                      (1.0, 1e-4), (10.0, 1e-2), (1e-3, 1e4)):
            scen = build_scenario(
                "custom",
                positions=tuple(pos_scale * p for p in base.positions),
                circulations=tuple(circ_scale * g for g in base.circ.gammas),
            )
            points.append((scenario_fixed_point(scen), scen.circ))
    scen = build_scenario(
        "custom", positions=(0.0, 1.0, 0.5 + 0.5j * np.sqrt(3)), circulations=(1.0, 1.0, -2.0)
    )
    points.append((scenario_fixed_point(scen), scen.circ))
    return points


class TestLeafFromMomentMap:
    """The leaf built from Dphi and the closed-form multipliers against a
    numpy QR of the whole stack of Casimir and constraint differentials."""

    def test_matches_a_qr_of_the_stack(self):
        problems, sizes = [], set()
        for mu0, circ in family_points():
            n = circ.n
            k = build_coupling_matrix(circ)
            stack = np.vstack([casimir_gradient(mu0, k, 1), constraint_jacobian(mu0)])
            q = np.linalg.qr(stack.T, mode="complete")[0]
            own = q[:, len(stack) :].T
            basis = tangent_basis(mu0, circ)
            d = 2 * n - 2
            sizes.add(n)
            where = (circ.gammas, n)
            if basis.shape != own.shape or basis.shape != (d, n * n):
                problems.append((where, "shape", basis.shape))
                continue
            if np.abs(basis @ basis.T - np.eye(d)).max(initial=0.0) > 1e-14:
                problems.append((where, "orthonormal"))
            length = np.linalg.norm(stack, axis=-1)
            along = np.abs(stack @ basis.T).max(axis=-1, initial=0.0)
            if np.any(along > 1e-14 * length):
                problems.append((where, "tangent", (along / length).max()))
            mult = solve_multiplier_system(mu0, circ)
            w = np.concatenate([mult.a, mult.constraint_coefficients])
            rhs = -4 * np.pi * reduced_system(circ).gradient(flatten(mu0))
            # rows of unit length: the scaled copies give the C_1 row and the
            # constraint rows lengths up to 1e12 apart, and lstsq of the raw
            # stack then misses the solution by up to 1e-5 of its size
            expected = np.linalg.lstsq((stack / length[:, None]).T, rhs, rcond=None)[0] / length
            if np.abs(w - expected).max() > 1e-12 * np.abs(expected).max():
                problems.append((where, "multipliers", np.abs(w - expected).max()))
            got = np.linalg.eigvalsh(restricted_hessian(mu0, circ, mult, basis))
            eig = np.linalg.eigvalsh(restricted_hessian(mu0, circ, mult, own))
            if np.abs(got - eig).max(initial=0.0) > 1e-12 * np.abs(eig).max(initial=0.0):
                problems.append((where, "restricted Hessian", np.abs(got - eig).max()))
        assert problems == []
        assert sizes == set(range(1, 21))


# the certify-large copies: positions x10 and circulations x1e-2 of the
# polygon with m = 20
LARGE_COPIES = [(gamma, 10.0, 1e-2) for gamma in (20.0, 25.0, 30.0, 35.0)]


def pullback_points():
    """LEAF_CASES, the polygon grid, the zero-total triangle, the points just
    above zero total and the certify-large copies."""
    points = [fixed_point(kind, gamma, m) for kind, gamma, m in LEAF_CASES]
    points += [fixed_point("polygon-with-center", gamma, m) for m in GRID_M for gamma in GRID_GAMMA]
    points += [fixed_point("triangle-with-center", gamma) for gamma in (-3.0,) + ABOVE_ZERO_TOTAL]
    for gamma, pos_scale, circ_scale in LARGE_COPIES:
        base = build_scenario("polygon-with-center", gamma=gamma, m=20)
        scen = build_scenario(
            "custom",
            positions=tuple(pos_scale * p for p in base.positions),
            circulations=tuple(circ_scale * g for g in base.circ.gammas),
        )
        points.append((scenario_fixed_point(scen), scen.circ))
    return points


def relative_gap(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


def critical_multipliers(model):
    """Multipliers (a0 = +1) that make 4 pi h + a_1 C_1 + the constraints
    critical at the model's one point.  Where [C_1; J] has full rank they
    are the least-squares solution of [C_1; J]^T w = -4 pi grad h, on J rows
    of unit length (as in test_multipliers_match_a_least_squares_solve),
    found apart from the model's closed form.  Where the rows are dependent
    the least-squares set is the minimal-norm one, which leaves about 0.7 of
    max |4 pi grad h| and is not critical, so the closed form is restated
    there: a_1 = 2 pi Omega, Omega from K^-1 G z0 = i Omega z0, and the
    constraint weights of the rest."""
    n = model.n
    if model.rank[0] < model.row_count:
        a = 2 * np.pi * model._energy_rows[1][:, 0]
        rest = model.energy_gradient + a * model.casimirs[:, 0]
        w = localmodel._constraint_multipliers(model.moment[0], rest)
    else:
        jacobian = constraint_jacobian(MuMatrix(model.mu0.entries.reshape(n, n)))
        length = np.linalg.norm(jacobian, axis=-1)
        rows = np.concatenate([model.casimirs[0, :1], jacobian / length[:, None]])
        y = np.linalg.lstsq(rows.T, -model.energy_gradient[0], rcond=None)[0]
        a, w = y[None, :1], (y[1:] / length)[None]
    return replace(model.multipliers, a=a, b=w[:, : n - 1], c=w[:, n - 1 :: 2], d=w[:, n::2])


class TestLeafOperator:
    """The leaf operator L = B A B^T and the restricted Hessian B H_f B^T at
    the critical multipliers on the model's tangent bases, both taken on the
    2n - 1 rows of Dphi, against the n^2-dimensional formulas."""

    def test_matches_the_n2_formulas(self):
        problems, checked = [], 0
        for mu0, circ in pullback_points():
            model = local_model(mu0, circ)
            basis = model.basis
            basis_t = basis.swapaxes(-1, -2)
            leaf = basis @ model.linearize() @ basis_t
            hessian = model.restricted_hessian(model.multipliers, basis)
            dense = dense_restricted_hessian(model, critical_multipliers(model), basis)
            gaps = (relative_gap(model.leaf_operator(), leaf), relative_gap(hessian, dense))
            if max(gaps) > 1e-12:
                problems.append((circ.gammas, gaps))
            checked += 1
        assert problems == []
        assert checked == len(LEAF_CASES) + len(GRID_M) * len(GRID_GAMMA) + 3 + len(LARGE_COPIES)

    @pytest.mark.parametrize("kind,gamma,m", LEAF_CASES[1:4] + [("polygon-with-center", 20.0, 20)])
    def test_linearize_takes_it_for_tangent_bases(self, kind, gamma, m):
        # the own bases get the leaf operator, equal by value or not the same
        # object, bit for bit; random tangent bases Q B get it on their
        # coordinates, and a random orthonormal basis off the leaf gets the
        # full Jacobian
        mu0, circ = fixed_point(kind, gamma, m)
        model = local_model(mu0, circ)
        own = np.array(model.basis[0])
        got = linearize(model, circ, own)
        assert got.tobytes() == model.leaf_operator()[0].tobytes()
        full = linearize(mu0, circ)
        rng = np.random.default_rng(circ.n)
        d = own.shape[0]
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        for q in (rotation @ own, rng.standard_normal((d, d)) @ own):
            got = linearize(model, circ, q)
            assert got.tobytes() == model.leaf_operator(q[None])[0].tobytes()
            assert relative_gap(got, q @ full @ q.T) <= 1e-12
            got = model.restricted_hessian(model.multipliers, q[None])
            dense = dense_restricted_hessian(model, model.multipliers, q[None])
            assert relative_gap(got, dense) <= 1e-12
        q = np.linalg.qr(rng.standard_normal((circ.n**2, d)))[0].T
        assert relative_gap(linearize(model, circ, q), q @ full @ q.T) <= 1e-12

    def test_a_point_that_is_not_fixed_takes_the_full_jacobian(self):
        # mu = i z z^* of four vortices that do not form a relative
        # equilibrium: the leaf operator would assume one
        scen = build_scenario(
            "custom",
            positions=(0.0, 1.0, 0.3 + 0.8j, -0.4 + 1.7j),
            circulations=(1.0, 2.0, 1.5, 1.0),
        )
        mu0, circ = scenario_fixed_point(scen), scen.circ
        basis = tangent_basis(mu0, circ)
        with pytest.warns(NotAFixedPointWarning):
            full = linearize(mu0, circ)
            got = linearize(mu0, circ, basis)
        assert relative_gap(got, basis @ full @ basis.T) <= 1e-12


def certify_large_scenarios():
    """The twelve operations of the certify-large benchmark: the polygon with
    m = 20 at gamma = 20..35, unscaled, with positions x10, and with
    positions x10 and circulations x1e-2."""
    scenarios = []
    for gamma in (20.0, 25.0, 30.0, 35.0):
        base = build_scenario("polygon-with-center", gamma=gamma, m=20)
        for pos_scale, circ_scale in ((1.0, 1.0), (10.0, 1.0), (10.0, 1e-2)):
            scenarios.append(
                build_scenario(
                    "custom",
                    positions=tuple(pos_scale * p for p in base.positions),
                    circulations=tuple(circ_scale * g for g in base.circ.gammas),
                )
            )
    return scenarios


def certify_large_points():
    return [(scenario_fixed_point(scen), scen.circ) for scen in certify_large_scenarios()]


def spread_point():
    """Five vortices whose |z_j|, relative to the last, run from 1e-3 to 1e3;
    not a relative equilibrium, which the factors of Dphi do not need."""
    scen = build_scenario(
        "custom",
        positions=(1e3j, -30.0 + 7j, 1.0 + 0.5j, 1e-3, 0.0),
        circulations=(1.0, 1.5, -0.5, 2.0, 1.0),
    )
    return scenario_fixed_point(scen), scen.circ


def dphi_rows(model):
    """The rows T of Dphi along the kept directions, and their Gram matrix."""
    z = model.moment[0]
    _, keep = localmodel._kept(z)
    return localmodel._dphi_rows(z, keep), localmodel._dphi_gram(z, keep)


def written_out_dphi_rows(z, keep):
    """The rows T of Dphi along the kept directions, entry by entry from
    their formulas: the reference of the plan-built ones."""
    k, n = z.shape
    a, b, x = localmodel._distance_pairs(n)
    y, j = x + 1, np.arange(n)
    re, im = z.real, z.imag
    rows = np.zeros((k, 2 * n, n * n))
    rows[:, j, j], rows[:, n + j, j] = 2.0 * re, 2.0 * im
    rows[:, a, x], rows[:, a, y] = re[:, b], -im[:, b]
    rows[:, b, x], rows[:, b, y] = re[:, a], im[:, a]
    rows[:, n + a, x], rows[:, n + a, y] = im[:, b], re[:, b]
    rows[:, n + b, x], rows[:, n + b, y] = im[:, a], -re[:, a]
    return rows[np.arange(k)[:, None], keep]


def written_out_z_table(z):
    """The z-table, entry by entry from its formulas."""
    k, n = z.shape
    a, b, x = localmodel._distance_pairs(n)
    j, iz = np.arange(n), 1j * z
    table = np.zeros((k, n * n, n), dtype=complex)
    table[:, j, j] = 2j * z
    table[:, x, a], table[:, x, b] = iz[:, b], iz[:, a]
    table[:, x + 1, a], table[:, x + 1, b] = -z[:, b], z[:, a]
    return table


def written_out_minor_columns(z):
    """conj(A) of the constraint multipliers, entry by entry."""
    n = z.shape[-1]
    step = np.arange(n - 1)
    a = np.zeros(z.shape + (n - 1,), dtype=complex)
    a[:, step, step], a[:, step + 1, step] = z[:, 1:].conj(), -z[:, :-1].conj()
    return a


# cond(T) <= 2 sqrt(n + 1) for every z: T T^T is at least |z|^2 / (n + 1) on
# the kept directions and at most 4 |z|^2.  Measured: at most 3.2 on the
# paper's families, 6.5 on the polygon grid and the certify-large copies
# (n = 20), and 2.0 at the spread point (n = 4)
class TestLeafFactors:
    """R of the rows T of Dphi from their closed-form Gram matrix, and the
    constraint part through the weighted constraint gradient on z."""

    @staticmethod
    def points():
        return family_points() + certify_large_points() + [spread_point()]

    def test_the_closed_form_gram_matrix_is_t_t_transpose(self):
        for mu0, circ in self.points():
            rows, gram = dphi_rows(local_model(mu0, circ))
            expected = rows @ rows.swapaxes(-1, -2)
            assert np.abs(gram - expected).max() <= 1e-15 * np.abs(expected).max(), circ.gammas

    @staticmethod
    def table_stacks():
        """Stacks of z: seeded random ones for n = 1..8, and each family point."""
        rng = np.random.default_rng(30)
        stacks = [rng.standard_normal((5, n, 2)) @ np.array([1.0, 1j]) for n in range(1, 9)]
        return stacks + [local_model(mu0, circ).moment[0] for mu0, circ in family_points()]

    def test_the_rows_of_dphi_equal_its_dense_form(self):
        # Dphi(v) = i (v z^* + z v^*) for every direction v, the kept ones taken
        for z in self.table_stacks():
            n = z.shape[-1]
            _, keep = localmodel._kept(z)
            v, z_col = localmodel._directions(n)[:, :, None], z[:, None, :, None]
            outer = v * z_col.conj().swapaxes(-1, -2) + z_col * v.conj().swapaxes(-1, -2)
            dense = flatten_stack(1j * outer)[np.arange(len(z))[:, None], keep]
            rows = localmodel._dphi_rows(z, keep)
            assert rows.flags.c_contiguous
            assert rows.shape == dense.shape and np.array_equal(rows, dense)

    def test_the_z_table_holds_g_z_for_every_coordinate_vector(self):
        # exactly, with no tolerance; a zero may differ in sign, as both
        # sides are products that add zeros
        for z in self.table_stacks():
            n = z.shape[-1]
            unit = np.eye(n * n)
            expected = gradient_entries(unit, n) @ z[:, None, :, None]
            got = unit @ localmodel._z_table(z)
            assert got.shape == expected.shape[:-1] and np.array_equal(got, expected[..., 0])

    @staticmethod
    def random_stacks():
        """Seeded random z for n = 2..21 in stacks of 1 and 13, and a stack
        with zero parts of both signs."""
        rng = np.random.default_rng(38)
        stacks = [
            rng.standard_normal((k, n, 2)) @ np.array([1.0, 1j]) for n in range(2, 22) for k in (1, 13)
        ]
        signed_zeros = np.array([[1.0 + 0.0j, complex(-0.0, 2.0), complex(0.5, -0.0), -3.0 - 1.0j]])
        return stacks + [signed_zeros]

    def test_plan_built_tables_equal_the_written_out_ones(self):
        # byte for byte: each entry of the written-out formulas is a value
        # of z negated, doubled or turned by i, and the plan takes the same
        for z in self.random_stacks():
            _, keep = localmodel._kept(z)
            rows = localmodel._dphi_rows(z, keep)
            assert rows.flags.c_contiguous
            tables = [
                (rows, written_out_dphi_rows(z, keep)),
                (localmodel._z_table(z), written_out_z_table(z)),
                (localmodel._minor_columns(z), written_out_minor_columns(z)),
            ]
            for got, expected in tables:
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), z.shape

    def test_plans_come_from_the_pairs_alone(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a slot plan read the constraint Hessians")

        monkeypatch.setattr(ConstraintSystem, "hessians", refuse)
        localmodel._slot_plans.cache_clear()
        for n in range(1, 22):
            shapes = ((2 * n, n * n), (n * n, n), (n, n - 1))
            for (slots, taken), shape in zip(localmodel._slot_plans(n), shapes):
                # each slot of the table once, in order, each value read
                # from the table's vector of values
                assert np.all(np.diff(slots) > 0) and slots.size == taken.size
                assert slots.size == 0 or 0 <= slots[0] <= slots[-1] < np.prod(shape)
                assert not (slots.flags.writeable or taken.flags.writeable)

    def test_r_matches_a_householder_qr_up_to_signs(self):
        problems = []
        for mu0, circ in self.points():
            model = local_model(mu0, circ)
            rows, _ = dphi_rows(model)
            r = model._frame[1]
            householder = np.linalg.qr(rows.swapaxes(-1, -2), mode="r")
            assert np.all(np.diagonal(r, axis1=-2, axis2=-1) > 0)
            gap = np.abs(np.abs(r) - np.abs(householder)).max() / np.abs(r).max()
            cond = np.linalg.cond(rows[0])
            if gap > 1e-12 or cond > 2 * np.sqrt(circ.n + 1):
                problems.append((circ.gammas, gap, cond))
        assert problems == []

    def test_the_weight_form_equals_the_dense_contraction_on_mixed_stacks(self):
        # R vanishes on the image of phi, so its Hessian along Dphi is
        # -DR . D^2 phi, and at the critical multipliers of either sign the
        # constraint part is that of 4 pi h + 2 pi Omega C_1
        checked = set()
        for model in mixed_stacks():
            unit, basis = model.multipliers, model.basis
            for mult in (unit, unit.negated()):
                got = model.restricted_hessian(mult, basis)
                dense = dense_restricted_hessian(model, mult, basis)
                scale = np.abs(dense).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(got - dense) <= 1e-13 * scale)
            checked.add((model.n, model.circs[0].regime))
        assert checked == {(n, regime) for n in range(2, 7) for regime in Regime}

    def test_a_point_gets_the_same_bits_alone_and_in_a_stack(self):
        for model in mixed_stacks() + [stack_of(certify_large_points())]:
            stacked = stage_arrays(model)
            for i in range(len(model.circs)):
                alone = stage_arrays(local_model(model.mu0.take([i]), model.circs[i : i + 1]))
                for got, expected in zip(stacked, alone):
                    assert got[i].tobytes() == expected[0].tobytes()


def stack_of(points):
    return local_model(MuMatrix(np.stack([p[0].entries for p in points])), [p[1] for p in points])


def mixed_stacks():
    """Stacks of n = 2..6 in both regimes: the polygon with center (n = m,
    and n = m - 1 at zero total) at several gamma, three equal vortices for
    n = 2 at nonzero total, and each point's copies with positions x10 and
    circulations x1e-2, and positions x1e-3 and circulations x1e4."""
    bases = {(2, Regime.NON_ZERO_TOTAL): [build_scenario("equilateral3")]}
    for m in range(3, 8):
        if m <= 6:
            bases[(m, Regime.NON_ZERO_TOTAL)] = [
                build_scenario("polygon-with-center", gamma=g, m=m) for g in (-1.5, 0.5, 5.0, 20.0)
            ]
        bases[(m - 1, Regime.ZERO_TOTAL)] = [build_scenario("polygon-with-center", gamma=-m, m=m)]
    stacks = []
    for scenarios in bases.values():
        points = []
        for base in scenarios:
            for pos_scale, circ_scale in ((1.0, 1.0), (10.0, 1e-2), (1e-3, 1e4)):
                scen = build_scenario(
                    "custom",
                    positions=tuple(pos_scale * p for p in base.positions),
                    circulations=tuple(circ_scale * g for g in base.circ.gammas),
                )
                points.append((scenario_fixed_point(scen), scen.circ))
        stacks.append(stack_of(points))
    return stacks


def stage_arrays(model):
    """What the certificate reads of a model: the tangent bases, the leaf
    operator, the multipliers and the restricted Hessian."""
    mult = model.multipliers
    w = np.concatenate([mult.a, mult.constraint_coefficients], axis=-1)
    hessian = model.restricted_hessian(mult, model.basis)
    return model.basis, model.leaf_operator(), w, hessian


# certify-large's twelve operations and the polygon m = 18..20 on -5..40 at
# step 5, analyzed with the number of BLAS threads given on the command line;
# then a reduced and a full RK4 run of 200 steps at N = 5, their final states
# written as hex
BLAS_THREADS_RUN = """
import sys
from vortexstab.dynamics import Which, integrate
from vortexstab.report import analyze, report_to_json
from vortexstab.scenarios import build_scenario

scenarios = []
for gamma in (20.0, 25.0, 30.0, 35.0):
    base = build_scenario("polygon-with-center", gamma=gamma, m=20)
    for pos_scale, circ_scale in ((1.0, 1.0), (10.0, 1.0), (10.0, 1e-2)):
        scenarios.append(build_scenario(
            "custom",
            positions=tuple(pos_scale * p for p in base.positions),
            circulations=tuple(circ_scale * g for g in base.circ.gammas),
        ))
for m in (18, 19, 20):
    scenarios += [
        build_scenario("polygon-with-center", gamma=5.0 * k, m=m) for k in range(-1, 9) if k
    ]
for scen in scenarios:
    sys.stdout.write(report_to_json(analyze(scen)))
cfg = build_scenario(
    "custom",
    positions=(-0.9 + 0.1j, 0.4 + 0.8j, 1.1 - 0.3j, -0.2 - 1.0j, 0.3 + 0.2j),
    circulations=(1.0, -0.7, 0.9, 1.3, -0.5),
).configuration
for which in Which:
    traj = integrate(cfg, cfg.circ, t_end=0.2, dt=1e-3, which=which)
    assert not traj.aborted and len(traj) == 201
    sys.stdout.write(f"\\n{which.value} {traj.states[-1].tobytes().hex()}")
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        out = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_RUN],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        reports.append(out.stdout)
    assert reports[0].count('"verdict"') == 12 + 27
    assert reports[0].count("\nfull ") == reports[0].count("\nreduced ") == 1
    assert reports[0] == reports[1]


def energy_momentum_points():
    """The paper's families at step 0.25, the polygon with center for
    m = 3..12 on -5..40 at step 5, and the certify-large copies; gamma = 0
    and the zero-total points are left out."""
    scenarios = []
    for kind, lo, hi in (("triangle-with-center", -5.0, 2.0), ("square-with-center", -1.5, 3.0)):
        grid = np.arange(lo, hi + 1e-9, 0.25)
        scenarios += [build_scenario(kind, gamma=float(g)) for g in grid if g]
    for m in range(3, 13):
        scenarios += [
            build_scenario("polygon-with-center", gamma=5.0 * k, m=m) for k in range(-1, 9) if k
        ]
    scenarios += certify_large_scenarios()
    return [s for s in scenarios if s.circ.regime is Regime.NON_ZERO_TOTAL]


def energy_momentum_verdicts(points):
    """The points' verdicts, the points where "certified" and the oracle's
    definiteness disagree, and the worst fit residual of the oracle."""
    verdicts, disagree, worst_fit = set(), [], 0.0
    for scen in points:
        verdict = analyze(scen).verdict
        hessian, residual, size = energy_momentum.restricted_energy_momentum(
            scen.positions, scen.circ.gammas
        )
        worst_fit = max(worst_fit, residual / size)
        verdicts.add(verdict)
        if (verdict == "certified-stable") != energy_momentum.definite(hessian):
            disagree.append((scen.circ.gammas, verdict))
    return verdicts, disagree, worst_fit


def inertia(matrix):
    """(n+, n-) of a symmetric matrix, an eigenvalue within 1e-9 of the
    largest in size counting as zero."""
    eig = np.linalg.eigvalsh(matrix)
    tol = 1e-9 * np.abs(eig).max(initial=0.0)
    return int((eig > tol).sum()), int((eig < -tol).sum())


def test_certified_exactly_where_the_energy_momentum_test_is_definite():
    # the oracle of tests/energy_momentum.py works in positions and shares no
    # code with the package; on the zero-total points it does not apply
    points = energy_momentum_points()
    verdicts, disagree, worst_fit = energy_momentum_verdicts(points)
    assert len(points) == 146 and disagree == [] and worst_fit <= 1e-12
    assert verdicts == {"certified-stable", "inconclusive", "linearly-unstable"}
    # the restricted Hessian has the oracle's inertia, indefinite or not
    differ = []
    for scen in points:
        _, hessian = leaf_hessian(scenario_fixed_point(scen), scen.circ)
        oracle, _, _ = energy_momentum.restricted_energy_momentum(scen.positions, scen.circ.gammas)
        if inertia(hessian) != inertia(0.5 * (oracle + oracle.T)):
            differ.append((scen.circ.gammas, inertia(hessian), inertia(oracle)))
    assert differ == []


def test_band_edges_are_certified_exactly_where_the_energy_momentum_test_is_definite():
    # the polygon with center loses stability at gamma = (m - 1)^2 / 4: 1e-3
    # below it both tests read definite, 1e-3 above both read indefinite.
    # (At edge - 1e-6 the oracle's smallest eigenvalue falls under
    # DEFINITE_SHARE of its largest from m = 8 on.)
    for side, verdict in ((-1e-3, "certified-stable"), (1e-3, "linearly-unstable")):
        points = [
            build_scenario("polygon-with-center", gamma=(m - 1) ** 2 / 4 + side, m=m)
            for m in range(3, 21)
        ]
        verdicts, disagree, worst_fit = energy_momentum_verdicts(points)
        assert disagree == [] and worst_fit <= 1e-12
        assert verdicts == {verdict}


def result_bytes(res):
    """A certificate result as exact values: each float by its hex form with
    its type, each array by its dtype, shape and bytes; an error by its type
    and text."""
    if isinstance(res, VortexStabError):
        return type(res), str(res)

    def exact(values):
        return None if values is None else [(type(x), float(x).hex()) for x in values]

    def array(a):
        return None if a is None else (a.dtype, a.shape, a.tobytes())

    mult = res.multipliers
    if mult is not None:
        mult = (
            [exact(w) for w in ((mult.a0,), mult.a, mult.b, mult.c, mult.d, (mult.residual,))],
            type(mult.solution_space_dim),
            mult.solution_space_dim,
        )
    return (
        res.verdict,
        res.reason,
        exact([res.residual]),
        array(res.spectrum),
        mult,
        exact(res.minors),
        array(res.restricted_hessian),
        array(res.tangent_basis),
    )


def family_stacks():
    """The sweep-paper grids (step 0.02) as certificate stacks of one N and
    regime, and a triangle stack that mixes dependent points (gamma =
    -3 +- 1e-9) with independent ones."""
    grids = [
        (kind, [round(lo + 0.02 * i, 12) for i in range(int(round((hi - lo) / 0.02)) + 1)])
        for kind, lo, hi in PAPER_FAMILIES
    ]
    grids.append(("triangle-with-center", [-3.1, -3.0 - 1e-9, -3.0, -3.0 + 1e-9, -2.9]))
    stacks = []
    for kind, gammas in grids:
        groups = {}
        for g in gammas:
            if g != 0.0:
                scen = build_scenario(kind, gamma=g)
                groups.setdefault(scen.circ.regime, []).append(scen)
        for scens in groups.values():
            stacks.append((scenario_fixed_point(scens), [s.circ for s in scens]))
    return stacks


class TestWholeResults:
    def test_a_point_gets_the_same_result_alone_and_in_a_stack(self):
        # the certificate assembles each result from per-stack arrays: every
        # field, the multipliers' element types included, is the one-point
        # certificate's, bit for bit
        stacks = [(model.mu0, model.circs) for model in mixed_stacks()] + family_stacks()
        reasons = set()
        for mu0, circs in stacks:
            stacked = energy_casimir_certificate(mu0, circs)
            for i, res in enumerate(stacked):
                try:
                    alone = energy_casimir_certificate(MuMatrix(mu0.entries[i]), circs[i])
                except VortexStabError as exc:
                    alone = exc
                assert result_bytes(res) == result_bytes(alone), (circs[i].gammas, i)
                if not isinstance(res, VortexStabError):
                    cause = res.reason.split(" (")[0].split(":")[0].split(" =")[0]
                    reasons.add((res.verdict.value, cause))
        # every path of the assembly: linearly unstable, inconclusive by a
        # minor and by dependent differentials, and certified
        assert reasons == {
            ("certified-stable", ""),
            ("linearly-unstable", "max Re lambda"),
            ("inconclusive", "restricted Hessian not definite"),
            ("inconclusive", "differentials not independent"),
        }
