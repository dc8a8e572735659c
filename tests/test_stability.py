import re
import warnings

import numpy as np
import pytest

from vortexstab import stability
from vortexstab.algebra import (
    Circulations,
    MuMatrix,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    pair_indices,
    unflatten,
)
from vortexstab.constraints import casimir_gradient, constraint_jacobian, row_rank
from vortexstab.dynamics import integrate, moment_map, relative_coordinates
from vortexstab.errors import NotAFixedPoint, NotAFixedPointWarning, NotInOpenSet, NotRankOne
from vortexstab.hamiltonian import FOUR_PI, ReducedHamiltonian, VortexConfiguration, reduced_system
from vortexstab.report import analyze
from vortexstab.scenarios import build_scenario, scenario_fixed_point
from vortexstab.stability import (
    Verdict,
    energy_casimir_certificate,
    independence_check,
    is_fixed_point,
    linearize,
    local_model,
    restricted_hessian,
    solve_multiplier_system,
    spectrum,
    sylvester_verdict,
    tangent_basis,
)

EQUILATERAL3_MU0 = unflatten(np.array([1.0, 1.0, 0.5, -np.sqrt(3) / 2]), 2)
# a direction that makes a rank-one M = z z^* of n = 3 rank two
W = np.array([0.3, -0.2j, 0.5 + 0.1j])


def center_fixed_point(kind, gamma):
    scen = build_scenario(kind, gamma=gamma)
    return scenario_fixed_point(scen), scen.circ


class TestFixedPoint:
    def test_equilateral_is_fixed(self):
        for gammas in [(1.0, 1.0, 1.0), (1.0, -0.4, 0.7), (2.0, 0.3, -0.8)]:
            chk = is_fixed_point(EQUILATERAL3_MU0, Circulations(gammas))
            assert chk.ok and chk.residual < 1e-12

    def test_perturbed_point_is_not(self):
        mu = unflatten(np.array([1.1, 1.0, 0.5, -np.sqrt(3) / 2]), 2)
        assert not is_fixed_point(mu, Circulations((1.0, 1.0, 1.0))).ok

    def test_static_equilibrium_is_fixed(self):
        # triangle gamma = -1 does not rotate: max|mu G K^-1| is 8e-17 there,
        # while the field's terms are of order one
        mu0, circ = center_fixed_point("triangle-with-center", -1.0)
        assert is_fixed_point(mu0, circ).ok

    @pytest.mark.parametrize("pos_scale", [1.0, 1e-3])
    def test_acceptance_is_relative_to_the_field_terms(self, pos_scale):
        # circulations x1e6 scale the field and its round-off by 1e6
        base = build_scenario("polygon-with-center", gamma=20.0, m=20)
        scen = build_scenario(
            "custom",
            positions=tuple(pos_scale * p for p in base.positions),
            circulations=tuple(1e6 * g for g in base.circ.gammas),
        )
        rep = analyze(scen)
        assert rep.fixed_point_residual > stability.FP_TOL
        assert rep.verdict == analyze(base).verdict == "certified-stable"

    def test_center_scenarios_fixed(self):
        for kind, g in [
            ("triangle-with-center", 0.7),
            ("triangle-with-center", -3.0),
            ("square-with-center", 1.3),
            ("square-with-center", -4.0),
        ]:
            mu0, circ = center_fixed_point(kind, g)
            assert is_fixed_point(mu0, circ).ok


class TestLinearize:
    def test_matches_printed_three_vortex_matrix(self):
        # closed-form Jacobian for the unit-side equilateral triangle
        g1, g2, g3 = 1.3, -0.6, 0.9
        circ = Circulations((g1, g2, g3))
        s3 = np.sqrt(3)
        expected = (1 / (4 * np.pi)) * np.array(
            [
                [-2 * s3 * g2, 0, 4 * s3 * g2, 0],
                [0, 2 * s3 * g1, -4 * s3 * g1, 0],
                [-s3 * (g2 + g3), s3 * (g1 + g3), 2 * s3 * (g2 - g1), 0],
                [g2 - g3, g3 - g1, 2 * (g1 - g2), 0],
            ]
        )
        a = linearize(EQUILATERAL3_MU0, circ)
        np.testing.assert_allclose(a, expected, atol=1e-10)

    def test_matches_central_differences(self):
        from vortexstab.dynamics import lie_poisson_vector_field

        for kind, g in [("triangle-with-center", 0.8), ("square-with-center", -4.0)]:
            mu0, circ = center_fixed_point(kind, g)
            a = linearize(mu0, circ)
            u0 = flatten(mu0)
            n = circ.n
            eps = 1e-6
            fd = np.empty_like(a)
            for i in range(n * n):
                d = np.zeros(n * n)
                d[i] = eps
                xp = flatten(lie_poisson_vector_field(unflatten(u0 + d, n), circ))
                xm = flatten(lie_poisson_vector_field(unflatten(u0 - d, n), circ))
                fd[:, i] = (xp - xm) / (2 * eps)
            np.testing.assert_allclose(a, fd, atol=1e-6)

    def test_warns_off_equilibrium(self):
        mu = unflatten(np.array([1.2, 1.0, 0.5, -np.sqrt(3) / 2]), 2)
        with pytest.warns(NotAFixedPointWarning):
            linearize(mu, Circulations((1.0, 1.0, 1.0)))


class TestSpectrum:
    def test_simple_fixture(self):
        ev = spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sorted(ev.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ev.real, 0.0, atol=1e-12)

    def test_sorted_by_real_then_imaginary(self):
        ev = spectrum(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(ev.real, [-1.0, 2.0, 3.0])

    def test_negation_symmetry_at_fixed_points(self):
        # linearizations of Hamiltonian systems have eigenvalues in
        # {lambda, -lambda} pairs
        for kind, g in [("triangle-with-center", 2.0), ("square-with-center", 0.5)]:
            mu0, circ = center_fixed_point(kind, g)
            ev = spectrum(linearize(mu0, circ))
            for lam in ev:
                assert np.abs(ev + lam).min() < 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectrum(np.zeros((2, 3)))

    @staticmethod
    def lexsorted(ev):
        """The reference: the eigenvalues as complex values, by real part,
        then by imaginary part."""
        ev = ev.astype(complex)
        return np.take_along_axis(ev, np.lexsort((ev.imag, ev.real), axis=-1), axis=-1)

    def test_order_is_the_lexsort_of_real_then_imaginary_parts(self):
        rng = np.random.default_rng(34)
        # random real matrices have conjugate pairs; the blocks give ties:
        # repeated real eigenvalues, repeated pairs, and pairs +-2i whose
        # real parts are +0.0 and -0.0
        turn = np.array([[0.0, -2.0], [2.0, 0.0]])
        blocks = np.zeros((4, 4, 4))
        blocks[0, :2, :2] = blocks[0, 2:, 2:] = turn
        blocks[1, :2, :2], blocks[1, 2:, 2:] = turn, [[-0.0, 2.0], [-2.0, -0.0]]
        blocks[2] = np.diag([1.0, -1.0, 1.0, -1.0])
        stacks = [rng.standard_normal((25, d, d)) for d in range(1, 7)]
        stacks += [blocks, np.zeros((3, 0, 0)), np.zeros((0, 0))]
        # an eigenvalue that overflows to infinity
        stacks.append(np.full((2, 2), 1e308))
        signed_zero = False
        for a in stacks:
            got, expected = spectrum(a), self.lexsorted(np.linalg.eigvals(a))
            assert got.dtype == expected.dtype == np.complex128 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            signed_zero |= bool((np.signbit(got.real) & (got.real == 0)).any())
        assert signed_zero

    def test_nan_and_infinite_eigenvalues_take_the_lexsort_order(self, monkeypatch):
        # eigvals refuses a matrix that is not finite, so these are made up,
        # in the forms a real matrix's eigenvalues take: real values and
        # conjugate pairs.  (A finite real part with a NaN imaginary part
        # would sort after every value with a finite one.)
        nan, inf = np.nan, np.inf
        made_up = [
            np.array([[nan, 1.0, -inf, 0.0, -0.0, inf, 1.0]]),
            np.array(
                [[complex(nan, 2), 1 + 0j, complex(nan, -2), nan + 0j, complex(nan, nan), -1j, 1j]]
            ),
            np.array([[complex(inf, 1), complex(inf, -1), complex(-0.0, 0), 0j, complex(-inf, 0)]]),
        ]
        for ev in made_up:
            monkeypatch.setattr(np.linalg, "eigvals", lambda a, ev=ev: ev.copy())
            got = spectrum(np.zeros((1,) + (ev.shape[-1],) * 2))
            assert got.dtype == np.complex128
            assert got.tobytes() == self.lexsorted(ev).tobytes()


class TestIndependence:
    def test_single_casimir_independent(self):
        mu0, circ = center_fixed_point("triangle-with-center", 0.7)
        res = independence_check(mu0, circ)
        assert res.independent and res.rank == 5 and res.expected == 5

    @pytest.mark.parametrize("offset", [1e-9, 1e-10])
    def test_dependent_rows_near_zero_total(self, offset):
        # just below gamma = -3 (zero total circulation) dC_1 lies in the
        # span of the constraint differentials to the rank rule
        mu0, circ = center_fixed_point("triangle-with-center", -3.0 - offset)
        res = independence_check(mu0, circ)
        assert not res.independent and res.rank == 4 and res.expected == 5

    def test_dependent_rows_are_per_point_of_a_stack(self):
        # a sweep stack reads the rank point by point: the stable gamma = 0.7
        # keeps its full rank beside the two points just below zero total
        gammas = (0.7, -3.0 - 1e-9, -3.0 - 1e-10)
        points = [center_fixed_point("triangle-with-center", g) for g in gammas]
        mu0 = MuMatrix(np.stack([p[0].entries for p in points]))
        model = local_model(mu0, [p[1] for p in points])
        assert model.row_count == 5 and model.rank.tolist() == [5, 4, 4]

    @pytest.mark.parametrize(
        "kind,gamma,m",
        [
            ("triangle-with-center", 0.7, None),
            ("square-with-center", 1.0, None),
            ("polygon-with-center", 1.0, 5),
        ],
    )
    def test_higher_casimirs_add_no_rank(self, kind, gamma, m):
        # at rank-one points every C_j with j >= 2 is functionally dependent
        # on C_1 and the constraints, so stacking them cannot raise the rank:
        # the reason C_1 is the certificate's one Casimir
        scen = build_scenario(kind, gamma=gamma, m=m)
        mu0, circ = scenario_fixed_point(scen), scen.circ
        base = independence_check(mu0, circ)
        assert base.independent
        k = build_coupling_matrix(circ)
        rows = [constraint_jacobian(mu0)]
        rows += [casimir_gradient(mu0, k, j) for j in range(1, circ.n + 1)]
        assert row_rank(np.vstack(rows)) == base.rank

    def test_rejects_degenerate_point(self):
        mu = MuMatrix(np.diag([1j, 2j, 3j]))
        circ = Circulations((1.0, 1.0, 1.0, 2.0))
        with pytest.raises(NotInOpenSet):
            independence_check(mu, circ)

    @pytest.mark.parametrize("size", [1e-3, 1e-6])
    def test_rejects_point_off_the_stratum(self, size):
        # a rank-two M = -i mu in the open set is not z z^*: the leaf of phi
        # does not pass through it
        mu0, circ = center_fixed_point("triangle-with-center", 0.7)
        mu = MuMatrix(np.stack([mu0.entries, mu0.entries + 1j * size * np.outer(W, W.conj())]))
        with pytest.raises(NotRankOne, match="not i z z") as exc:
            independence_check(mu, [circ, circ])
        assert exc.value.sample == 1
        assert independence_check(MuMatrix(mu.entries[0]), circ).independent

    def test_point_off_the_stratum_holds_its_error(self, monkeypatch):
        # past the fixed-point and open-set checks, a point off the stratum
        # holds NotRankOne in its slot and the others are decided
        mu0, circ = center_fixed_point("triangle-with-center", 0.7)
        mu = MuMatrix(np.stack([mu0.entries + 1j * 1e-3 * np.outer(W, W.conj()), mu0.entries]))
        accept = stability.FixedPointCheck(residual=np.zeros(2), ok=np.ones(2, dtype=bool))
        monkeypatch.setattr(stability, "is_fixed_point", lambda mu0, circ: accept)
        off, on = energy_casimir_certificate(mu, [circ, circ])
        assert isinstance(off, NotRankOne)
        assert on.verdict is Verdict.CERTIFIED_STABLE


class TestMultipliersAndBasis:
    def test_residual_reevaluated_small(self):
        for kind, g in [("triangle-with-center", 0.5), ("square-with-center", 1.5)]:
            mu0, circ = center_fixed_point(kind, g)
            for a0 in (1.0, -1.0):
                m = solve_multiplier_system(mu0, circ, a0=a0)
                assert m.residual < 1e-8
                assert m.a0 == a0

    @pytest.mark.parametrize("a0", [2.0, -0.5, 0.0])
    def test_rejects_a0_other_than_plus_or_minus_one(self, a0):
        mu0, circ = center_fixed_point("triangle-with-center", 0.5)
        with pytest.raises(ValueError, match="a0 must be"):
            solve_multiplier_system(mu0, circ, a0=a0)

    def test_tangent_basis_annihilated_and_orthonormal(self):
        mu0, circ = center_fixed_point("square-with-center", 1.0)
        basis = tangent_basis(mu0, circ)
        assert basis.shape == (6, 16)
        k = build_coupling_matrix(circ)
        stack = np.vstack([casimir_gradient(mu0, k, 1), constraint_jacobian(mu0)])
        assert np.abs(stack @ basis.T).max() < 1e-10
        np.testing.assert_allclose(basis @ basis.T, np.eye(6), atol=1e-12)

    def test_expected_dimensions(self):
        mu0, circ = center_fixed_point("triangle-with-center", 0.5)
        assert tangent_basis(mu0, circ).shape == (4, 9)

    def test_zero_total_basis_spans_printed_plane(self):
        # n = 2 zero-total reduction: the tangent plane must agree with the
        # span of (1,0,1,0) and (-1,1,0,0) regardless of basis choice
        mu0, circ = center_fixed_point("triangle-with-center", -3.0)
        basis = tangent_basis(mu0, circ)
        assert basis.shape == (2, 4)
        printed = np.array([[1.0, 0, 1, 0], [-1.0, 1, 0, 0]])
        # projection of each printed vector onto the computed plane is itself
        proj = printed @ basis.T @ basis
        np.testing.assert_allclose(proj, printed, atol=1e-10)


class TestSylvester:
    def test_positive_diagonal(self):
        res = sylvester_verdict(np.diag([2.0, 3.0]))
        assert res.sign == 1
        np.testing.assert_allclose(res.minors, [2.0, 6.0])

    def test_zero_total_printed_matrix(self):
        h = (-1.0 / 9.0) * np.array([[-4.0, 2.0], [2.0, -4.0]])
        res = sylvester_verdict(h)
        assert res.sign == 1
        np.testing.assert_allclose(res.minors, [4.0 / 9.0, 4.0 / 27.0], rtol=1e-12)

    def test_indefinite(self):
        res = sylvester_verdict(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert res.sign == 0
        np.testing.assert_allclose(res.minors, [1.0, -3.0], rtol=1e-12)

    def test_matches_numpy_on_stacks_of_any_scale(self):
        # positive definite, negative definite and indefinite matrices of
        # orders 1..6, each scaled by 1e-8..1e8
        rng = np.random.default_rng(2024)
        for d in range(1, 7):
            stack = []
            for kind in [+1, -1, 0] * 20:
                signs = np.full(d, float(kind)) if kind else rng.choice([-1.0, 1.0], d)
                if not kind and d > 1:
                    signs[:2] = -1.0, 1.0
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                ev = rng.uniform(0.5, 2.0, d) * signs
                stack.append(10.0 ** rng.uniform(-8, 8) * (q * ev) @ q.T)
            h = np.array(stack)
            h = 0.5 * (h + h.swapaxes(-1, -2))
            res = sylvester_verdict(h)
            eig = np.linalg.eigvalsh(h)
            expected = np.where(eig.min(axis=-1) > 0, 1, np.where(eig.max(axis=-1) < 0, -1, 0))
            np.testing.assert_array_equal(res.sign, expected)
            for i in range(d):
                det = np.linalg.det(h[:, : i + 1, : i + 1])
                np.testing.assert_allclose(res.minors[:, i], det, rtol=1e-10, atol=0)

    def test_empty_matrix_is_not_definite(self):
        assert sylvester_verdict(np.zeros((0, 0))).sign == 0
        assert sylvester_verdict(np.zeros((3, 0, 0))).sign.tolist() == [0, 0, 0]

    def test_negative_definite_and_first_wrong_minor(self):
        res = sylvester_verdict(-np.diag([2.0, 3.0, 5.0]))
        assert (res.sign, res.wrong_minor) == (-1, 0)
        res = sylvester_verdict(np.diag([2.0, 3.0, -5.0]))
        assert (res.sign, res.wrong_minor) == (0, 3)
        # a pivot below PIVOT_TOL * max|h| is not definite, at any scale
        for scale in (1e-6, 1.0, 1e6):
            res = sylvester_verdict(scale * np.diag([1.0, 1e-12, 1.0]))
            assert (res.sign, res.wrong_minor) == (0, 2)


def ldl_verdict(h):
    """Sign, minors and first wrong minor from one unpivoted LDL^T
    elimination of each matrix of a stack: definite when every pivot has the
    first one's sign beyond PIVOT_TOL * max|h|."""
    d = h.shape[-1]
    a, pivots = h.copy(), np.empty(h.shape[:-1])
    for j in range(d):
        pivots[..., j] = p = a[..., j, j]
        col = a[..., j + 1 :, j] / p[..., None]
        a[..., j + 1 :, j + 1 :] -= col[..., :, None] * a[..., None, j, j + 1 :]
    lead = np.sign(pivots[..., :1])
    tol = stability.PIVOT_TOL * np.abs(h).max(axis=(-2, -1))
    good = np.cumprod(pivots * lead > tol[..., None], axis=-1).sum(axis=-1)
    sign = np.where(good == d, lead[..., 0], 0).astype(int)
    return sign, np.cumprod(pivots, axis=-1), np.where(good < d, good + 1, 0)


def sylvester_cases(rng, d):
    """Positive definite, negative definite, indefinite and singular
    symmetric matrices of order d with eigenvalues of size 0.5..2, scaled by
    1e-6..1e6, and matrices of unit diagonal with every other entry below 1
    in size, which look definite on their 2 x 2 minors and of which some
    fail a Cholesky factorization only past the first pivot."""
    stack = []
    for kind in ("positive", "negative", "indefinite", "singular", "screened") * 6:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        ev = rng.uniform(0.5, 2.0, d)
        if kind == "negative":
            ev = -ev
        elif kind == "indefinite":
            ev[rng.permutation(d)[: max(1, d // 2)]] *= -1.0
        elif kind == "singular":
            ev[rng.integers(d)] = 0.0
        elif kind == "screened":
            # unit diagonal, off-diagonal entries below 1: only a pivot
            # past the first can fail
            ev[0] = -0.2
            h = (q * ev) @ q.T + 1.0
            h = h / np.sqrt(np.outer(np.diag(h), np.diag(h)))
            stack.append(10.0 ** rng.uniform(-6, 6) * h)
            continue
        stack.append(10.0 ** rng.uniform(-6, 6) * (q * ev) @ q.T)
    h = np.array(stack)
    return 0.5 * (h + h.swapaxes(-1, -2))


ORDER = stability.CHOLESKY_ORDER


class TestSylvesterPaths:
    """The order-chosen factorization against the LDL^T elimination."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, ORDER - 1, ORDER, 38])
    def test_agrees_with_the_elimination(self, d):
        h = sylvester_cases(np.random.default_rng(100 + d), d)
        res = sylvester_verdict(h)
        sign, minors, wrong_minor = ldl_verdict(h)
        np.testing.assert_array_equal(res.sign, sign)
        np.testing.assert_array_equal(res.wrong_minor, wrong_minor)
        assert np.all(np.abs(res.minors - minors) <= 1e-12 * np.abs(minors))
        kinds = set(np.sign(sign).tolist())
        assert kinds == {-1, 0, 1}

    @pytest.mark.parametrize("d", [2, 4, 6, ORDER - 1, ORDER, 38])
    def test_a_matrix_gets_the_same_bits_alone_and_in_a_stack(self, d):
        h = sylvester_cases(np.random.default_rng(200 + d), d)
        stacked = sylvester_verdict(h)
        for i, one in enumerate(h):
            for alone in (sylvester_verdict(one), sylvester_verdict(one[None])):
                assert int(np.ravel(alone.sign)[0]) == stacked.sign[i]
                assert int(np.ravel(alone.wrong_minor)[0]) == stacked.wrong_minor[i]
                assert np.array(alone.minors).tobytes() == stacked.minors[i].tobytes()
        # and in a stack of its own kind only
        for sign in (-1, 0, 1):
            rows = np.flatnonzero(stacked.sign == sign)
            part = sylvester_verdict(h[rows])
            assert part.minors.tobytes() == stacked.minors[rows].tobytes()

    @pytest.mark.parametrize("d", [2, ORDER - 1, ORDER, ORDER + 1, 38])
    def test_the_order_picks_the_factorization(self, d):
        h = sylvester_cases(np.random.default_rng(300 + d), d)
        res = sylvester_verdict(h)
        if d < ORDER:
            sign, minors, wrong_minor = ldl_verdict(h)
            np.testing.assert_array_equal(res.sign, sign)
            np.testing.assert_array_equal(res.wrong_minor, wrong_minor)
            assert res.minors.tobytes() == minors.tobytes()
            return
        definite = np.flatnonzero(res.sign != 0)
        assert len(definite) >= 12
        for i in definite:
            s = res.sign[i]
            pivots = s * np.diagonal(np.linalg.cholesky(s * h[i])) ** 2
            assert res.minors[i].tobytes() == np.cumprod(pivots).tobytes()


class TestCertificate:
    @pytest.mark.parametrize(
        "kind,gamma,verdict",
        [
            ("triangle-with-center", 0.5, Verdict.CERTIFIED_STABLE),
            ("triangle-with-center", -4.0, Verdict.CERTIFIED_STABLE),
            ("triangle-with-center", 2.0, Verdict.LINEARLY_UNSTABLE),
            ("triangle-with-center", -1.0, Verdict.INCONCLUSIVE),
            ("triangle-with-center", -3.0, Verdict.CERTIFIED_STABLE),
            ("square-with-center", 1.0, Verdict.CERTIFIED_STABLE),
            ("square-with-center", 3.0, Verdict.LINEARLY_UNSTABLE),
            ("square-with-center", -1.0, Verdict.LINEARLY_UNSTABLE),
            ("square-with-center", -0.3, Verdict.INCONCLUSIVE),
            ("square-with-center", -4.0, Verdict.LINEARLY_UNSTABLE),
            # next to the zero-total points (total circulation -+1e-6): cond(K)
            # is 4e6 and 6e6, far from 1/eps, and the closed-form K^-1 has no
            # 1/total in it
            ("triangle-with-center", -3.000001, Verdict.CERTIFIED_STABLE),
            ("square-with-center", -3.999999, Verdict.LINEARLY_UNSTABLE),
        ],
    )
    def test_verdicts(self, kind, gamma, verdict):
        mu0, circ = center_fixed_point(kind, gamma)
        res = energy_casimir_certificate(mu0, circ)
        assert res.verdict is verdict

    def test_certified_evidence_complete(self):
        mu0, circ = center_fixed_point("triangle-with-center", 0.5)
        res = energy_casimir_certificate(mu0, circ)
        assert res.multipliers is not None
        assert res.minors is not None and all(m > 0 for m in res.minors)
        assert res.restricted_hessian is not None
        assert max(ev.real for ev in res.spectrum) < 1e-8

    def test_unstable_skips_certificate(self):
        mu0, circ = center_fixed_point("square-with-center", 3.0)
        res = energy_casimir_certificate(mu0, circ)
        assert res.multipliers is None and res.minors is None
        assert "Re lambda" in res.reason

    def test_negative_definite_point_is_certified_with_negative_a0(self):
        # a0 = +1 gives a negative definite H here; its negation certifies
        mu0, circ = center_fixed_point("triangle-with-center", -4.0)
        h = restricted_hessian(
            mu0, circ, solve_multiplier_system(mu0, circ), tangent_basis(mu0, circ)
        )
        assert sylvester_verdict(h).sign == -1
        res = energy_casimir_certificate(mu0, circ)
        assert res.verdict is Verdict.CERTIFIED_STABLE and res.multipliers.a0 == -1.0
        np.testing.assert_array_equal(res.restricted_hessian, -h)
        assert all(m > 0 for m in res.minors)

    def test_not_definite_reason_names_the_first_wrong_minor(self):
        mu0, circ = center_fixed_point("triangle-with-center", -1.0)
        res = energy_casimir_certificate(mu0, circ)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert res.reason == "restricted Hessian not definite: leading minor 2 of 4 has the wrong sign"

    def test_infeasible_reason_is_one_residual(self, monkeypatch):
        monkeypatch.setattr(stability, "MULTIPLIER_TOL", 0.0)
        mu0, circ = center_fixed_point("triangle-with-center", 0.5)
        res = energy_casimir_certificate(mu0, circ)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert re.fullmatch(r"no critical point: residual \d\.\d{3}e[+-]\d\d", res.reason)

    def test_rejects_non_fixed_point(self):
        mu = unflatten(np.array([1.3, 1.0, 0.5, -np.sqrt(3) / 2]), 2)
        with pytest.raises(NotAFixedPoint):
            energy_casimir_certificate(mu, Circulations((1.0, 1.0, 1.0)))

    def test_verdict_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(77)
        for kind, g in [("triangle-with-center", 0.5), ("square-with-center", 2.0)]:
            mu0, circ = center_fixed_point(kind, g)
            m = solve_multiplier_system(mu0, circ, a0=1.0)
            basis = tangent_basis(mu0, circ)
            q, _ = np.linalg.qr(rng.standard_normal((basis.shape[0],) * 2))
            rotated = q @ basis
            v1 = sylvester_verdict(restricted_hessian(mu0, circ, m, basis))
            v2 = sylvester_verdict(restricted_hessian(mu0, circ, m, rotated))
            assert v1.sign == v2.sign

    def test_equilateral_three_vortex_criterion(self):
        # sign of G1G2 + G1G3 + G2G3 decides the verdict
        for gammas, verdict in [
            ((1.0, 1.0, 1.0), Verdict.CERTIFIED_STABLE),
            ((1.0, 1.0, -0.4), Verdict.CERTIFIED_STABLE),
            ((1.0, 1.0, -0.6), Verdict.LINEARLY_UNSTABLE),
        ]:
            circ = Circulations(gammas)
            g = np.array(gammas)
            s2 = g[0] * g[1] + g[0] * g[2] + g[1] * g[2]
            res = energy_casimir_certificate(EQUILATERAL3_MU0, circ)
            assert res.verdict is verdict, (gammas, s2, res.reason)


# certified points, and scalings of positions and circulations that only
# change the units of length and time
SCALE_FREE_POINTS = [
    ("square-with-center", 1.0, None),
    ("triangle-with-center", -4.0, None),
    ("polygon-with-center", 20.0, 20),
]
SCALINGS = [
    (10.0, 1.0),
    (1e3, 1.0),
    (1e-3, 1.0),
    (1e-6, 1.0),
    (1e-8, 1.0),
    (1.0, 1e4),
    (1.0, 1e-4),
    (10.0, 1e-2),
    (1e-3, 1e4),
]


class TestScaleFree:
    @pytest.mark.parametrize("kind,gamma,m", SCALE_FREE_POINTS)
    @pytest.mark.parametrize("pos_scale,circ_scale", SCALINGS)
    def test_scaled_copies_stay_certified(self, kind, gamma, m, pos_scale, circ_scale):
        base = build_scenario(kind, gamma=gamma, m=m)
        scen = build_scenario(
            "custom",
            positions=tuple(pos_scale * p for p in base.positions),
            circulations=tuple(circ_scale * g for g in base.circ.gammas),
        )
        rep = analyze(scen)
        assert rep.verdict == "certified-stable", rep.reason


# the scale-free points and one linearly unstable and one inconclusive point
SYMMETRY_POINTS = [
    (kind, gamma, m, "certified-stable") for kind, gamma, m in SCALE_FREE_POINTS
] + [
    ("square-with-center", 2.5, None, "linearly-unstable"),
    ("triangle-with-center", -2.0, None, "inconclusive"),
]


def permuted_labels(z, g):
    order = np.random.default_rng(5).permutation(len(z))
    return z[order], g[order]


# maps of (positions, circulations) that leave the dynamics unchanged
SYMMETRIES = {
    "rotation": lambda z, g: (np.exp(0.7j) * z, g),
    "translation": lambda z, g: (z + (3.0 - 2.0j), g),
    "sign flip": lambda z, g: (z, -g),
    "reversed labels": lambda z, g: (z[::-1], g[::-1]),
    "permuted labels": permuted_labels,
}


class TestSymmetry:
    @pytest.mark.parametrize("kind,gamma,m,verdict", SYMMETRY_POINTS)
    @pytest.mark.parametrize("symmetry", SYMMETRIES)
    def test_verdict_is_invariant(self, kind, gamma, m, verdict, symmetry):
        base = build_scenario(kind, gamma=gamma, m=m)
        assert analyze(base).verdict == verdict
        z, g = SYMMETRIES[symmetry](np.array(base.positions), np.array(base.circ.gammas))
        scen = build_scenario("custom", positions=tuple(z), circulations=tuple(g))
        rep = analyze(scen)
        assert rep.verdict == verdict, rep.reason


def dense_constraint_hessians(n):
    """Hessian of each real constraint component, assembled densely from outer
    products of the linear forms of the entries of M = -i mu."""
    ell = np.einsum("mab->abm", coordinate_basis(n))

    def quadratic(i, j):
        c1, c2, c3, c4 = ell[i, j], ell[i + 1, j + 1], ell[i, j + 1], ell[i + 1, j]
        return np.outer(c1, c2) + np.outer(c2, c1) - np.outer(c3, c4) - np.outer(c4, c3)

    out = [quadratic(i, i).real for i in range(n - 1)]
    for i, j in pair_indices(n - 1):
        h = quadratic(i, j)
        out += [h.real, h.imag]
    return out


# n = 2..5, both circulation regimes
LOCAL_MODEL_CASES = [
    ("equilateral3", None, None),
    ("triangle-with-center", -3.0, None),
    ("triangle-with-center", 0.5, None),
    ("square-with-center", -4.0, None),
    ("square-with-center", 1.0, None),
    ("polygon-with-center", 1.0, 5),
    # linearly unstable: the multipliers exist all the same
    ("triangle-with-center", 2.0, None),
]


class TestLocalModel:
    @pytest.mark.parametrize("kind,gamma,m", LOCAL_MODEL_CASES)
    def test_factored_restricted_hessian_matches_dense(self, kind, gamma, m):
        scen = build_scenario(kind, gamma=gamma, m=m)
        mu0, circ = scenario_fixed_point(scen), scen.circ
        n = circ.n
        u0 = flatten(mu0)
        k = build_coupling_matrix(circ)
        stack = np.vstack([casimir_gradient(mu0, k, 1), constraint_jacobian(mu0)])
        basis = tangent_basis(mu0, circ)
        # random tangent bases Q B, with Q orthogonal and with Q a general mix
        rng = np.random.default_rng(n)
        d = len(basis)
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        bases = [basis, rotation @ basis, rng.standard_normal((d, d)) @ basis]
        for a0 in (1.0, -1.0):
            mult = solve_multiplier_system(mu0, circ, a0=a0)
            w = np.concatenate([mult.a, mult.constraint_coefficients])
            rhs = -a0 * FOUR_PI * reduced_system(circ).gradient(u0)
            expected_w, *_ = np.linalg.lstsq(stack.T, rhs, rcond=None)
            assert np.abs(w - expected_w).max() <= 1e-12 * np.abs(expected_w).max()

            # C_1 is linear: the energy and the constraints make the Hessian
            h_dense = a0 * FOUR_PI * reduced_system(circ).hessian(u0)
            for coeff, h in zip(mult.constraint_coefficients, dense_constraint_hessians(n)):
                h_dense = h_dense + coeff * h
            for b in bases:
                expected = b @ h_dense @ b.T
                expected = 0.5 * (expected + expected.T)
                got = restricted_hessian(mu0, circ, mult, b)
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_views_share_one_model(self):
        mu0, circ = center_fixed_point("square-with-center", 1.0)
        model = local_model(mu0, circ)
        assert local_model(model, circ) is model
        # one point is a stack of one: the views are its first slice
        basis = tangent_basis(model, circ)
        assert np.shares_memory(basis, model.basis) and basis.shape == model.basis.shape[1:]
        assert independence_check(model, circ).rank == model.rank[0]

    @pytest.mark.parametrize(
        "kind,gamma",
        [
            ("square-with-center", 1.0),
            ("triangle-with-center", 2.0),
            ("triangle-with-center", -3.0 - 1e-9),
        ],
        ids=["independent", "unstable", "dependent"],
    )
    def test_a_certificate_builds_one_stack(self, kind, gamma, monkeypatch):
        # the fixed-point check and the linearization take the certificate's
        # stack, whether or not its differentials are independent
        built = []
        init = ReducedHamiltonian.__init__

        def counted(self, circ):
            built.append(len(circ))
            init(self, circ)

        monkeypatch.setattr(ReducedHamiltonian, "__init__", counted)
        mu0, circ = center_fixed_point(kind, gamma)
        energy_casimir_certificate(mu0, circ)
        assert built == [1]

    def test_a_certificate_evaluates_each_check_once(self, monkeypatch):
        # the open set and the multipliers' feasibility are evaluated once per
        # stack, and neither the certificate nor its narrowed models check a
        # MuMatrix again
        counts = {"in_open_set": 0, "feasibility": 0, "mu_check": 0}
        in_open_set = stability.in_open_set

        def counted(mu):
            counts["in_open_set"] += 1
            return in_open_set(mu)

        class CountedTol(float):
            def __mul__(self, other):
                counts["feasibility"] += 1
                return float(self) * other

        check = MuMatrix.__post_init__

        def counted_check(self):
            counts["mu_check"] += 1
            check(self)

        from vortexstab import localmodel

        monkeypatch.setattr(localmodel, "in_open_set", counted)
        monkeypatch.setattr(stability, "in_open_set", counted)
        monkeypatch.setattr(stability, "MULTIPLIER_TOL", CountedTol(stability.MULTIPLIER_TOL))
        # certified, inconclusive and unstable points of one stack
        points = [center_fixed_point("triangle-with-center", g) for g in (0.5, -1.0, 2.0, 0.7)]
        mu0 = MuMatrix(np.stack([p[0].entries for p in points]))
        monkeypatch.setattr(MuMatrix, "__post_init__", counted_check)
        results = energy_casimir_certificate(mu0, [p[1] for p in points])
        assert [r.verdict.value for r in results] == [
            "certified-stable", "inconclusive", "linearly-unstable", "certified-stable"
        ]
        assert counts == {"in_open_set": 1, "feasibility": 1, "mu_check": 0}

    def test_large_certificate_memory(self):
        # no array holds the Casimir rows next to the constraint Jacobian
        # (1.2 MB at m = 20), and a linearly unstable point never reads it
        import tracemalloc

        cases = ((20, "certified-stable", 2.75), (30, "linearly-unstable", 10))
        for m, verdict, megabytes in cases:
            scen = build_scenario("polygon-with-center", gamma=20.0, m=m)
            tracemalloc.start()
            try:
                rep = analyze(scen)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.verdict == verdict
            assert peak < megabytes * 2**20, m


class TestDynamicalCorroboration:
    def test_stable_point_stays_close(self):
        scen = build_scenario("triangle-with-center", gamma=0.5)
        mu0 = scenario_fixed_point(scen)
        z = relative_coordinates(scen.configuration).as_array()
        rng = np.random.default_rng(88)
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = z + 1e-4 * noise / np.linalg.norm(noise)
        u0 = flatten(moment_map(type(relative_coordinates(scen.configuration))(tuple(z))))
        traj = integrate(u0, scen.circ, t_end=20.0, dt=5e-3)
        assert not traj.aborted
        dev = np.abs(traj.states - flatten(mu0)).max()
        assert dev < 1e-2

    def test_unstable_point_grows_at_predicted_rate(self):
        scen = build_scenario("triangle-with-center", gamma=2.0)
        mu0 = scenario_fixed_point(scen)
        circ = scen.circ
        ev = spectrum(linearize(mu0, circ))
        lam = float(ev.real.max())
        assert lam > 1e-3
        z = relative_coordinates(scen.configuration).as_array()
        rng = np.random.default_rng(89)
        noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = z + 1e-6 * noise / np.linalg.norm(noise)
        u0 = flatten(moment_map(type(relative_coordinates(scen.configuration))(tuple(z))))
        traj = integrate(u0, circ, t_end=60.0, dt=5e-3)
        dev = np.abs(traj.states - flatten(mu0)).max(axis=1)
        # compare growth over the linear regime against e^{lam t}
        i0 = np.argmax(dev > 1e-5)
        i1 = np.argmax(dev > 1e-3)
        assert i1 > i0 > 0
        t_obs = traj.times[i1] - traj.times[i0]
        t_pred = np.log(dev[i1] / dev[i0]) / lam
        assert t_obs / t_pred < 3.0 and t_pred / t_obs < 3.0
