import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexstab.algebra import (
    Circulations,
    MuMatrix,
    Regime,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    flatten_stack,
    lie_bracket,
    pair_indices,
    pairing,
    unflatten,
    unflatten_stack,
)
from vortexstab.errors import DimensionMismatch, SingularCoupling

EPS = np.finfo(float).eps


def random_skew_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MuMatrix(0.5 * (a - a.conj().T))


def random_circulations(rng, size, zero_total, count):
    """``count`` random circulation sets of ``size`` vortices in one regime."""
    sets = []
    while len(sets) < count:
        g = rng.uniform(0.2, 2.0, size) * rng.choice([-1.0, 1.0], size)
        if zero_total:
            g[-1] = -g[:-1].sum()
        elif abs(g.sum()) < 0.1:
            continue
        sets.append(Circulations(tuple(g)))
    assert {c.regime for c in sets} == {Regime.ZERO_TOTAL if zero_total else Regime.NON_ZERO_TOTAL}
    return sets


def circulations_with_total(rng, size, ratio, count):
    """``count`` random sets of ``size`` vortices whose total circulation is
    about ``ratio`` times the largest of the first size - 1."""
    sets = []
    while len(sets) < count:
        g = rng.uniform(0.2, 2.0, size) * rng.choice([-1.0, 1.0], size)
        g[-1] = ratio * np.abs(g[:-1]).max() - g[:-1].sum()
        if abs(g[-1]) >= 0.2:
            sets.append(Circulations(tuple(g)))
    return sets


def exact_inverse(circ):
    """K^-1 of the circulations' exact binary values: K in rational
    arithmetic, inverted by Gauss-Jordan elimination, each entry rounded once."""
    g = [Fraction(x) for x in circ.gammas]
    if circ.regime is Regime.NON_ZERO_TOTAL:
        gn, total = g[:-1], sum(g)
        k = [
            [a * b / total - (a if i == j else 0) for j, b in enumerate(gn)]
            for i, a in enumerate(gn)
        ]
    else:
        gn, last = g[:-2], g[-1]
        k = [
            [-(a * b + (a * last if i == j else 0)) / last for j, b in enumerate(gn)]
            for i, a in enumerate(gn)
        ]
    n = len(k)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(k)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return np.array([[float(x) for x in row[n:]] for row in rows])


class TestCirculations:
    def test_regime_detection(self):
        assert Circulations((1.0, 1.0, 1.0)).regime is Regime.NON_ZERO_TOTAL
        assert Circulations((1.0, 1.0, 1.0, -3.0)).regime is Regime.ZERO_TOTAL

    def test_reduced_dimension(self):
        # n = N-1 generically, N-2 when the total circulation vanishes
        assert Circulations((1.0, 2.0, 3.0)).n == 2
        assert Circulations((1.0, 1.0, -2.0)).n == 1
        assert Circulations((1.0, 1.0, 1.0, 1.0, -4.0)).n == 3

    def test_rejects_zero_circulation(self):
        with pytest.raises(ValueError):
            Circulations((1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_circulation(self, bad):
        # an infinite one would read as zero total, a NaN as a singular K
        with pytest.raises(ValueError, match="finite"):
            Circulations((1.0, bad, 1.0))

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            Circulations((1.0, -1.0))


class TestCouplingMatrix:
    def test_equal_circulations_fixture(self):
        # K for three unit circulations: -2/3 diagonal, 1/3 off-diagonal
        k = build_coupling_matrix(Circulations((1.0, 1.0, 1.0)))
        expected = np.array([[-2.0, 1.0], [1.0, -2.0]]) / 3.0
        np.testing.assert_allclose(k.k, expected, atol=1e-14)

    def test_mixed_sign_fixture(self):
        k = build_coupling_matrix(Circulations((1.0, -1.0, 1.0)))
        expected = np.array([[0.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_allclose(k.k, expected, atol=1e-14)

    def test_zero_total_matches_limit(self):
        # the zero-total coupling for (1,1,1,-3) coincides with the
        # three-vortex matrix for (1,1,1)
        k0 = build_coupling_matrix(Circulations((1.0, 1.0, 1.0, -3.0)))
        k = build_coupling_matrix(Circulations((1.0, 1.0, 1.0)))
        np.testing.assert_allclose(k0.k, k.k, atol=1e-14)

    def test_inverse_consistency(self):
        # ||K K^-1 - I|| is a few cond(K) eps (infinity norms) at any total
        # circulation, K's entries having grown as 1/total
        rng = np.random.default_rng(0)
        gammas = rng.uniform(0.2, 2.0, (20, 4)) * rng.choice([-1.0, 1.0], (20, 4))
        sets = [Circulations(tuple(g)) for g in gammas]
        for ratio in (1e-3, 1e-6, 1e-9, 1e-11, 0.0):
            sets += circulations_with_total(rng, 4, ratio, 5)
        for circ in sets:
            k = build_coupling_matrix(circ)
            residual = k.k @ k.k_inv - np.eye(circ.n)
            norm = [np.abs(a).sum(axis=-1).max() for a in (k.k, k.k_inv, residual)]
            assert norm[2] <= 4 * EPS * norm[0] * norm[1]

    @pytest.mark.parametrize("ratio", [None, 1e-6, 1e-9, 1e-11, 5e-13, 0.0, -5e-13])
    def test_inverse_matches_an_exact_rational_inverse(self, ratio):
        # ratio = |total| / max|G_i|: random sets, near-zero totals, and the
        # zero-total regime (ratio <= 1e-12) with and without an exact zero
        rng = np.random.default_rng(12)
        for size in (3, 4, 5, 6):
            if ratio is None:
                sets = random_circulations(rng, size, False, 3)
            else:
                sets = circulations_with_total(rng, size, ratio, 3)
                regime = Regime.ZERO_TOTAL if abs(ratio) <= 1e-12 else Regime.NON_ZERO_TOTAL
                assert {c.regime for c in sets} == {regime}
            for circ in sets:
                exact = exact_inverse(circ)
                error = np.abs(build_coupling_matrix(circ).k_inv - exact).max()
                assert error <= 3 * EPS * np.abs(exact).max()

    @pytest.mark.parametrize("gammas", [(1.0, 2.0, 3e-16), (1.0, 1.0, -3e-16)])
    def test_singular_to_working_precision(self, gammas):
        # K^-1 = -diag(1/G_i) - 1 1^T / G_N: cond(K) eps is 1.974 and 1.480
        with pytest.raises(SingularCoupling, match="working precision"):
            build_coupling_matrix(Circulations(gammas))

    @pytest.mark.parametrize("gammas", [(1e-320, 1.0, -1e-320), (1.0, 1.0, 1e-320, -2.0)])
    def test_an_overflowing_inverse_is_singular(self, gammas):
        # 1/G overflows: inf - inf on K^-1's diagonal, and a zero denominator
        # in the zero-total regime
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularCoupling, match="working precision"):
                build_coupling_matrix(Circulations(gammas))

    @pytest.mark.parametrize("gamma", [-3.0, 0.5], ids=["zero-total", "nonzero-total"])
    def test_stack_equals_one_point_calls(self, gamma):
        # triangle with center at gamma heads a stack of random sets of N = 4
        # in its regime; then random stacks of N = 3, 5 and 6
        rng = np.random.default_rng(11)
        zero_total = gamma == -3.0
        triangle = Circulations((1.0, 1.0, 1.0, gamma))
        stacks = [[triangle] + random_circulations(rng, 4, zero_total, 7)]
        stacks += [random_circulations(rng, size, zero_total, 5) for size in (3, 5, 6)]
        for circs in stacks:
            stack = build_coupling_matrix(circs)
            assert stack.k.shape == (len(circs), circs[0].n, circs[0].n)
            assert not (stack.k.flags.writeable or stack.k_inv.flags.writeable)
            for i, circ in enumerate(circs):
                one = build_coupling_matrix(circ)
                np.testing.assert_array_equal(stack.k[i], one.k)
                np.testing.assert_array_equal(stack.k_inv[i], one.k_inv)

    def test_stack_names_its_singular_member(self):
        singular = Circulations((1.0, 1.0, 1.0, 1e-17))
        with pytest.raises(SingularCoupling):
            build_coupling_matrix(singular)
        circs = [Circulations((1.0, 1.0, 1.0, 0.5)), singular, Circulations((1.0, 1.0, 1.0, 2.0))]
        with pytest.raises(SingularCoupling) as exc:
            build_coupling_matrix(circs)
        assert exc.value.sample == 1

    @pytest.mark.parametrize(
        "gammas",
        [[(1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 1.0, -3.0)], [(1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 1.0)]],
        ids=["regime", "N"],
    )
    def test_stack_members_must_share_n_and_regime(self, gammas):
        with pytest.raises(DimensionMismatch):
            build_coupling_matrix([Circulations(g) for g in gammas])

    def test_determinant_identity_three_vortices(self):
        # det K = G1*G2*G3 / (G1+G2+G3), hence K is invertible whenever the
        # circulations are admissible
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.uniform(0.2, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
            if abs(g.sum()) < 0.1:
                continue
            k = build_coupling_matrix(Circulations(tuple(g)))
            assert np.linalg.det(k.k) == pytest.approx(g.prod() / g.sum(), rel=1e-12)


class TestFlatten:
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, seed):
        mu = random_skew_hermitian(np.random.default_rng(seed), n)
        again = unflatten(flatten(mu), n)
        np.testing.assert_array_equal(again.entries, mu.entries)

    def test_flatten_is_linear_copy(self):
        # coordinates are read straight out of the matrix, no arithmetic
        mu = unflatten(np.arange(1.0, 10.0), 3)
        u = flatten(mu)
        np.testing.assert_array_equal(u, np.arange(1.0, 10.0))

    def test_stacked_helpers_match_single_matrices(self):
        rng = np.random.default_rng(4)
        n = 4
        v = rng.standard_normal((3, 2, n * n))
        e = unflatten_stack(v, n)
        assert e.shape == (3, 2, n, n)
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(e[idx], unflatten(v[idx], n).entries)
        np.testing.assert_array_equal(flatten_stack(e), v)

    def test_pair_ordering_row_major(self):
        assert pair_indices(3) == ((0, 1), (0, 2), (1, 2))
        assert pair_indices(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_coordinate_basis_reconstructs(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            u = rng.standard_normal(n * n)
            m = np.einsum("m,mab->ab", u, coordinate_basis(n))
            np.testing.assert_allclose(m, -1j * unflatten(u, n).entries, atol=1e-14)


class TestPairingAndBracket:
    def test_pairing_recovers_coordinates(self):
        # <E_m-dual, mu> agrees with the flattened coordinate vector
        rng = np.random.default_rng(5)
        mu = random_skew_hermitian(rng, 3)
        nu = random_skew_hermitian(rng, 3)
        lhs = pairing(mu, nu)
        assert lhs == pytest.approx(0.5 * np.trace(mu.entries.conj().T @ nu.entries).real)

    def test_bracket_antisymmetry(self):
        rng = np.random.default_rng(6)
        k = build_coupling_matrix(Circulations((1.0, 2.0, -0.5, 0.7)))
        x, y = random_skew_hermitian(rng, 3), random_skew_hermitian(rng, 3)
        np.testing.assert_allclose(
            lie_bracket(x, y, k).entries, -lie_bracket(y, x, k).entries, atol=1e-12
        )

    def test_bracket_jacobi_identity(self):
        rng = np.random.default_rng(7)
        k = build_coupling_matrix(Circulations((1.0, 2.0, -0.5, 0.7)))
        x, y, z = (random_skew_hermitian(rng, 3) for _ in range(3))
        total = (
            lie_bracket(x, lie_bracket(y, z, k), k).entries
            + lie_bracket(y, lie_bracket(z, x, k), k).entries
            + lie_bracket(z, lie_bracket(x, y, k), k).entries
        )
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_bracket_closes_in_algebra(self):
        rng = np.random.default_rng(8)
        k = build_coupling_matrix(Circulations((1.0, -2.0, 0.5, 0.7)))
        x, y = random_skew_hermitian(rng, 3), random_skew_hermitian(rng, 3)
        b = lie_bracket(x, y, k).entries
        np.testing.assert_allclose(b, -b.conj().T, atol=1e-12)
