import numpy as np
import pytest

from vortexstab.algebra import (
    Circulations,
    CouplingMatrix,
    MuMatrix,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    pair_indices,
    unflatten,
)
from vortexstab.constraints import (
    casimir,
    casimir_gradient,
    casimir_values,
    constraint_jacobian,
    constraint_residuals,
    constraint_system,
    in_open_set,
    scenario_casimir_c1,
    submersion_rank_check,
)
from vortexstab.dynamics import Which, integrate
from vortexstab.errors import DimensionMismatch, NotInOpenSet


def rank_one_mu(rng, n):
    z = rng.uniform(0.3, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return MuMatrix(1j * np.outer(z, z.conj()))


def random_mu(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MuMatrix(0.5 * (a - a.conj().T))


def running_product_casimirs(mus, k, js):
    """tr((i K mu)^j) for each j in js, from one running product of the
    powers of i K mu, one matmul per power; over a stack of matrices."""
    b = 1j * k @ mus
    p = np.eye(mus.shape[-1], dtype=complex)
    traces = []
    for _ in range(max(js)):
        p = p @ b
        traces.append(np.trace(p, axis1=-2, axis2=-1).real)
    return np.stack([traces[j - 1] for j in js], axis=-1)


class TestCasimirs:
    def test_linear_casimir_closed_form(self):
        # C1 = tr(iK mu) expands to a known linear form for three vortices
        g = np.array([1.0, 2.0, -0.5])
        circ = Circulations(tuple(g))
        k = build_coupling_matrix(circ)
        rng = np.random.default_rng(1)
        mu = random_mu(rng, 2)
        u = flatten(mu)
        total = g.sum()
        expected = (
            g[0] * (g[1] + g[2]) * u[0] + g[1] * (g[0] + g[2]) * u[1] - 2 * g[0] * g[1] * u[2]
        ) / total
        assert casimir(mu, k, 1) == pytest.approx(expected, rel=1e-12)

    def test_casimirs_conserved_along_flow(self):
        rng = np.random.default_rng(2)
        circ = Circulations((1.0, 0.7, -0.4, 1.3))
        k = build_coupling_matrix(circ)
        mu0 = rank_one_mu(rng, 3)
        traj = integrate(flatten(mu0), circ, t_end=2.0, dt=1e-3, which=Which.REDUCED)
        assert not traj.aborted
        drift = np.abs(traj.casimirs - traj.casimirs[0]).max()
        assert drift < 1e-9

    def test_printed_three_vortex_form_is_not_conserved(self):
        # the commonly quoted linear invariant for three unequal vortices has
        # its first two coefficients swapped; the swapped form visibly drifts
        # along the flow while tr(iK mu) stays flat
        rng = np.random.default_rng(3)
        circ = Circulations((1.0, 2.0, -0.5))
        k = build_coupling_matrix(circ)
        mu0 = rank_one_mu(rng, 2)
        traj = integrate(flatten(mu0), circ, t_end=2.0, dt=1e-3, which=Which.REDUCED)
        swapped = [
            scenario_casimir_c1(unflatten(u, 2), circ) for u in traj.states[:: len(traj) // 20]
        ]
        canonical = [
            casimir(unflatten(u, 2), k, 1) for u in traj.states[:: len(traj) // 20]
        ]
        assert np.ptp(canonical) < 1e-10
        assert np.ptp(swapped) > 1e-3

    def test_printed_center_scenario_forms_are_canonical(self):
        # for the polygon-with-center scenarios the printed linear invariant
        # agrees with tr(iK mu)
        rng = np.random.default_rng(4)
        for gammas in [(1.0, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, -3.0), (1.0, 1.0, 1.0, 1.0, 0.5)]:
            circ = Circulations(gammas)
            k = build_coupling_matrix(circ)
            mu = random_mu(rng, circ.n)
            assert scenario_casimir_c1(mu, circ) == pytest.approx(
                casimir(mu, k, 1), rel=1e-12
            )

    def test_casimir_values_batch(self):
        rng = np.random.default_rng(5)
        circ = Circulations((1.0, -0.3, 0.8, 1.1))
        k = build_coupling_matrix(circ)
        mu = random_mu(rng, 3)
        batch = casimir_values(mu, k, [1, 2, 3])
        singles = [casimir(mu, k, j) for j in (1, 2, 3)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_higher_casimirs_are_powers_of_the_first_on_rank_one(self, n):
        # tr((iK mu)^j) = tr((-K z z^*)^j) = (-z^* K z)^j at mu = i z z^*, so
        # at most one C_j adds to the differentials of the rank-one stratum.
        # The gap is judged against the size of the terms, (|z|^T |K| |z|)^j:
        # -z^* K z cancels down to 1e-3 of it at some of these points.
        rng = np.random.default_rng(20 + n)
        order = np.arange(1, n + 1)
        for _ in range(20):
            g = rng.uniform(0.3, 1.5, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            if abs(g.sum()) < 0.2:
                continue
            k = build_coupling_matrix(Circulations(tuple(g)))
            z = rng.uniform(0.3, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            c = casimir_values(MuMatrix(1j * np.outer(z, z.conj())), k, order)
            size = (np.abs(z) @ np.abs(k.k) @ np.abs(z)) ** order
            assert np.all(np.abs(c - c[0] ** order) <= 1e-12 * size), (g, c - c[0] ** order)

    @pytest.mark.parametrize(
        "n,zero_total", [(n, z) for n in range(1, 7) for z in (False, True) if n > 1 or z]
    )
    def test_pairing_matches_a_running_product(self, n, zero_total):
        # tr(B^j) from the powers up to ceil(j / 2) against one matmul per
        # power, for j = 1..2n+1 in a scrambled order, at seven rank-one
        # points: one at a time, as a stack with one K, and as a stack with
        # one K per point; judged against the size of the terms, as above
        rng = np.random.default_rng(30 + 2 * n + zero_total)
        while True:
            g = rng.uniform(0.3, 1.5, n + 2) * rng.choice([-1.0, 1.0], n + 2)
            if zero_total:
                g[-1] = -g[:-1].sum()
                if abs(g[-1]) >= 0.2:
                    break
            elif abs(g[:-1].sum()) >= 0.2:
                g = g[:-1]
                break
        circ = Circulations(tuple(g))
        assert circ.n == n
        k = build_coupling_matrix(circ)
        z = rng.uniform(0.3, 1.5, (7, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, (7, n)))
        mus = 1j * z[:, :, None] * z[:, None, :].conj()
        js = [2 * n + 1, 1] + list(range(2, 2 * n + 1))[::-1]
        size = (np.einsum("si,ij,sj->s", np.abs(z), np.abs(k.k), np.abs(z))[:, None]) ** js
        expected = running_product_casimirs(mus, k.k, js)
        singles = np.array([casimir_values(MuMatrix(m), k, js) for m in mus])
        stacked = casimir_values(MuMatrix(mus), k, js)
        per_point = casimir_values(MuMatrix(mus), build_coupling_matrix([circ] * 7), js)
        for got in (singles, stacked, per_point):
            assert got.shape == (7, len(js))
            assert np.all(np.abs(got - expected) <= 1e-12 * size), np.abs(got - expected) / size

    def test_casimir_values_rejects_wrong_coupling_size(self):
        k = build_coupling_matrix(Circulations((1.0, -0.3, 0.8, 1.1)))
        with pytest.raises(DimensionMismatch):
            casimir_values(random_mu(np.random.default_rng(8), 2), k, [1])

    def test_casimir_values_rejects_empty_indices(self):
        k = build_coupling_matrix(Circulations((1.0, -0.3, 0.8, 1.1)))
        with pytest.raises(ValueError, match="Casimir indices"):
            casimir_values(random_mu(np.random.default_rng(8), 3), k, [])

    def test_casimir_values_rejects_index_below_one(self):
        k = build_coupling_matrix(Circulations((1.0, -0.3, 0.8, 1.1)))
        with pytest.raises(ValueError, match="Casimir indices"):
            casimir_values(random_mu(np.random.default_rng(8), 3), k, [0])

    def test_gradient_matches_differences(self):
        rng = np.random.default_rng(6)
        circ = Circulations((1.0, -0.3, 0.8, 1.1))
        k = build_coupling_matrix(circ)
        mu = random_mu(rng, 3)
        u = flatten(mu)
        for j in (1, 2, 3):
            grad = casimir_gradient(mu, k, j)
            eps = 1e-6
            for i in range(9):
                d = np.zeros(9)
                d[i] = eps
                fd = (
                    casimir(unflatten(u + d, 3), k, j) - casimir(unflatten(u - d, 3), k, j)
                ) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_stacked_gradient_is_a_stack_of_single_gradients(self):
        # the certificate takes dC_1 of a whole sweep stack at once, with one
        # K per point
        rng = np.random.default_rng(9)
        for gammas in ((1.0, -0.3, 0.8, 1.1), (1.0, 2.0, 0.5, -1.2, 0.7)):
            circs = [Circulations(tuple(g * s for g in gammas)) for s in (1.0, 0.7, 1.6)]
            n = circs[0].n
            mus = [random_mu(rng, n) for _ in circs]
            ks = [build_coupling_matrix(c) for c in circs]
            stack = MuMatrix(np.stack([mu.entries for mu in mus]))
            k = CouplingMatrix(k=np.stack([c.k for c in ks]), k_inv=np.stack([c.k_inv for c in ks]))
            for j in (1, 2, 3):
                got = casimir_gradient(stack, k, j)
                assert got.shape == (len(circs), n * n)
                for i, (mu, ki) in enumerate(zip(mus, ks)):
                    single = casimir_gradient(mu, ki, j)
                    tol = 1e-13 * max(1.0, np.abs(single).max())
                    assert np.abs(got[i] - single).max() <= tol

    def test_linear_casimir_has_a_constant_gradient(self):
        # C1 is linear, so its Hessian is zero and it adds nothing to the
        # certificate's restricted Hessian
        rng = np.random.default_rng(8)
        circ = Circulations((1.0, 2.0, 3.0, -0.5))
        k = build_coupling_matrix(circ)
        first = casimir_gradient(random_mu(rng, 3), k, 1)
        for _ in range(3):
            np.testing.assert_array_equal(casimir_gradient(random_mu(rng, 3), k, 1), first)


class TestConstraints:
    def test_vanish_exactly_on_rank_one(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4, 5):
            mu = rank_one_mu(rng, n)
            res = constraint_residuals(mu)
            assert res.shape == ((n - 1) ** 2,)
            assert np.abs(res).max(initial=0.0) < 1e-12

    def test_nonzero_off_cone(self):
        rng = np.random.default_rng(11)
        mu = random_mu(rng, 3)
        assert np.abs(constraint_residuals(mu)).max() > 1e-3

    def test_component_count_and_labels(self):
        sys3 = constraint_system(3)
        assert tuple(sys3.labels) == ("R1", "R2", "ReR12", "ImR12")
        sys4 = constraint_system(4)
        assert len(sys4.labels) == 9
        assert tuple(sys4.labels[:3]) == ("R1", "R2", "R3")

    def test_hessians_are_the_stored_forms(self):
        # the factored Hessians are one stored, read-only array returned as
        # is: the row-major index of the entry of M = -i mu each factor reads
        sys = constraint_system(4)
        entries = sys.hessians()
        assert entries is sys.hessians() and not entries.flags.writeable
        assert entries.shape == (4, 6) and entries.dtype.kind == "i"
        assert entries.min() >= 0 and entries.max() < 16

    def test_jacobian_constant_hessians(self):
        # every component is quadratic, so its Hessian is state-independent
        rng = np.random.default_rng(12)
        sys = constraint_system(3)
        e1, e2, e3, e4 = sys.hessians()
        u, v = rng.standard_normal(9), rng.standard_normal(9)
        m_u, m_v = (unflatten(w, 3).hermitian_part.ravel() for w in (u, v))
        # u^T H v of each complex component from its factored Hessian
        bilinear = (
            m_u[e1] * m_v[e2] + m_u[e2] * m_v[e1] - m_u[e3] * m_v[e4] - m_u[e4] * m_v[e3]
        )
        # real components: R_1, R_2 (real parts), then Re R_12 and Im R_12
        expected = [bilinear[0].real, bilinear[1].real, bilinear[2].real, bilinear[2].imag]
        assert len(expected) == sys.size
        for comp, uhv in enumerate(expected):
            # quadratic identity: r(u+v) - r(u) - r(v) + r(0) = u^T Hc v
            lhs = (
                sys.values(u + v)[comp]
                - sys.values(u)[comp]
                - sys.values(v)[comp]
                + sys.values(np.zeros(9))[comp]
            )
            assert lhs == pytest.approx(uhv, rel=1e-10, abs=1e-12)
            # and the Jacobian is linear in u with the same Hessian
            assert sys.jacobian(u)[comp] @ v == pytest.approx(uhv, rel=1e-10, abs=1e-12)

    def test_submersion_at_random_rank_one_points(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            for _ in range(20):
                mu = rank_one_mu(rng, n)
                if not in_open_set(mu):
                    continue
                rc = submersion_rank_check(mu)
                assert rc.rank == (n - 1) ** 2
                assert rc.nullity == 2 * n - 1

    def test_open_set_detection(self):
        z = np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 1j])
        mu = MuMatrix(1j * np.outer(z, z.conj()))
        assert in_open_set(mu)
        # the test is relative to the largest entry
        assert in_open_set(MuMatrix(1e-20 * mu.entries))
        entries = mu.entries.copy()
        entries[0, 1] = entries[1, 0] = 1e-13j
        assert not in_open_set(MuMatrix(entries))
        # orthogonal relative positions zero out an off-diagonal entry
        z = np.array([1.0 + 0j, 1j])
        mu = MuMatrix(1j * np.outer(z, z.conj()))
        assert in_open_set(mu)  # |z1 conj(z2)| = 1, nonzero
        mu = MuMatrix(np.diag([1j, 2j]))
        assert not in_open_set(mu)

    def test_jacobian_rows_match_gradients(self):
        rng = np.random.default_rng(14)
        mu = rank_one_mu(rng, 3)
        jac = constraint_jacobian(mu)
        assert jac.shape == (4, 9)


def dense_forms(n):
    """The constraint factors as dense complex linear forms (4, n(n-1)/2, n^2),
    built from the coordinate basis: entry (a, b) of M = -i mu is the form
    u -> sum_m u_m E_m[a, b]."""
    ell = np.einsum("mab->abm", coordinate_basis(n))
    blocks = [(i, i) for i in range(n - 1)] + list(pair_indices(n - 1))
    i, j = np.array(blocks, dtype=int).reshape(-1, 2).T
    return np.stack([ell[i, j], ell[i + 1, j + 1], ell[i, j + 1], ell[i + 1, j]])


def dense_split(vals, n, axis):
    """Complex components along ``axis`` as real rows: R_i, then (Re, Im) R_ij."""
    d = n - 1
    vals = np.moveaxis(vals, axis, 0)
    out = np.empty(((n - 1) ** 2,) + vals.shape[1:])
    out[:d], out[d::2], out[d + 1 :: 2] = vals[:d].real, vals[d:].real, vals[d:].imag
    return np.moveaxis(out, 0, axis)


def oracle_points(rng, n):
    # one vector, a stack of random vectors and a stack with exact zeros and
    # repeated values
    yield rng.standard_normal(n * n)
    yield rng.standard_normal((7, n * n))
    yield np.round(2 * rng.standard_normal((5, n * n)))
    yield flatten(rank_one_mu(rng, n))


class TestSparseFormsOracle:
    """The stored entries against the dense forms they replace, n = 1..6.

    The products are exact (every coefficient is 1 or +-i, and no position
    of the Jacobian sums two different coordinates), so the comparisons are
    exact equalities.  They compare values: the dense four-term formula
    leaves zeros of either sign at positions no term reaches, where the
    scatter writes +0."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_densified_entries_are_the_dense_forms(self, n):
        entries = constraint_system(n).hessians()
        densified = np.moveaxis(coordinate_basis(n).reshape(n * n, n * n)[:, entries], 0, -1)
        expected = dense_forms(n)
        assert densified.shape == expected.shape == (4, n * (n - 1) // 2, n * n)
        assert densified.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_values_and_jacobian_equal_the_dense_formula(self, n):
        rng = np.random.default_rng(40 + n)
        sys = constraint_system(n)
        c1, c2, c3, c4 = forms = dense_forms(n)
        for u in oracle_points(rng, n):
            p1, p2, p3, p4 = forms @ u.T
            values = dense_split(p1 * p2 - p3 * p4, n, 0).T
            p1, p2, p3, p4 = np.moveaxis(forms @ u[..., None, :, None], -3, 0)
            jacobian = dense_split(c1 * p2 + c2 * p1 - c3 * p4 - c4 * p3, n, -2)
            got_values, got_jacobian = sys.values(u), sys.jacobian(u)
            assert got_values.shape == values.shape == u.shape[:-1] + ((n - 1) ** 2,)
            assert got_jacobian.shape == jacobian.shape == u.shape[:-1] + ((n - 1) ** 2, n * n)
            np.testing.assert_array_equal(got_values, values)
            np.testing.assert_array_equal(got_jacobian, jacobian)
