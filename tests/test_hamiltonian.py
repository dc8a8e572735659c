import numpy as np
import pytest

from vortexstab import dynamics
from vortexstab.algebra import (
    Circulations,
    Regime,
    build_coupling_matrix,
    flatten,
    flatten_stack,
    unflatten,
    unflatten_stack,
)
from vortexstab.dynamics import moment_map, relative_coordinates
from vortexstab.errors import Collision
from vortexstab.hamiltonian import (
    FOUR_PI,
    ReducedHamiltonian,
    VortexConfiguration,
    _distance_pairs,
    _squared_norm_form,
    full_hamiltonian,
    gradient_matrix,
    reduced_hamiltonian,
    reduced_system,
)


def random_configuration(rng, n_vortices, zero_total=False):
    while True:
        q = rng.uniform(-1.5, 1.5, n_vortices) + 1j * rng.uniform(-1.5, 1.5, n_vortices)
        d = np.abs(q[:, None] - q[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() < 0.5:
            continue
        g = rng.uniform(0.3, 1.5, n_vortices) * rng.choice([-1.0, 1.0], n_vortices)
        if zero_total:
            g[-1] = -g[:-1].sum()
            if abs(g[-1]) < 0.2:
                continue
        elif abs(g.sum()) < 0.2:
            continue
        return VortexConfiguration(tuple(q), Circulations(tuple(g)))


class TestFullHamiltonian:
    def test_pair_value(self):
        # H = -(1/4pi) G1 G2 ln|q1-q2|^2 summed over pairs, here three
        # vortices at mutual distance 1 give H = 0
        cfg = VortexConfiguration(
            (0j, 1 + 0j, 0.5 + 0.5j * np.sqrt(3)), Circulations((1.0, 1.0, 1.0))
        )
        assert full_hamiltonian(cfg) == pytest.approx(0.0, abs=1e-14)

    def test_scaling_law(self):
        # dilating all positions by s shifts H by -(ln s^2 /4pi) sum_{i<j} Gi Gj
        rng = np.random.default_rng(11)
        cfg = random_configuration(rng, 4)
        s = 1.7
        scaled = VortexConfiguration(tuple(s * q for q in cfg.positions), cfg.circ)
        g = cfg.circ.as_array()
        pair_sum = sum(
            g[i] * g[j] for i in range(4) for j in range(i + 1, 4)
        )
        expected = full_hamiltonian(cfg) - pair_sum * np.log(s**2) / (4 * np.pi)
        assert full_hamiltonian(scaled) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_vortices", range(3, 9))
    def test_matches_pairwise_loop(self, n_vortices):
        rng = np.random.default_rng(13 + n_vortices)
        for zero_total in (False, True):
            cfg = random_configuration(rng, n_vortices, zero_total=zero_total)
            q, g = cfg.as_array(), cfg.circ.as_array()
            total = 0.0
            for i in range(n_vortices):
                for j in range(i + 1, n_vortices):
                    total += g[i] * g[j] * np.log(abs(q[i] - q[j]) ** 2)
            assert full_hamiltonian(cfg) == pytest.approx(-total / (4 * np.pi), rel=1e-12)

    def test_collision_rejected(self):
        with pytest.raises(Collision):
            VortexConfiguration((0j, 0j, 1 + 0j), Circulations((1.0, 1.0, 1.0)))


class TestReducedMatchesFull:
    @pytest.mark.parametrize("n_vortices", [3, 4, 5])
    def test_pullback_nonzero_total(self, n_vortices):
        # h(J(z)) must equal H(q) with the reference vortex subtracted out
        rng = np.random.default_rng(21 + n_vortices)
        for _ in range(10):
            cfg = random_configuration(rng, n_vortices)
            mu = moment_map(relative_coordinates(cfg))
            assert reduced_hamiltonian(mu, cfg.circ) == pytest.approx(
                full_hamiltonian(cfg), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("n_vortices", [4, 5])
    def test_pullback_zero_total(self, n_vortices):
        # zero-total reduction assumes zero linear impulse: place the
        # reference vortex so that sum Gi qi = 0
        rng = np.random.default_rng(31 + n_vortices)
        for _ in range(10):
            cfg = random_configuration(rng, n_vortices, zero_total=True)
            g = cfg.circ.as_array()
            q = np.asarray(cfg.positions[:-1])
            q_last = -(g[:-1] @ q) / g[-1]
            if min(np.abs(q - q_last)) < 1e-3:
                continue
            cfg = VortexConfiguration(tuple(q) + (complex(q_last),), cfg.circ)
            mu = moment_map(relative_coordinates(cfg))
            assert reduced_hamiltonian(mu, cfg.circ) == pytest.approx(
                full_hamiltonian(cfg), rel=1e-12, abs=1e-12
            )


class TestDerivatives:
    @pytest.mark.parametrize("n_vortices,zero_total", [(3, False), (4, False), (4, True), (5, True)])
    def test_gradient_and_hessian_match_differences(self, n_vortices, zero_total):
        rng = np.random.default_rng(41)
        cfg = random_configuration(rng, n_vortices, zero_total=zero_total)
        sys = reduced_system(cfg.circ)
        u = flatten(moment_map(relative_coordinates(cfg)))
        grad = sys.gradient(u)
        hess = sys.hessian(u)
        eps = 1e-6
        for i in range(len(u)):
            d = np.zeros_like(u)
            d[i] = eps
            fd = (sys.value(u + d) - sys.value(u - d)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            fd_row = (sys.gradient(u + d) - sys.gradient(u - d)) / (2 * eps)
            np.testing.assert_allclose(hess[:, i], fd_row, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("zero_total", [False, True])
    def test_hessian_along_a_basis(self, zero_total):
        # basis @ Hess h through the forms, one Hamiltonian or a stack of them
        rng = np.random.default_rng(43)
        cfgs = [random_configuration(rng, 5, zero_total=zero_total) for _ in range(2)]
        u = np.stack([flatten(moment_map(relative_coordinates(c))) for c in cfgs])
        basis = rng.standard_normal((2, 3, u.shape[-1]))
        stacked = ReducedHamiltonian([c.circ for c in cfgs])
        dense = stacked.hessian(u)
        got = stacked.hessian(u, basis)
        assert np.abs(got - basis @ dense).max() <= 1e-13 * np.abs(basis @ dense).max()
        one = reduced_system(cfgs[0].circ)
        assert np.abs(one.hessian(u[0], basis[0]) - got[0]).max() <= 1e-13 * np.abs(got[0]).max()

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(42)
        cfg = random_configuration(rng, 5)
        sys = reduced_system(cfg.circ)
        u = flatten(moment_map(relative_coordinates(cfg)))
        h = sys.hessian(u)
        np.testing.assert_allclose(h, h.T, atol=1e-12)


class TestGradientMatrix:
    def test_pairing_duality(self):
        # the matrix form of the gradient satisfies
        # (1/2) Re tr(nu^* G) = grad . flatten(nu) for every direction nu
        from vortexstab.algebra import pairing

        rng = np.random.default_rng(51)
        cfg = random_configuration(rng, 4)
        sys = reduced_system(cfg.circ)
        n = cfg.circ.n
        u = flatten(moment_map(relative_coordinates(cfg)))
        grad = sys.gradient(u)
        gmat = gradient_matrix(grad, n)
        for _ in range(10):
            nu = unflatten(rng.standard_normal(n * n), n)
            assert pairing(nu, gmat) == pytest.approx(grad @ flatten(nu), rel=1e-10)


def dense_log_terms(g, regime):
    """The forms of the reduced Hamiltonian as a dense (..., terms, n^2) array
    with their weights, for the circulations on the last axis of g: the
    reference forms, the zero-total forms, then the pair forms."""
    n = g.shape[-1] - (1 if regime is Regime.NON_ZERO_TOTAL else 2)
    i, j, x = _distance_pairs(n)
    eye = np.eye(n, n * n)
    lead = g.shape[:-1]
    forms = [np.broadcast_to(eye, lead + eye.shape)]
    weights = [g[..., :n] * g[..., n, None]]
    if regime is Regime.ZERO_TOTAL:
        gN = g[..., n + 1, None]
        a = np.concatenate(
            [g[..., None, :n] + gN[..., None] * np.eye(n), g[..., None, :n]], axis=-2
        )
        forms.append(_squared_norm_form(a) / (gN**2)[..., None])
        weights.append(g[..., : n + 1] * gN)
    pair = eye[i] + eye[j]
    pair[np.arange(len(i)), x] = -2.0
    forms.append(np.broadcast_to(pair, lead + pair.shape))
    weights.append(g[..., i] * g[..., j])
    return np.concatenate(forms, axis=-2), np.concatenate(weights, axis=-1)


def oracle_circulations(rng, n, zero_total, k):
    """k circulation sets of n + 1 (or n + 2, zero total) vortices, one N."""
    sets = []
    while len(sets) < k:
        g = rng.uniform(0.3, 1.5, n + 1 + zero_total) * rng.choice([-1.0, 1.0], n + 1 + zero_total)
        if zero_total:
            g[-1] = -g[:-1].sum()
            if abs(g[-1]) < 0.2:
                continue
        elif abs(g.sum()) < 0.2:
            continue
        sets.append(Circulations(tuple(g)))
    return sets


def oracle_point(rng, n, shape=()):
    """Flattened mu = i z z^* at random z, away from every log singularity."""
    z = rng.uniform(0.5, 1.5, shape + (n,)) * np.exp(2j * np.pi * rng.uniform(0, 1, shape + (n,)))
    return flatten_stack(1j * z[..., :, None] * z[..., None, :].conj())


def assert_close(got, expected, size=None):
    """got within 1e-14 of the largest entry of ``size``, the size of the
    terms that sum to each entry (by default |expected|)."""
    size = np.abs(expected) if size is None else size
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= 1e-14 * size.max(initial=0.0)


# n = 1..6 in both regimes, but for n = 1 at non-zero total: N = 2 is no
# circulation set
ORACLE_CASES = [(n, z) for n in range(1, 7) for z in (False, True) if n + 1 + z >= 3]


class TestSparseFormsOracle:
    """The gathers and scatters of the stored forms against the dense forms
    they replace, n = 1..6, both regimes, one set and a stack of sets.

    Gathering the forms at the identity, and scattering a diagonal, reads
    each form's coefficients as exact products, so those compare exactly.
    The rest sums in another order than a dense product and agrees within
    1e-14 of the size of the terms of its sums (the same sums over |w_t| and
    |c_t|): the terms of a gradient or a Hessian cancel."""

    @pytest.mark.parametrize("n,zero_total", ORACLE_CASES)
    def test_single_set(self, n, zero_total):
        rng = np.random.default_rng(100 + 2 * n + zero_total)
        circ = oracle_circulations(rng, n, zero_total, 1)[0]
        forms, weights = dense_log_terms(circ.as_array(), circ.regime)
        sys = ReducedHamiltonian(circ)
        np.testing.assert_array_equal(sys.weights, weights)
        eye = np.eye(n * n)
        np.testing.assert_array_equal(sys._gather(eye), forms.T)
        np.testing.assert_array_equal(sys._scatter(np.diag(weights)), forms * weights[:, None])
        self.assert_matches(sys, forms, weights, oracle_point(rng, n))
        # value on a stack of points of one Hamiltonian
        u = oracle_point(rng, n, (4,))
        s = sys._arguments(u)
        assert_close(s, u @ forms.T, np.abs(u) @ np.abs(forms.T))
        assert_close(sys.value(u), -(np.log(s) @ weights) / FOUR_PI)

    @pytest.mark.parametrize("n,zero_total", ORACLE_CASES)
    def test_stack_of_sets(self, n, zero_total):
        rng = np.random.default_rng(200 + 2 * n + zero_total)
        circs = oracle_circulations(rng, n, zero_total, 3)
        forms, weights = dense_log_terms(np.array([c.as_array() for c in circs]), circs[0].regime)
        sys = ReducedHamiltonian(circs)
        np.testing.assert_array_equal(sys.weights, weights)
        self.assert_matches(sys, forms, weights, oracle_point(rng, n, (3,)))
        # each Hamiltonian of the stack gives the bits of a stack of one
        u = oracle_point(rng, n, (3,))
        basis = rng.standard_normal((3, 4, n * n))
        stacked = sys.gradient(u), sys.gradient_bound(u), sys.hessian(u, basis)
        for r, circ in enumerate(circs):
            one, at = ReducedHamiltonian([circ]), slice(r, r + 1)
            alone = one.gradient(u[at]), one.gradient_bound(u[at]), one.hessian(u[at], basis[at])
            for got, expected in zip(stacked, alone):
                assert got[r].tobytes() == expected[0].tobytes()

    @staticmethod
    def assert_matches(sys, forms, weights, u):
        """Every evaluation of sys at u (one point per Hamiltonian) against
        the dense forms and weights."""
        s = sys._arguments(u)
        assert_close(s, (forms @ u[..., None])[..., 0], (np.abs(forms) @ np.abs(u[..., None]))[..., 0])
        # the rest from these arguments: a small s = u_i + u_j - 2 x_ij
        # cancels, and its rounding in either sum order is not the forms'
        value = -(np.log(s) * weights).sum(-1) / FOUR_PI
        assert_close(np.atleast_1d(sys.value(u)), np.atleast_1d(value))
        forms_t, sizes_t = forms.swapaxes(-1, -2), np.abs(forms).swapaxes(-1, -2)
        bound = (sizes_t @ (np.abs(weights) / s)[..., None])[..., 0] / FOUR_PI
        gradient = -(forms_t @ (weights / s)[..., None])[..., 0] / FOUR_PI
        assert_close(sys.gradient(u), gradient, bound)
        assert_close(sys.gradient_bound(u), (forms_t @ (np.abs(weights) / s)[..., None])[..., 0] / FOUR_PI)
        hess = (forms_t * (weights / s**2)[..., None, :]) @ forms / FOUR_PI
        hess_size = (sizes_t * (np.abs(weights) / s**2)[..., None, :]) @ np.abs(forms) / FOUR_PI
        assert_close(sys.hessian(u), hess, hess_size)
        basis = np.random.default_rng(7).standard_normal(u.shape[:-1] + (5, u.shape[-1]))
        assert_close(sys.hessian(u, basis), basis @ hess, np.abs(basis) @ hess_size)

    @pytest.mark.parametrize("n,zero_total", ORACLE_CASES)
    def test_rk4_folds(self, n, zero_total):
        # the folds of the RK4 operator from the dense forms, bit for bit
        rng = np.random.default_rng(300 + 2 * n + zero_total)
        circ = oracle_circulations(rng, n, zero_total, 1)[0]
        forms, weights = dense_log_terms(circ.as_array(), circ.regime)
        size = 2 * n * n
        pick = flatten_stack(np.eye(size).view(complex).reshape(size, n, n))
        r = forms * (-weights / FOUR_PI)[:, None]
        r[:, :n] *= 2.0
        kinv = build_coupling_matrix(circ).k_inv
        rk = (unflatten_stack(r, n) @ kinv).reshape(len(r), n * n)
        field = dynamics._ReducedField(circ)
        np.testing.assert_array_equal(field.forms, pick @ forms.T)
        np.testing.assert_array_equal(field.rk, rk.view(float))
        # row-major as the products were: BLAS sums x Fm over a transposed
        # layout in another order
        assert field.forms.flags.c_contiguous and field.rk.flags.c_contiguous

