import numpy as np
import pytest

from vortexstab.algebra import Circulations, flatten, unflatten
from vortexstab.dynamics import moment_map, relative_coordinates
from vortexstab.errors import Collision
from vortexstab.hamiltonian import (
    ReducedHamiltonian,
    VortexConfiguration,
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
