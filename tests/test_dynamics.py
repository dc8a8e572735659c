import io

import numpy as np
import pytest

from vortexstab.algebra import Circulations, flatten
from vortexstab.dynamics import (
    Which,
    full_vector_field,
    integrate,
    invariant_drift_report,
    lie_poisson_vector_field,
    moment_map,
    relative_coordinates,
    trajectory_to_csv,
)
from vortexstab.errors import EmptyTrajectory
from vortexstab.hamiltonian import VortexConfiguration, full_hamiltonian


def separated_configuration(rng, n_vortices, zero_total=False):
    while True:
        q = rng.uniform(-1.5, 1.5, n_vortices) + 1j * rng.uniform(-1.5, 1.5, n_vortices)
        d = np.abs(q[:, None] - q[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() < 0.6:
            continue
        g = rng.uniform(0.3, 1.5, n_vortices) * rng.choice([-1.0, 1.0], n_vortices)
        if zero_total:
            g[-1] = -g[:-1].sum()
            if abs(g[-1]) < 0.2:
                continue
        elif abs(g.sum()) < 0.2:
            continue
        return VortexConfiguration(tuple(q), Circulations(tuple(g)))


class TestVectorFields:
    def test_two_vortex_analogue_rotation(self):
        # a vortex pair induces velocity perpendicular to the separation with
        # speed G/(2 pi d); checked through the three-vortex field with a far
        # spectator of tiny circulation
        cfg = VortexConfiguration(
            (0j, 1 + 0j, 200 + 0j), Circulations((1.0, 1.0, 1e-12))
        )
        v = full_vector_field(cfg)
        expected = 1j / (2 * np.pi) * (0 - 1) / 1.0
        assert v[0] == pytest.approx(expected, rel=1e-6)

    def test_full_field_is_the_rk4_right_hand_side(self):
        # one full-system RK4 step rebuilt from full_vector_field, bit for bit
        rng = np.random.default_rng(66)
        cfg = separated_configuration(rng, 5)
        dt = 0.01

        def field(q):
            return full_vector_field(VortexConfiguration(tuple(q), cfg.circ))

        q = cfg.as_array()
        k1 = field(q)
        k2 = field(q + 0.5 * dt * k1)
        k3 = field(q + 0.5 * dt * k2)
        k4 = field(q + dt * k3)
        expected = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj = integrate(cfg, cfg.circ, t_end=dt, dt=dt, which=Which.FULL)
        np.testing.assert_array_equal(traj.states[1], expected)

    def test_reduced_field_invariant_along_rays(self):
        # grad h scales as 1/s along a ray while mu scales as s, so the
        # field itself is unchanged: X_h(s mu) = X_h(mu)
        rng = np.random.default_rng(61)
        cfg = separated_configuration(rng, 4)
        mu = moment_map(relative_coordinates(cfg))
        x1 = flatten(lie_poisson_vector_field(mu, cfg.circ))
        from vortexstab.algebra import MuMatrix

        x2 = flatten(lie_poisson_vector_field(MuMatrix(2.5 * mu.entries), cfg.circ))
        np.testing.assert_allclose(x2, x1, rtol=1e-10)

    def test_equilibria_have_zero_field(self):
        for gammas, m in [((1.0, 1.0, 1.0, 2.0), 3), ((1.0, 1.0, 1.0, 1.0, 0.7), 4)]:
            circ = Circulations(gammas)
            pos = [complex(np.exp(2j * np.pi * k / m)) for k in range(m)] + [0j]
            mu = moment_map(relative_coordinates(VortexConfiguration(tuple(pos), circ)))
            assert np.abs(flatten(lie_poisson_vector_field(mu, circ))).max() < 1e-12


class TestIntegration:
    def test_rk4_fourth_order_convergence(self):
        rng = np.random.default_rng(62)
        cfg = separated_configuration(rng, 3)
        u0 = flatten(moment_map(relative_coordinates(cfg)))
        ref = integrate(u0, cfg.circ, t_end=0.5, dt=1e-4).states[-1]
        errs = []
        for dt in (0.05, 0.025):
            end = integrate(u0, cfg.circ, t_end=0.5, dt=dt).states[-1]
            errs.append(np.abs(end - ref).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    @pytest.mark.parametrize("n_vortices,zero_total", [(3, False), (4, True)])
    def test_full_and_reduced_agree(self, n_vortices, zero_total):
        rng = np.random.default_rng(63 + n_vortices)
        cfg = separated_configuration(rng, n_vortices, zero_total=zero_total)
        if zero_total:
            # the zero-total reduction assumes zero linear impulse; shift the
            # last vortex to enforce it
            g = cfg.circ.as_array()
            q = np.asarray(cfg.positions[:-1])
            q_last = complex(-(g[:-1] @ q) / g[-1])
            if min(np.abs(q - q_last)) < 0.3:
                pytest.skip("adjusted configuration too close to collision")
            cfg = VortexConfiguration(tuple(q) + (q_last,), cfg.circ)
        reduced = integrate(cfg, cfg.circ, t_end=2.0, dt=1e-3, which=Which.REDUCED)
        full = integrate(cfg, cfg.circ, t_end=2.0, dt=1e-3, which=Which.FULL)
        assert not reduced.aborted and not full.aborted
        worst = 0.0
        for i in range(0, len(full), 100):
            mu = moment_map(
                relative_coordinates(VortexConfiguration(tuple(full.states[i]), cfg.circ))
            )
            worst = max(worst, np.abs(flatten(mu) - reduced.states[i]).max())
        assert worst < 1e-8

    def test_full_hamiltonian_column_is_full_hamiltonian(self):
        rng = np.random.default_rng(67)
        cfg = separated_configuration(rng, 4)
        traj = integrate(cfg, cfg.circ, t_end=0.2, dt=1e-3, which=Which.FULL)
        for i in range(0, len(traj), 40):
            at = VortexConfiguration(tuple(traj.states[i]), cfg.circ)
            assert traj.hamiltonian[i] == full_hamiltonian(at)

    def test_invariants_flat(self):
        rng = np.random.default_rng(64)
        cfg = separated_configuration(rng, 4)
        traj = integrate(cfg, cfg.circ, t_end=2.0, dt=1e-3)
        rep = invariant_drift_report(traj)
        assert rep.hamiltonian_max < 1e-10
        assert rep.casimir_max.max() < 1e-9
        assert rep.residual_max < 1e-9

    def test_collision_aborts_with_truncation(self):
        # a tight opposite-signed pair self-advects into the collision
        # tolerance region quickly under a coarse grid; if not, the run
        # simply completes, so pick a configuration heading to collision
        circ = Circulations((4.0, -4.0, 4.0))
        cfg = VortexConfiguration((0j, 0.05 + 0j, 3 + 0j), circ)
        traj = integrate(cfg, circ, t_end=50.0, dt=0.5, which=Which.FULL)
        if traj.aborted:
            assert traj.abort_reason
            assert len(traj) >= 1

    def test_rejects_bad_steps(self):
        circ = Circulations((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            integrate(np.ones(4), circ, t_end=1.0, dt=0.0)


class TestSerialization:
    def test_csv_layout_and_round_trip_floats(self):
        rng = np.random.default_rng(65)
        cfg = separated_configuration(rng, 3)
        traj = integrate(cfg, cfg.circ, t_end=0.05, dt=0.01)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        n = cfg.circ.n
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1 : 1 + n * n] == [f"coord_{i}" for i in range(n * n)]
        assert header[1 + n * n] == "H"
        assert header[-1] == "Rmax"
        assert len(lines) == len(traj) + 1
        # repr formatting parses back to the exact doubles
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == traj.times[0]
        np.testing.assert_array_equal(first[1 : 1 + n * n], traj.states[0])

    def test_empty_trajectory_rejected(self):
        from vortexstab.dynamics import Trajectory

        traj = Trajectory(
            which=Which.REDUCED,
            times=np.empty(0),
            states=np.empty((0, 4)),
            hamiltonian=np.empty(0),
            casimirs=np.empty((0, 2)),
            residual_max=np.empty(0),
            n=2,
            aborted=False,
            abort_reason="",
        )
        with pytest.raises(EmptyTrajectory):
            invariant_drift_report(traj)
