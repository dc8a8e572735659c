import io
import itertools

import numpy as np
import pytest

from vortexstab import constraints, dynamics, hamiltonian
from vortexstab.algebra import (
    Circulations,
    MuMatrix,
    build_coupling_matrix,
    flatten,
    unflatten,
)
from vortexstab.constraints import casimir_values, constraint_residuals, constraint_system
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
from vortexstab.errors import (
    Collision,
    DimensionMismatch,
    DomainError,
    EmptyTrajectory,
    InvalidArgument,
)
from vortexstab.hamiltonian import (
    VortexConfiguration,
    full_hamiltonian,
    gradient_entries,
    min_separation,
    reduced_hamiltonian,
    reduced_system,
)
from vortexstab.localmodel import local_model
from vortexstab.scenarios import build_scenario


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
        # one full-system RK4 step rebuilt from the operator's constants, bit
        # for bit, within 1e-14 of the classical step of full_vector_field
        rng = np.random.default_rng(66)
        cfg = separated_configuration(rng, 5)
        dt = 0.01

        def field(x):
            q = VortexConfiguration(tuple(x.view(complex)), cfg.circ)
            return full_vector_field(q).view(float)

        x = cfg.as_array().view(float)
        step = fused_full_step(dynamics._right_hand_side(cfg.circ, Which.FULL), x, dt)
        traj = integrate(cfg, cfg.circ, t_end=dt, dt=dt, which=Which.FULL)
        np.testing.assert_array_equal(traj.states[1], step.view(complex))
        assert np.abs(step - classical_step(field, x, dt)).max() <= 1e-14 * np.abs(x).max()

    def test_reduced_field_is_the_rk4_right_hand_side(self):
        # one reduced RK4 step rebuilt from the operator's constants, bit for
        # bit, within 1e-14 of the classical step of lie_poisson_vector_field;
        # the step is long enough that a stage off by one ulp shows
        rng = np.random.default_rng(71)
        cfg = separated_configuration(rng, 5)
        dt = 0.2
        n = cfg.circ.n

        def field(x):
            mu = MuMatrix(x.view(complex).reshape(n, n))
            return lie_poisson_vector_field(mu, cfg.circ).entries.view(float).ravel()

        m = unflatten(flatten(moment_map(relative_coordinates(cfg))), n).entries
        x = m.view(float).ravel()
        step = fused_reduced_step(dynamics._right_hand_side(cfg.circ, Which.REDUCED), x, dt)
        traj = integrate(cfg, cfg.circ, t_end=dt, dt=dt, which=Which.REDUCED)
        np.testing.assert_array_equal(
            traj.states[1], flatten(MuMatrix(step.view(complex).reshape(n, n)))
        )
        assert np.abs(step - classical_step(field, x, dt)).max() <= 1e-14 * np.abs(x).max()

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


def classical_step(field, x, dt):
    """x + (dt/6)(k1 + 2 k2 + 2 k3 + k4), the classical RK4 step of field."""
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# the scales of the four cores of a step, and the weights of their outputs
# at the step's end
SCALES = (1.0, 1.0, 2.0, 1.0)


def end_weights(dt):
    return np.array([dt / 6.0, dt / 3.0, dt / 6.0, dt / 6.0])


def fused_full_step(op, x, dt):
    """One full-system RK4 step from the pairs x as integrate takes it, from
    the operator's constants: core k writes a_k = c_k / conj(d_k) for the
    pairs of conj(d) of its input y_k I, with c = 1, 1, 2, 1; y_{k+1} =
    [a_k | 1] [(dt/2) C ; x], and x' = x + (sum_k w_k a_k) C."""
    scaled = np.ones((4, op.incidence.shape[1] + 1))
    matrix, y = np.vstack([dt / 2.0 * op.coupling, x]), x
    for k, c in enumerate(SCALES):
        scaled[k, :-1] = np.divide(complex(c), y.dot(op.incidence).view(complex)).view(float)
        if k < 3:
            y = scaled[k].dot(matrix)
    return end_weights(dt).dot(scaled)[:-1].dot(op.coupling) + x


def fused_reduced_step(op, x, dt):
    """One reduced RK4 step from the pairs x of mu as integrate takes it,
    from the operator's constants: core k writes a_k = mu_k ((c_k / s_k) Rk)
    for the input y_k = mu_k with its log arguments s_k, c = 1, 1, 2, 1;
    [y_{k+1} | s_{k+1}] = [a_k | 1] [(dt/2) [S, S Fm] ; x, x Fm], and x' =
    x + (sum_k w_k a_k) S."""
    n, size = op.n, x.size
    scaled = np.ones((4, size + 1))
    fold = np.hstack([op.skew, op.skew_forms])
    matrix = np.vstack([dt / 2.0 * fold, np.hstack([x, x.dot(op.forms)])])
    y, s = x, matrix[-1, size:]
    for k, c in enumerate(SCALES):
        g = np.divide(c, s).dot(op.rk).view(complex).reshape(n, n)
        scaled[k, :-1] = y.view(complex).reshape(n, n).dot(g).view(float).ravel()
        if k < 3:
            u = scaled[k].dot(matrix)
            y, s = u[:size], u[size:]
    return end_weights(dt).dot(scaled)[:-1].dot(op.skew) + x


def pairwise_velocities(q, g):
    """dq_i/dt = (i/2pi) sum_j G_j (q_i - q_j) / |q_i - q_j|^2, one pair at a time."""
    v = np.zeros(len(q), dtype=complex)
    for i in range(len(q)):
        for j in range(len(q)):
            if i != j:
                v[i] += g[j] * (q[i] - q[j]) / abs(q[i] - q[j]) ** 2
    return 1j / (2 * np.pi) * v


def assert_fields_match(cfg):
    """The cached right-hand sides against the formulas they fold, within
    1e-13 of the size of each field's terms."""
    circ = cfg.circ
    q, g = cfg.as_array(), circ.as_array()
    full = dynamics._right_hand_side(circ, Which.FULL)(q.view(float)).view(complex)
    d = np.abs(q[:, None] - q[None, :])
    np.fill_diagonal(d, np.inf)
    scale = (np.abs(g) / d).sum(axis=1).max() / (2 * np.pi)
    assert np.abs(full - pairwise_velocities(q, g)).max() <= 1e-13 * scale
    np.testing.assert_array_equal(full_vector_field(cfg), full)

    mu = moment_map(relative_coordinates(cfg))
    grad = gradient_entries(reduced_system(circ).gradient(flatten(mu)), circ.n)
    kinv = build_coupling_matrix(circ).k_inv
    expected = dynamics._lie_poisson_entries(mu.entries, grad, kinv)
    pairs = dynamics._right_hand_side(circ, Which.REDUCED)(mu.entries.view(float).ravel())
    reduced = pairs.view(complex).reshape(mu.entries.shape)
    scale = local_model(mu, circ).scale[0]
    assert np.abs(reduced - expected).max() <= 1e-13 * scale
    np.testing.assert_array_equal(reduced.conj().T, -reduced)
    np.testing.assert_array_equal(lie_poisson_vector_field(mu, circ).entries, reduced)


class TestCachedRightHandSides:
    @pytest.mark.parametrize("n_vortices,zero_total", [(m, z) for m in (3, 4, 5) for z in (False, True)])
    def test_random_states_match_the_formulas(self, n_vortices, zero_total):
        rng = np.random.default_rng(80 + 2 * n_vortices + zero_total)
        for _ in range(5):
            assert_fields_match(separated_configuration(rng, n_vortices, zero_total))

    def test_large_polygon_near_its_fixed_point(self):
        scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
        rng = np.random.default_rng(81)
        kick = 1e-3 * (rng.standard_normal(21) + 1j * rng.standard_normal(21))
        assert_fields_match(VortexConfiguration(tuple(np.asarray(scen.positions) + kick), scen.circ))

    @pytest.mark.filterwarnings("error")
    def test_errors_keep_their_types_and_text(self):
        # on the domain's edge too (s = 0, d = 0): one input is the last
        # input, so its stage checks before it divides and no warning escapes
        circ = Circulations((1.0, 1.0, 1.0))
        # |z_1 - z_2|^2 = mu_1 + mu_2 - 2 x_12 = -2, then 0
        for u in (np.array([1.0, 1.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])):
            with pytest.raises(DomainError) as expected:
                reduced_system(circ).gradient(u)
            mu = unflatten(u, 2)
            for field in (
                lambda: dynamics._right_hand_side(circ, Which.REDUCED)(mu.entries.view(float).ravel()),
                lambda: lie_poisson_vector_field(mu, circ),
            ):
                with pytest.raises(DomainError) as got:
                    field()
                assert str(got.value) == str(expected.value)
        for q in (np.array([0j, 1e-12, 1.0]), np.array([0j, 0j, 1.0])):
            with pytest.raises(Collision) as got:
                dynamics._right_hand_side(circ, Which.FULL)(q.view(float))
            assert str(got.value) == f"minimum vortex separation {min_separation(q):.3e}"

    @pytest.mark.parametrize("which", list(Which))
    def test_built_once_per_circulation_set(self, which):
        first = dynamics._right_hand_side(Circulations((1.0, 2.0, 3.0)), which)
        assert dynamics._right_hand_side(Circulations((1.0, 2.0, 3.0)), which) is first

    def test_a_second_round_builds_nothing(self, monkeypatch):
        # one memo entry per circulation set and system: nine sets, each run
        # on both systems, fit in the memo's bound
        built = []
        for name in ("_FullField", "_ReducedField"):

            class Spied(getattr(dynamics, name)):
                def __init__(self, circ):
                    built.append(circ)
                    super().__init__(circ)

            monkeypatch.setattr(dynamics, name, Spied)
        rng = np.random.default_rng(91)
        cfgs = [separated_configuration(rng, m, z) for m in (3, 4, 5) for z in (False, True, False)]
        dynamics._right_hand_side.cache_clear()
        try:
            rounds = []
            for _ in range(2):
                for cfg in cfgs:
                    for which in Which:
                        integrate(cfg, cfg.circ, t_end=2e-3, dt=1e-3, which=which)
                rounds.append((len(built), dynamics._right_hand_side.cache_info()))
        finally:
            dynamics._right_hand_side.cache_clear()
        (first_built, first), (second_built, second) = rounds
        assert first_built == second_built == 18
        assert first.misses == second.misses == 18
        assert second.hits == first.hits + 18


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

    # the closest pair drifts from 0.58 apart at t = 0 to 0.4994 at t = 0.63
    DRIFTING = VortexConfiguration((0j, 1 + 0j, 0.5 + 0.3j), Circulations((1.0, 1.0, -0.5)))

    @staticmethod
    def assert_truncated(traj, samples, reason):
        assert traj.aborted
        assert traj.abort_reason == reason
        columns = (traj.times, traj.states, traj.hamiltonian, traj.casimirs, traj.residual_max)
        assert [len(c) for c in columns] == [samples] * len(columns)

    # the abort tests run with warnings as errors: the stages that read a
    # failed stage's output before the step's check raises stay silent
    @pytest.mark.filterwarnings("error")
    def test_collision_aborts_with_truncation(self, monkeypatch):
        # a collision tolerance of 0.5 in the sample checks (hamiltonian), in
        # the RK4 right-hand side (dynamics) or in both ends the run before
        # the first sample within 0.5.  The right-hand side's test fails in
        # the second stage of step 63, on its input at separation 0.49997
        cfg = self.DRIFTING
        untouched = integrate(cfg, cfg.circ, t_end=1.0, dt=0.01, which=Which.FULL)
        separation = min_separation(untouched.states)
        assert separation[:63].min() > 0.5 >= separation[63]
        for checks, detail in (
            ((hamiltonian,), "4.994e-01"),
            ((dynamics,), "5.000e-01"),
            ((hamiltonian, dynamics), "5.000e-01"),
        ):
            with monkeypatch.context() as patch:
                for module in checks:
                    patch.setattr(module, "COLLISION_TOL", 0.5)
                traj = integrate(cfg, cfg.circ, t_end=1.0, dt=0.01, which=Which.FULL)
            self.assert_truncated(
                traj, 63, f"Collision at step 63 (t = 0.63): minimum vortex separation {detail}"
            )
            np.testing.assert_array_equal(traj.states, untouched.states[:63])

    # a close pair under a coarse step leaves the reduced Hamiltonian's domain
    CLOSE_PAIR = VortexConfiguration(
        (-0.843 + 0.111j, -0.829 + 0.125j, -0.537 - 0.35j, -0.923 + 0.287j, -0.77 - 0.296j),
        Circulations((-0.68, 0.77, 1.4, 0.44, 0.4)),
    )

    @pytest.mark.filterwarnings("error")
    def test_domain_error_aborts_with_truncation(self):
        # in the fourth stage of step 17
        cfg = self.CLOSE_PAIR
        traj = integrate(cfg, cfg.circ, t_end=2.0, dt=0.01)
        self.assert_truncated(
            traj,
            17,
            "DomainError at step 17 (t = 0.17): squared distance -1.320e-04 in reduced Hamiltonian",
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "dt,stage,step,detail", [(0.02, 2, 9, "-5.416e-04"), (0.027, 3, 7, "-2.734e-03")]
    )
    def test_a_step_that_fails_in_an_earlier_stage(self, dt, stage, step, detail):
        # the step is checked once, in its fourth stage, and raises the error
        # of its first failing stage: rebuilt from the last sample kept with
        # the one-shot field, the stages before it pass and it raises that
        # error
        cfg = self.CLOSE_PAIR
        traj = integrate(cfg, cfg.circ, t_end=2.0, dt=dt)
        error = f"squared distance {detail} in reduced Hamiltonian"
        self.assert_truncated(traj, step, f"DomainError at step {step} (t = {step * dt:.6g}): {error}")
        n = cfg.circ.n

        def field(x):
            mu = MuMatrix(x.view(complex).reshape(n, n))
            return lie_poisson_vector_field(mu, cfg.circ).entries.view(float).ravel()

        # the stage inputs of the failing step, as the classical combination
        # forms them (integrate's products round them apart in the last
        # bits, far below the printed digits)
        x = unflatten(traj.states[-1], n).entries.view(float).ravel()
        y = x
        for c in (dt / 2.0, dt / 2.0, dt)[: stage - 1]:
            y = x + c * field(y)
        with pytest.raises(DomainError) as got:
            field(y)
        assert str(got.value) == error

    @pytest.mark.filterwarnings("error")
    def test_failing_initial_state_raises(self):
        # on the domain's edge (s = 0, d = 0) too: the first stage divides
        # by zero before the step's check, and no warning escapes
        circ = Circulations((1.0, 1.0, 1.0))
        for u in ([1.0, 1.0, 2.0, 0.0], [1.0, 1.0, 1.0, 0.0]):
            with pytest.raises(DomainError):
                integrate(np.array(u), circ, t_end=0.1, dt=0.01)
        for q in ([0j, 1e-12, 1.0], [0j, 0j, 1.0]):
            with pytest.raises(Collision):
                integrate(np.array(q), circ, t_end=0.1, dt=0.01, which=Which.FULL)

    @pytest.mark.parametrize("which", ["reduced", "full", None])
    def test_rejects_a_which_that_is_not_a_member(self, which):
        cfg = separated_configuration(np.random.default_rng(68), 4)
        with pytest.raises(InvalidArgument) as got:
            integrate(cfg, cfg.circ, t_end=0.01, dt=0.001, which=which)
        assert str(got.value) == f"which must be Which.REDUCED or Which.FULL, got {which!r}"

    @pytest.mark.parametrize("which", list(Which))
    def test_rejects_configuration_of_other_size(self, which):
        rng = np.random.default_rng(68)
        cfg = separated_configuration(rng, 4)
        for circ in (Circulations((1.0, 2.0, 3.0)), Circulations((1.0, 1.0, 1.0, 1.0, -4.0))):
            with pytest.raises(DimensionMismatch):
                integrate(cfg, circ, t_end=0.1, dt=0.01, which=which)

    @pytest.mark.parametrize("which", list(Which))
    def test_rejects_state_of_wrong_length(self, which):
        circ = Circulations((1.0, 2.0, 3.0))
        with pytest.raises(DimensionMismatch):
            integrate(np.ones(circ.n**2 + circ.N), circ, t_end=0.1, dt=0.01, which=which)

    def test_invariants_are_observed_once_per_run(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module in (constraints, dynamics):
            counter = counted("casimir", casimir_values)
            monkeypatch.setattr(module, "casimir_values", counter, raising=False)
        values = constraints.ConstraintSystem.values
        monkeypatch.setattr(constraints.ConstraintSystem, "values", counted("residual", values))
        cfg = separated_configuration(np.random.default_rng(69), 4)
        counts = []
        for steps in (5, 500):
            for which in Which:
                calls.clear()
                integrate(cfg, cfg.circ, t_end=steps * 1e-3, dt=1e-3, which=which)
                counts.append(sorted(calls))
        assert counts[0] == counts[2] and counts[1] == counts[3]
        assert counts[0] == ["casimir", "residual"]

    def test_rejects_bad_steps(self):
        circ = Circulations((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            integrate(np.ones(4), circ, t_end=1.0, dt=0.0)
        for t_end, dt in ((1.0, 0.0), (-1.0, 0.1), (np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan),
                          (1.0, np.inf), (1.0, -np.inf)):
            with pytest.raises(InvalidArgument, match="t_end and dt must be positive and finite"):
                integrate(np.ones(4), circ, t_end=t_end, dt=dt)

    def test_last_sample_at_the_rounded_step_count(self):
        # round(t_end / dt) steps: t_end = 1.0, dt = 0.3 ends at 3 dt = 0.9,
        # and a t_end under half a step is no step at all
        circ = Circulations((1.0, 1.0, 1.0))
        u0 = flatten(moment_map(relative_coordinates(VortexConfiguration((0j, 1 + 0j, 1j), circ))))
        traj = integrate(u0, circ, t_end=1.0, dt=0.3)
        np.testing.assert_array_equal(traj.times, np.arange(4) * 0.3)
        for t_end in (0.1, 0.15):
            with pytest.raises(InvalidArgument, match="under half a step"):
                integrate(u0, circ, t_end=t_end, dt=0.3)


class TestFusedSteps:
    @staticmethod
    def classical_run(field, x, dt, steps):
        """The samples of ``steps`` classical RK4 steps of field from x."""
        run = [x]
        for _ in range(steps):
            run.append(classical_step(field, run[-1], dt))
        return np.array(run)

    @pytest.mark.parametrize("n_vortices", range(3, 7))
    @pytest.mark.parametrize("zero_total", [False, True])
    @pytest.mark.parametrize("which", list(Which))
    def test_whole_runs_match_a_classical_rk4(self, which, n_vortices, zero_total):
        # 500 steps of integrate against 500 classical steps of the one-shot
        # field: integrate rounds its sums in another order, and the gap
        # stays within 1e-13 of max|state| over every sample.  The bound
        # tells a fault from rounding only on a run that rounding does not
        # move, so a configuration is taken only if moving every start
        # coordinate by one ulp moves its classical run by at most 1e-15 of
        # max|state|; the reduced zero-total run of the first seed at N = 4
        # moves by 1.4e-13 (integrate's gap there is 0.99 of the bound), and
        # the next seed is taken there.  With one BLAS thread on x86-64 the
        # gaps taken are at most 3e-16 of max|state|, 300 times under the
        # bound; a gap near the bound is a fault, not rounding
        dt, steps = 1e-3, 500
        for seed in itertools.count(30 + 2 * n_vortices + zero_total, 100):
            cfg = separated_configuration(np.random.default_rng(seed), n_vortices, zero_total)
            n = cfg.circ.n
            if which is Which.FULL:
                x = cfg.as_array().view(float)

                def field(x):
                    q = VortexConfiguration(tuple(x.view(complex)), cfg.circ)
                    return full_vector_field(q).view(float)
            else:
                mu = moment_map(relative_coordinates(cfg))
                x = unflatten(flatten(mu), n).entries.view(float).ravel()

                def field(x):
                    mu = MuMatrix(x.view(complex).reshape(n, n))
                    return lie_poisson_vector_field(mu, cfg.circ).entries.view(float).ravel()

            classical = self.classical_run(field, x, dt, steps)
            moved = self.classical_run(field, np.nextafter(x, np.inf), dt, steps)
            if np.abs(moved - classical).max() <= 1e-15 * np.abs(classical).max():
                break
        if which is Which.REDUCED:
            classical = np.array([flatten(MuMatrix(y.view(complex).reshape(n, n))) for y in classical])
        else:
            classical = classical.view(complex)
        traj = integrate(cfg, cfg.circ, t_end=steps * dt, dt=dt, which=which)
        assert not traj.aborted and len(traj) == steps + 1
        gap = np.abs(traj.states - classical).max()
        assert gap <= 1e-13 * np.abs(traj.states).max(), gap / np.abs(traj.states).max()


# Traced bytes one RK4 step allocates and frees again, at most: the stage
# inputs, the core outputs and the cores' scratch are allocated once per run
# and each product reads one contiguous row or block, so what is left is the
# domain test's scalars (argmin's result and its item) and the view numpy
# takes of the sample row written.  Measured at N = 4: 200 bytes for both
# systems; the budget adds 48 bytes.  A product that reads strided rows
# makes numpy copy them first (224 bytes for a pair of rows of the full
# state at N = 4, 384 of the reduced one), and a stage that makes a new
# stage input and new s, 1/s, (1/s) Rk, A and views each time makes a step
# allocate 3416 and 3208.
STEP_TRANSIENT_BYTES = 248


class TestStepping:
    """integrate builds its right-hand side once, calls its stages four times
    a step and steps in buffers allocated once per run; both the operator and
    its stages are spied on where dynamics binds them, as a tracer does."""

    @staticmethod
    def spied_run(monkeypatch, which, steps):
        """A traced integrate at N = 4 with the operator's constructor and
        each stage spied on.  Returns the circulation sets built, the run's
        circulation set, the number of stage calls, the memory held at each
        stage and, at each step's first stage, the traced peak since the
        previous step's first stage over the memory held there."""
        import itertools
        import tracemalloc

        name = "_FullField" if which is Which.FULL else "_ReducedField"
        built, calls = [], itertools.count()
        held = np.zeros(4 * steps + 1, dtype=np.int64)
        excess = np.zeros(steps + 1, dtype=np.int64)

        class Spied(getattr(dynamics, name)):
            def __init__(self, circ):
                built.append(circ)
                super().__init__(circ)

            def stages(self, *args):
                def spy(i, stage):
                    def spied():
                        call = next(calls)
                        current, peak = tracemalloc.get_traced_memory()
                        held[call] = current
                        if i == 0:
                            excess[call // 4] = peak - current
                            tracemalloc.reset_peak()
                        return stage()

                    return spied

                return [spy(i, stage) for i, stage in enumerate(super().stages(*args))]

        monkeypatch.setattr(dynamics, name, Spied)
        dynamics._right_hand_side.cache_clear()
        cfg = separated_configuration(np.random.default_rng(72), 4)
        tracemalloc.start()
        try:
            traj = integrate(cfg, cfg.circ, t_end=steps * 1e-3, dt=1e-3, which=which)
        finally:
            tracemalloc.stop()
            dynamics._right_hand_side.cache_clear()
        assert not traj.aborted and len(traj) == steps + 1
        return built, cfg.circ, next(calls), held, excess

    @pytest.mark.parametrize("which", list(Which))
    def test_one_operator_four_calls_a_step_and_no_growth(self, monkeypatch, which):
        steps = 300
        built, circ, calls, held, _ = self.spied_run(monkeypatch, which, steps)
        assert built == [circ]
        assert calls == 4 * steps
        # the memory held at the first stage of a step does not grow with the
        # steps: no per-step list of arrays (one array of 2n^2 floats and its
        # list slot alone would add 300 x 128 bytes)
        first_stages = held[4 : 4 * steps : 4]
        assert first_stages.max() - first_stages.min() < 2048, np.diff(first_stages)

    @pytest.mark.parametrize("which", list(Which))
    def test_a_step_allocates_no_arrays(self, monkeypatch, which):
        # the peak of each whole step (the first is the run's set-up, the
        # last is not read) over the memory held at its first stage
        steps = 50
        *_, excess = self.spied_run(monkeypatch, which, steps)
        assert excess[1:steps].max() < STEP_TRANSIENT_BYTES, excess[1:steps]


# profiler events ("call" and "c_call") per RK4 step at N = 4, as the
# stepping loop makes them: the products (full: the four gathers of the
# pairs of conj(d) and the three stage inputs; reduced: the gather of the
# first log arguments and the three stage inputs), the reduced cores' calls
# with their two dots each (a full core is a division with its arguments
# bound, and a ufunc makes no event), the domain test's call with its argmin
# and item, and the end's weighted sum and scatter.  A lookup, index, slice
# assignment or branch adds no event; a helper or method call in every core
# adds four
STEP_EVENTS = {Which.FULL: 12, Which.REDUCED: 21}


class TestWorkPerStep:
    @pytest.mark.parametrize("which", list(Which))
    def test_profiler_events_per_step(self, which):
        # a 20-step run minus a 10-step run: the set-up and the invariants
        # over the samples make as many events in both.  The collector is
        # kept out of the profiled runs: a collection inside one runs the
        # callbacks in gc.callbacks (hypothesis installs one), which add
        # events that no step makes
        import gc
        import sys

        cfg = separated_configuration(np.random.default_rng(75), 4)

        def events(steps):
            counted = {"call": 0, "c_call": 0}

            def profile(frame, event, arg):
                if event in counted:
                    counted[event] += 1

            integrate(cfg, cfg.circ, t_end=steps * 1e-3, dt=1e-3, which=which)
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                traj = integrate(cfg, cfg.circ, t_end=steps * 1e-3, dt=1e-3, which=which)
            finally:
                sys.setprofile(None)
                gc.enable()
            assert not traj.aborted and len(traj) == steps + 1
            return counted["call"] + counted["c_call"]

        per_step = (events(20) - events(10)) / 10
        assert per_step <= STEP_EVENTS[which], per_step


class TestThreads:
    @pytest.mark.parametrize("which", list(Which))
    def test_two_runs_of_one_circulation_set_at_once(self, which):
        # two threads step two states of one circulation set through the one
        # memoised operator; scratch held by the operator would mix them.  A
        # short switch interval interleaves the runs' stages
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(94)
        first = separated_configuration(rng, 5)
        q = separated_configuration(rng, 5).as_array()
        cfgs = [first, VortexConfiguration(tuple(q), first.circ)]
        start = threading.Barrier(2)

        def run(cfg):
            start.wait()
            return integrate(cfg, cfg.circ, t_end=0.4, dt=1e-3, which=which)

        dynamics._right_hand_side.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                together = list(pool.map(run, cfgs))
        finally:
            sys.setswitchinterval(interval)
        for cfg, traj in zip(cfgs, together):
            alone = integrate(cfg, cfg.circ, t_end=0.4, dt=1e-3, which=which)
            assert not traj.aborted and len(traj) == len(alone) == 401
            for column in ("states", "hamiltonian", "casimirs", "residual_max"):
                np.testing.assert_array_equal(getattr(traj, column), getattr(alone, column))


def stacked_configurations(n_vortices, zero_total):
    """Seven random configurations of one circulation set, as one stack."""
    rng = np.random.default_rng(10 * n_vortices + zero_total)
    circ = separated_configuration(rng, n_vortices, zero_total).circ
    q = np.array([separated_configuration(rng, n_vortices).as_array() for _ in range(7)])
    return VortexConfiguration(q, circ)


STACK_CASES = [(m, z) for m in range(3, 7) for z in (False, True)]


class TestStackedFormulas:
    """Each public formula on a stack of samples equals a loop of its
    single-sample calls."""

    @pytest.mark.parametrize("n_vortices,zero_total", STACK_CASES)
    def test_stack_equals_loop(self, n_vortices, zero_total):
        cfgs = stacked_configurations(n_vortices, zero_total)
        circ = cfgs.circ
        singles = [VortexConfiguration(tuple(q), circ) for q in cfgs.as_array()]
        mus = moment_map(relative_coordinates(cfgs))
        single_mus = [moment_map(relative_coordinates(c)) for c in singles]
        np.testing.assert_array_equal(mus.entries, [m.entries for m in single_mus])
        u = flatten(mus)
        np.testing.assert_array_equal(u, [flatten(m) for m in single_mus])
        np.testing.assert_array_equal(
            unflatten(u, circ.n).entries, [unflatten(v, circ.n).entries for v in u]
        )
        np.testing.assert_array_equal(
            constraint_system(circ.n).values(u), [constraint_residuals(m) for m in single_mus]
        )
        k = build_coupling_matrix(circ)
        js = range(1, circ.n + 1)
        np.testing.assert_allclose(
            casimir_values(mus, k, js), [casimir_values(m, k, js) for m in single_mus], rtol=1e-13
        )
        np.testing.assert_allclose(
            reduced_system(circ).value(u), [reduced_hamiltonian(m, circ) for m in single_mus],
            rtol=1e-13,
        )
        np.testing.assert_array_equal(full_hamiltonian(cfgs), [full_hamiltonian(c) for c in singles])

    @pytest.mark.parametrize("n_vortices,zero_total", STACK_CASES)
    def test_reduced_samples_are_skew_hermitian_to_the_last_bit(
        self, monkeypatch, n_vortices, zero_total
    ):
        # integrate takes its reduced samples as skew-Hermitian without
        # checking them.  A step's end scatters the weighted sum b of the
        # stages' pairs of A with S: the real parts of entries (i, j) and
        # (j, i) of b S are the same two terms of b negated, its imaginary
        # parts the same two terms, and the real diagonal is a zero column.
        # Adding the state entry by entry keeps that, since negation
        # commutes with every rounding.  A coarse step, so that every
        # stage's rounding shows
        seen = []
        build = MuMatrix._skew_by_construction.__func__

        def spy(cls, entries):
            seen.append(entries.copy())
            return build(cls, entries)

        monkeypatch.setattr(MuMatrix, "_skew_by_construction", classmethod(spy))
        rng = np.random.default_rng(20 + 2 * n_vortices + zero_total)
        cfg = separated_configuration(rng, n_vortices, zero_total)
        traj = integrate(cfg, cfg.circ, t_end=0.5, dt=0.01)
        (samples,) = seen
        assert not traj.aborted and samples.shape == (51, cfg.circ.n, cfg.circ.n)
        np.testing.assert_array_equal(samples.conj().swapaxes(-1, -2), -samples)

    def test_stack_checks_name_the_first_failing_sample(self):
        cfgs = stacked_configurations(4, False)
        q = cfgs.as_array().copy()
        q[3, 1] = q[3, 0] + 1e-12
        q[5, 2] = q[5, 0]
        with pytest.raises(Collision) as info:
            VortexConfiguration(q, cfgs.circ)
        assert info.value.sample == 3
        u = flatten(moment_map(relative_coordinates(cfgs)))
        u[4, 0] = -1.0
        with pytest.raises(DomainError) as info:
            reduced_system(cfgs.circ).value(u)
        assert info.value.sample == 4
        entries = unflatten(u, cfgs.circ.n).entries.copy()
        entries[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="skew-Hermitian"):
            MuMatrix(entries)

    @pytest.mark.parametrize("which", list(Which))
    def test_invariant_columns_are_per_sample_formulas(self, which):
        cfg = separated_configuration(np.random.default_rng(70), 5)
        circ = cfg.circ
        traj = integrate(cfg, circ, t_end=0.3, dt=1e-3, which=which)
        k = build_coupling_matrix(circ)
        for i in range(0, len(traj), 30):
            if which is Which.REDUCED:
                mu = unflatten(traj.states[i], circ.n)
                h = reduced_hamiltonian(mu, circ)
            else:
                at = VortexConfiguration(tuple(traj.states[i]), circ)
                mu = moment_map(relative_coordinates(at))
                h = full_hamiltonian(at)
            assert traj.hamiltonian[i] == pytest.approx(h, rel=1e-13, abs=0)
            cas = casimir_values(mu, k, range(1, circ.n + 1))
            np.testing.assert_allclose(traj.casimirs[i], cas, rtol=1e-13, atol=0)
            res = np.abs(constraint_residuals(mu)).max()
            assert traj.residual_max[i] == pytest.approx(res, rel=1e-13, abs=0)


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
