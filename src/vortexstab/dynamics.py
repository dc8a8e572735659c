"""Vortex dynamics: full ODE, relative coordinates, moment map, RK4 driver."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import Circulations, MuMatrix, Regime, build_coupling_matrix, flatten, unflatten
from .algebra import flatten_stack, unflatten_stack
from .errors import Collision, DimensionMismatch, DomainError, EmptyTrajectory
from .hamiltonian import (
    COLLISION_TOL,
    VortexConfiguration,
    full_hamiltonian,
    gradient_entries,
    gradient_matrix,
    reduced_system,
)


@dataclass(frozen=True)
class RelativeCoordinates:
    """Positions relative to the reference vortex (last, or second-to-last
    when the total circulation vanishes)."""

    z: tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        arr = np.asarray(z)
        d = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(d, np.inf)
        if np.abs(arr).min(initial=np.inf) <= COLLISION_TOL or d.min(initial=np.inf) <= COLLISION_TOL:
            raise Collision("coincident vortices in relative coordinates")
        object.__setattr__(self, "z", z)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.z, dtype=complex)


def _velocities(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dq_i/dt = (i/2pi) sum_j G_j (q_i - q_j) / |q_i - q_j|^2, raising
    Collision when two vortices are within COLLISION_TOL."""
    diff = q[:, None] - q[None, :]
    d2 = np.abs(diff) ** 2
    np.fill_diagonal(d2, 1.0)
    if d2.min() <= COLLISION_TOL**2:
        raise Collision(f"minimum vortex separation {np.sqrt(d2.min()):.3e}")
    kernel = diff / d2
    np.fill_diagonal(kernel, 0.0)
    return (1j / (2.0 * np.pi)) * (kernel @ g)


def full_vector_field(cfg: VortexConfiguration) -> np.ndarray:
    """Right-hand side of the point-vortex ODE, dq_i/dt."""
    return _velocities(cfg.as_array(), cfg.circ.as_array())


def relative_coordinates(cfg: VortexConfiguration) -> RelativeCoordinates:
    """z_i = q_i - q_ref with the regime-dependent reference vortex."""
    q = cfg.as_array()
    if cfg.circ.regime is Regime.NON_ZERO_TOTAL:
        ref = len(q) - 1
    else:
        ref = len(q) - 2
    z = np.delete(q, [ref] if cfg.circ.regime is Regime.NON_ZERO_TOTAL else [ref, len(q) - 1]) - q[ref]
    return RelativeCoordinates(tuple(z))


def moment_map(z: RelativeCoordinates) -> MuMatrix:
    """mu = i z z^*, the rank-one shape matrix of a relative configuration."""
    arr = z.as_array()
    return MuMatrix(1j * np.outer(arr, arr.conj()))


def _lie_poisson_entries(m: np.ndarray, g: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    """X_h = A^H - A with A = mu (dh/dmu) K^-1, skew-Hermitian to the last bit."""
    a = m @ g @ kinv
    return a.conj().T - a


def lie_poisson_vector_field(mu: MuMatrix, circ: Circulations) -> MuMatrix:
    """X_h(mu) = -mu (dh/dmu) K^-1 + K^-1 (dh/dmu) mu."""
    if mu.n != circ.n:
        raise DimensionMismatch(f"mu is {mu.n}x{mu.n}, circulations give n={circ.n}")
    sys = reduced_system(circ)
    g = gradient_matrix(sys.gradient(flatten(mu)), circ.n).entries
    kinv = build_coupling_matrix(circ).k_inv
    return MuMatrix(_lie_poisson_entries(mu.entries, g, kinv))


class Which(enum.Enum):
    FULL = "full"
    REDUCED = "reduced"


@dataclass
class Trajectory:
    """Fixed-step trajectory samples with per-sample invariant records."""

    which: Which
    times: np.ndarray
    states: np.ndarray              # (samples, dim); real coords or complex positions
    hamiltonian: np.ndarray
    casimirs: np.ndarray            # (samples, n)
    residual_max: np.ndarray        # sup-norm of the rank-one constraint residuals
    n: int
    aborted: bool = False
    abort_reason: str = ""

    def __len__(self) -> int:
        return len(self.times)


def _reduced_rhs(circ: Circulations):
    sys = reduced_system(circ)
    kinv = build_coupling_matrix(circ).k_inv
    n = circ.n

    def rhs(u: np.ndarray) -> np.ndarray:
        g = gradient_entries(sys.gradient(u), n)
        return flatten_stack(_lie_poisson_entries(unflatten_stack(u, n), g, kinv))

    return rhs


def integrate(
    initial: np.ndarray | VortexConfiguration,
    circ: Circulations,
    t_end: float,
    dt: float,
    which: Which = Which.REDUCED,
) -> Trajectory:
    """Classical RK4 with invariant monitoring.

    ``initial`` is a flattened shape vector for the reduced system or a
    :class:`VortexConfiguration` (or complex position array) for the full one.
    Mid-trajectory collisions or domain errors truncate the trajectory and set
    the abort flag.
    """
    from .constraints import casimir_values, constraint_system

    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n = circ.n
    k = build_coupling_matrix(circ)
    csys = constraint_system(n)

    if which is Which.REDUCED:
        if isinstance(initial, VortexConfiguration):
            state = flatten(moment_map(relative_coordinates(initial)))
        else:
            state = np.asarray(initial, dtype=float).copy()
            if state.shape != (n * n,):
                raise DimensionMismatch("reduced state must have length n**2")
        rhs = _reduced_rhs(circ)
        sys = reduced_system(circ)

        def observe(u):
            mu = unflatten(u, n)
            res = csys.values(flatten(mu))
            cas = casimir_values(mu, k, range(1, n + 1))
            return sys.value(u), cas, float(np.abs(res).max(initial=0.0))

    else:
        if isinstance(initial, VortexConfiguration):
            state = initial.as_array().copy()
        else:
            state = np.asarray(initial, dtype=complex).copy()
        g = circ.as_array()

        def rhs(q):
            return _velocities(q, g)

        def observe(q):
            cfg = VortexConfiguration(tuple(q), circ)
            mu = moment_map(relative_coordinates(cfg))
            res = csys.values(flatten(mu))
            cas = casimir_values(mu, k, range(1, n + 1))
            return full_hamiltonian(cfg), cas, float(np.abs(res).max(initial=0.0))

    steps = int(round(t_end / dt))
    times = [0.0]
    states = [state.copy()]
    hams, cass, ress = [], [], []
    aborted = False
    reason = ""
    h0, c0, r0 = observe(state)
    hams.append(h0)
    cass.append(c0)
    ress.append(r0)
    for s in range(steps):
        try:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            hv, cv, rv = observe(state)
        except (Collision, DomainError) as exc:
            aborted = True
            reason = f"{type(exc).__name__}: {exc}"
            break
        times.append((s + 1) * dt)
        states.append(state.copy())
        hams.append(hv)
        cass.append(cv)
        ress.append(rv)
    return Trajectory(
        which=which,
        times=np.asarray(times),
        states=np.asarray(states),
        hamiltonian=np.asarray(hams),
        casimirs=np.asarray(cass),
        residual_max=np.asarray(ress),
        n=n,
        aborted=aborted,
        abort_reason=reason,
    )


@dataclass(frozen=True)
class DriftReport:
    """Max and final deviations of each monitored invariant from its start."""

    casimir_max: np.ndarray
    casimir_final: np.ndarray
    hamiltonian_max: float
    hamiltonian_final: float
    residual_max: float
    residual_final: float


def invariant_drift_report(traj: Trajectory) -> DriftReport:
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    cdrift = np.abs(traj.casimirs - traj.casimirs[0])
    hdrift = np.abs(traj.hamiltonian - traj.hamiltonian[0])
    return DriftReport(
        casimir_max=cdrift.max(axis=0),
        casimir_final=cdrift[-1],
        hamiltonian_max=float(hdrift.max()),
        hamiltonian_final=float(hdrift[-1]),
        residual_max=float(traj.residual_max.max()),
        residual_final=float(traj.residual_max[-1]),
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a reduced trajectory as CSV with round-trip decimal formatting.

    ``path`` may be a filesystem path or an open text stream.
    """
    if traj.which is not Which.REDUCED:
        raise ValueError("CSV export is defined for reduced trajectories")
    n = traj.n
    header = (
        ["t"]
        + [f"coord_{i}" for i in range(n * n)]
        + ["H"]
        + [f"C{j}" for j in range(1, n + 1)]
        + ["Rmax"]
    )

    def write(fh):
        fh.write(",".join(header) + "\n")
        for i in range(len(traj)):
            row = (
                [traj.times[i]]
                + list(traj.states[i])
                + [traj.hamiltonian[i]]
                + list(traj.casimirs[i])
                + [traj.residual_max[i]]
            )
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    if hasattr(path, "write"):
        write(path)
    else:
        with open(path, "w") as fh:
            write(fh)
