"""Independent oracles for the benchmark's correctness checks.

Each oracle recomputes a quantity from the physics with numpy or scipy alone,
without calling into ``vortexstab``:

(a) ``full_space_max_real_part`` linearizes the full point-vortex field in the
    frame rotating with the relative equilibrium, with the angular velocity
    fitted from the velocities at the equilibrium;
(b) ``dop853_shape_matrix`` integrates the full ODE with scipy's DOP853 at
    tight tolerance and maps the end state through mu = i z z*;
(c) ``cholesky_minors`` gets the leading principal minors of a symmetric
    matrix as cumulative products of Cholesky pivots.
"""

from __future__ import annotations

import numpy as np

# A spectrum counts as linearly unstable when its largest real part exceeds
# this share of the largest eigenvalue modulus.  Zero eigenvalues of the
# symmetry directions sit in Jordan blocks, which double precision resolves
# only to about sqrt(eps) ~ 1.5e-8 of the spectral scale, so the threshold
# is two orders of magnitude above that.
UNSTABLE_SHARE = 1e-6


def full_velocity(q: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """dq_i/dt = (i / 2 pi) sum_{j != i} Gamma_j / conj(q_i - q_j)."""
    d = q[:, None] - q[None, :]
    np.fill_diagonal(d, 1.0)
    terms = gammas[None, :] / np.conj(d)
    np.fill_diagonal(terms, 0.0)
    return (1j / (2.0 * np.pi)) * terms.sum(axis=1)


def fit_rotation(q: np.ndarray, gammas: np.ndarray) -> tuple[float, complex, float]:
    """Least-squares fit of the rigid motion dq/dt = i Omega q + w.

    Returns Omega, w and the sup-norm of the fit residual relative to the
    largest speed, which is ~eps at a relative equilibrium.
    """
    v = full_velocity(q, gammas)
    n = len(q)
    # unknowns (Omega, Re w, Im w); i Omega q = Omega * (-Im q, Re q)
    a = np.zeros((2 * n, 3))
    a[:n, 0] = -q.imag
    a[n:, 0] = q.real
    a[:n, 1] = 1.0
    a[n:, 2] = 1.0
    b = np.concatenate([v.real, v.imag])
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = np.abs(a @ sol - b).max() / max(np.abs(v).max(), 1e-300)
    return float(sol[0]), complex(sol[1], sol[2]), float(resid)


def full_space_jacobian(q: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Real 2N x 2N Jacobian of the full field in the rotating frame.

    Coordinates are (x_1..x_N, y_1..y_N).  The field is antiholomorphic in
    each difference d = q_i - q_j, so d(1/conj d) = -conj(dd) / conj(d)^2.
    """
    q = np.asarray(q, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    omega, _, _ = fit_rotation(q, gammas)
    n = len(q)
    d = q[:, None] - q[None, :]
    np.fill_diagonal(d, 1.0)
    c = -(1j / (2.0 * np.pi)) * gammas[None, :] / np.conj(d) ** 2
    np.fill_diagonal(c, 0.0)
    cmat = np.diag(c.sum(axis=1)) - c  # dF_i = sum_k cmat_ik conj(dq_k)
    jac = np.block([[cmat.real, cmat.imag], [cmat.imag, -cmat.real]])
    eye = np.eye(n)
    rotation = np.block([[np.zeros((n, n)), -omega * eye], [omega * eye, np.zeros((n, n))]])
    return jac - rotation


def full_space_max_real_part(q, gammas) -> tuple[float, float]:
    """Largest real part and largest modulus of the rotating-frame spectrum."""
    ev = np.linalg.eigvals(full_space_jacobian(q, gammas))
    return float(ev.real.max()), float(np.abs(ev).max())


def unstable(max_real: float, scale: float) -> bool:
    return max_real > UNSTABLE_SHARE * max(scale, 1e-300)


def shape_matrix_coordinates(q: np.ndarray) -> np.ndarray:
    """Flattened mu = i z z* of relative positions z_i = q_i - q_N.

    Order: |z_k|^2, then (Re, Im) of z_j conj(z_k) for j < k row-major,
    the coordinates of the Hermitian matrix M = -i mu = z z*.
    """
    z = q[:-1] - q[-1]
    m = np.outer(z, z.conj())
    n = len(z)
    out = [m[k, k].real for k in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            out.extend((m[j, k].real, m[j, k].imag))
    return np.asarray(out)


def dop853_positions(q0, gammas, t_end: float, tol: float = 1e-12) -> np.ndarray:
    """Positions at t_end from scipy's DOP853 on the full ODE."""
    from scipy.integrate import solve_ivp

    q0 = np.asarray(q0, dtype=complex)
    gammas = np.asarray(gammas, dtype=float)
    n = len(q0)

    def rhs(_t, y):
        v = full_velocity(y[:n] + 1j * y[n:], gammas)
        return np.concatenate([v.real, v.imag])

    sol = solve_ivp(
        rhs, (0.0, t_end), np.concatenate([q0.real, q0.imag]),
        method="DOP853", rtol=tol, atol=tol,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:n] + 1j * y[n:]


def cholesky_minors(h: np.ndarray) -> np.ndarray:
    """Leading principal minors as cumulative products of Cholesky pivots.

    Raises numpy.linalg.LinAlgError when h is not positive definite.
    """
    low = np.linalg.cholesky(np.asarray(h, dtype=float))
    return np.cumprod(np.diag(low) ** 2)


def minors_agree(reported, h, rel: float = 1e-6) -> bool:
    """True when the reported minors equal the Cholesky pivot products."""
    try:
        ref = cholesky_minors(h)
    except np.linalg.LinAlgError:
        return False
    got = np.asarray(reported, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= rel * np.abs(ref)))
