"""An oracle for "certified-stable" that shares no code with ``vortexstab``:
the energy-momentum test in the vortex positions, in numpy only.

In positions q in R^2N (the rows of ``x``), F = H + lam I + mu . P with
H = -(1/4pi) sum_{i<j} G_i G_j ln|q_i - q_j|^2, I = sum G_i |q_i - c|^2
about the center of vorticity c, and P = sum G_i q_i.  (lam, mu) are fitted
by least squares from grad F = 0.  Hess F is restricted to the 2N - 4
directions tangent to the level sets of I and P and orthogonal to the
rotation i(q - c), the dimension of the symplectic leaf of the reduced
system at nonzero total circulation; a relative equilibrium is certified
exactly when that matrix is definite, of either sign (the reduced
energy-momentum method; Simo, Lewis & Marsden 1991).  P is linear, so mu
adds nothing to the Hessian, and holding c fixed changes Hess I only by a
multiple of the products of DP, which vanish on the restricted directions.

The zero-total regime, where P does not fix the center and the
translations must be quotiented, is outside this oracle.
"""

import numpy as np

# definite: every eigenvalue of one sign, beyond this share of the largest
DEFINITE_SHARE = 1e-9


def restricted_energy_momentum(q, gammas):
    """The restricted Hess F, (2N - 4) x (2N - 4), with the fit's residual
    max|grad F| and the size of the terms of grad H it is measured against."""
    q, g = np.asarray(q, dtype=complex), np.asarray(gammas, dtype=float)
    count = len(q)
    x = np.stack([q.real, q.imag], axis=-1)
    i, j = np.triu_indices(count, 1)
    r = x[i] - x[j]
    s = (r**2).sum(axis=-1)
    kappa = -g[i] * g[j] / (4 * np.pi)
    # ln s: gradient 2 r / s, Hessian 2 (s I - 2 r r^T) / s^2
    pair_grad = (2 * kappa / s)[:, None] * r
    pair_hess = (2 * kappa / s**2)[:, None, None] * (
        s[:, None, None] * np.eye(2) - 2 * r[:, :, None] * r[:, None, :]
    )
    grad, size = np.zeros((count, 2)), np.zeros(count)
    np.add.at(grad, i, pair_grad)
    np.add.at(grad, j, -pair_grad)
    np.add.at(size, i, np.abs(pair_grad).sum(axis=-1))
    np.add.at(size, j, np.abs(pair_grad).sum(axis=-1))
    hess = np.zeros((count, count, 2, 2))
    for a, b, sign in ((i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)):
        np.add.at(hess, (a, b), sign * pair_hess)
    hess = hess.transpose(0, 2, 1, 3).reshape(2 * count, 2 * count)
    c = (g[:, None] * x).sum(axis=0) / g.sum()
    grad_i = (2 * g[:, None] * (x - c)).ravel()
    grad_px = np.stack([g, np.zeros(count)], axis=-1).ravel()
    grad_py = np.stack([np.zeros(count), g], axis=-1).ravel()
    momenta = np.stack([grad_i, grad_px, grad_py], axis=-1)
    coef = np.linalg.lstsq(momenta, -grad.ravel(), rcond=None)[0]
    residual = np.abs(grad.ravel() + momenta @ coef).max()
    hess_f = hess + coef[0] * np.kron(np.diag(2 * g), np.eye(2))
    rotation = np.stack([-(x[:, 1] - c[1]), x[:, 0] - c[0]], axis=-1).ravel()
    fixed = np.concatenate([momenta, rotation[:, None]], axis=-1)
    free = np.linalg.qr(fixed, mode="complete")[0][:, 4:]
    return free.T @ hess_f @ free, residual, size.max()


def definite(matrix):
    """Whether a symmetric matrix is definite of either sign, every
    eigenvalue beyond DEFINITE_SHARE of the largest in size."""
    eig = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    tol = DEFINITE_SHARE * np.abs(eig).max(initial=0.0)
    return len(eig) > 0 and bool(np.all(eig > tol) or np.all(eig < -tol))
