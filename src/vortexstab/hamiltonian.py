"""Vortex Hamiltonians: full-space, reduced, and the reduced matrix gradient.

Both reduced Hamiltonians (nonzero and zero total circulation) are sums of
terms ``-(1/4pi) * w_t * ln(c_t . u)`` where ``u`` is the coordinate vector of
the shape matrix and each ``c_t`` is a constant linear form (a squared
inter-vortex distance expressed in shape coordinates).  Gradients and Hessians
are therefore exact closed forms.

The zero-total-circulation Hamiltonian assumes zero linear impulse, which is
how the positions of the two reference vortices are recovered from the
relative coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import Circulations, MuMatrix, Regime, flatten, pair_indices, unflatten_stack
from .errors import Collision, DimensionMismatch, DomainError

COLLISION_TOL = 1e-9
LOG_FLOOR = 1e-300
FOUR_PI = 4.0 * np.pi


def min_separation(q: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance among the points on the last axis of ``q``
    (leading axes index samples); inf for a single point."""
    d = np.abs(q[..., :, None] - q[..., None, :])
    diagonal = np.arange(q.shape[-1])
    d[..., diagonal, diagonal] = np.inf
    return d.min(axis=(-2, -1), initial=np.inf)


def check_separation(sep: np.ndarray, what: str) -> None:
    """Raise Collision for the first sample whose separation is within COLLISION_TOL."""
    close = sep <= COLLISION_TOL
    if close.any():
        first = int(np.argmax(close))
        raise Collision(f"minimum {what} separation {sep.flat[first]:.3e}", sample=first)


@dataclass(frozen=True)
class VortexConfiguration:
    """Planar vortex positions (as complex numbers) with their circulations.

    ``positions`` holds one configuration as a tuple, or a stack of them as a
    read-only complex array of shape (samples, N).
    """

    positions: tuple[complex, ...] | np.ndarray
    circ: Circulations

    def __post_init__(self):
        q = np.array(self.positions, dtype=complex)
        if q.ndim == 0 or q.shape[-1] != self.circ.N:
            raise DimensionMismatch("positions and circulations differ in length")
        check_separation(min_separation(q), "vortex")
        q.setflags(write=False)
        object.__setattr__(self, "positions", tuple(q.tolist()) if q.ndim == 1 else q)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=complex)


@lru_cache(maxsize=None)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, built once per size."""
    rows, cols = np.triu_indices(size, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _weighted_log_sum(w: np.ndarray, s: np.ndarray) -> float | np.ndarray:
    """-(1/4pi) sum_t w_t ln s_t over the last axis of s.  A stack of
    contiguous rows gives each sample the same bits as a single dot product
    (BLAS sums a strided row in another order)."""
    h = -(w @ np.ascontiguousarray(np.log(s))[..., None])[..., 0] / FOUR_PI
    return h if h.ndim else float(h)


def full_hamiltonian(cfg: VortexConfiguration) -> float | np.ndarray:
    """H(q) = -(1/4pi) sum_{i<j} G_i G_j ln|q_i - q_j|^2, one value per
    configuration of a stack."""
    q = cfg.as_array()
    g = cfg.circ.as_array()
    i, j = _upper_pairs(q.shape[-1])
    return _weighted_log_sum(g[i] * g[j], np.abs(q[..., i] - q[..., j]) ** 2)


class ReducedHamiltonian:
    """Reduced Hamiltonian of a circulation set in log-linear-form shape.

    ``value``/``gradient``/``hessian`` act on the flattened coordinate vector
    ``u`` of length ``n**2``; ``value`` also on a stack of them.
    """

    def __init__(self, circ: Circulations):
        self.circ = circ
        self.n = circ.n
        forms, weights = _log_terms(circ)
        self._forms = forms          # (terms, n**2)
        self._weights = weights      # (terms,)

    def _arguments(self, u: np.ndarray) -> np.ndarray:
        s = (self._forms @ u[..., None])[..., 0]
        low = s <= LOG_FLOOR
        if low.any():
            first = int(np.argmax(low.any(axis=-1)))
            smallest = s.reshape(-1, s.shape[-1])[first].min()
            raise DomainError(
                f"squared distance {smallest:.3e} in reduced Hamiltonian", sample=first
            )
        return s

    def value(self, u: np.ndarray) -> float | np.ndarray:
        return _weighted_log_sum(self._weights, self._arguments(u))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        s = self._arguments(u)
        return -(self._forms.T @ (self._weights / s)) / FOUR_PI

    def hessian(self, u: np.ndarray) -> np.ndarray:
        s = self._arguments(u)
        return (self._forms.T * (self._weights / s**2)) @ self._forms / FOUR_PI


def _log_terms(circ: Circulations) -> tuple[np.ndarray, np.ndarray]:
    """Linear forms (squared distances) and circulation-product weights."""
    g = circ.as_array()
    n = circ.n
    pairs = pair_indices(n)
    pos = {p: n + 2 * k for k, p in enumerate(pairs)}

    def x_index(i: int, j: int) -> int:
        return pos[(i, j) if i < j else (j, i)]

    forms: list[np.ndarray] = []
    weights: list[float] = []

    def add(w: float, c: np.ndarray):
        forms.append(c)
        weights.append(w)

    # pairs (i, ref) with the reference vortex ref = n + 1 (N, or N-1 when the
    # total circulation vanishes): |z_i|^2 = mu_i
    for i in range(n):
        c = np.zeros(n * n)
        c[i] = 1.0
        add(g[i] * g[n], c)
    if circ.regime is Regime.ZERO_TOTAL:
        gN = g[n + 1]
        # pairs (i, N): q_N recovered from zero linear impulse,
        # |z_i - w|^2 with w = -(1/G_N) sum_j G_j z_j
        for i in range(n):
            c = np.zeros(n * n)
            c[i] = (g[i] + gN) ** 2
            for j in range(n):
                if j == i:
                    continue
                c[j] = g[j] ** 2
                c[x_index(i, j)] += 2.0 * (g[i] + gN) * g[j]
            for (j, k) in pairs:
                if i in (j, k):
                    continue
                c[x_index(j, k)] += 2.0 * g[j] * g[k]
            add(g[i] * gN, c / gN**2)
        # pair (N-1, N): |w|^2
        c = np.zeros(n * n)
        for i in range(n):
            c[i] = g[i] ** 2
        for (j, k) in pairs:
            c[x_index(j, k)] = 2.0 * g[j] * g[k]
        add(g[n] * gN, c / gN**2)

    # pairs among vortices 1..n: |z_i - z_j|^2 = mu_i + mu_j - 2 x_ij
    for (i, j) in pairs:
        c = np.zeros(n * n)
        c[i] = 1.0
        c[j] = 1.0
        c[pos[(i, j)]] = -2.0
        add(g[i] * g[j], c)

    return np.array(forms), np.array(weights)


@lru_cache(maxsize=None)
def reduced_system(circ: Circulations) -> ReducedHamiltonian:
    return ReducedHamiltonian(circ)


def gradient_entries(grad: np.ndarray, n: int) -> np.ndarray:
    """Entries of :func:`gradient_matrix` over the last axis of a stack of
    flattened gradients."""
    scaled = np.array(grad, dtype=float)
    scaled[..., :n] *= 2.0
    return unflatten_stack(scaled, n)


def gradient_matrix(grad: np.ndarray, n: int) -> MuMatrix:
    """Assemble the matrix derivative from the flattened gradient.

    Diagonal entry k is ``2i * dh/dmu_k``; off-diagonal (j, k) with j < k is
    ``i*(dh/dx_jk + i dh/dy_jk)``.  The result pairs with any direction nu to
    give the directional derivative of h.
    """
    return MuMatrix(gradient_entries(grad, n))


def _check_dim(mu: MuMatrix, circ: Circulations):
    if mu.n != circ.n:
        raise DimensionMismatch(f"mu is {mu.n}x{mu.n}, circulations give n={circ.n}")


def reduced_hamiltonian(mu: MuMatrix, circ: Circulations) -> float:
    """Reduced Hamiltonian h(mu); satisfies h(i z z*) = H(q)."""
    _check_dim(mu, circ)
    return reduced_system(circ).value(flatten(mu))


def reduced_gradient(mu: MuMatrix, circ: Circulations) -> MuMatrix:
    """Matrix derivative of the reduced Hamiltonian at mu."""
    _check_dim(mu, circ)
    sys = reduced_system(circ)
    return gradient_matrix(sys.gradient(flatten(mu)), circ.n)
