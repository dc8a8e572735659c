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
from typing import Sequence

import numpy as np

from .algebra import (
    CIRCULATION_CACHE_SIZE,
    Circulations,
    MuMatrix,
    Regime,
    flatten,
    pair_indices,
    unflatten_stack,
)
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


def check_arguments(s: np.ndarray) -> None:
    """Raise DomainError for the first sample of a stack of log arguments
    (squared distances, last axis) that has one at or below LOG_FLOOR."""
    low = s <= LOG_FLOOR
    if low.any():
        first = int(np.argmax(low.any(axis=-1)))
        smallest = s.reshape(-1, s.shape[-1])[first].min()
        raise DomainError(f"squared distance {smallest:.3e} in reduced Hamiltonian", sample=first)


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
    i, j, _ = _distance_pairs(q.shape[-1])
    return _weighted_log_sum(g[i] * g[j], np.abs(q[..., i] - q[..., j]) ** 2)


class ReducedHamiltonian:
    """Reduced Hamiltonian of a circulation set in log-linear-form shape.

    ``value``/``gradient``/``hessian`` act on the flattened coordinate vector
    ``u`` of length ``n**2``; ``value`` also on a stack of them.  ``forms``
    (terms, n**2) holds the linear forms c_t and ``weights`` (terms,) the w_t.
    Built from a sequence of k circulation sets that share N and the regime,
    it is a stack of k Hamiltonians: ``gradient`` and ``hessian`` then take u
    of shape (k, n**2) and evaluate Hamiltonian i at row i.
    """

    def __init__(self, circ: Circulations | Sequence[Circulations]):
        first = circ if isinstance(circ, Circulations) else circ[0]
        self.n = first.n
        gammas = first.gammas if isinstance(circ, Circulations) else [c.gammas for c in circ]
        forms, weights = _log_terms(np.asarray(gammas, dtype=float), first.regime)
        # row-major whatever the stack size, so that BLAS sums each
        # Hamiltonian of a stack in the same order
        self.forms = np.ascontiguousarray(forms)  # (..., terms, n**2)
        self._forms_t = self.forms.swapaxes(-1, -2)
        self.weights = weights                    # (..., terms)

    def _arguments(self, u: np.ndarray) -> np.ndarray:
        s = (self.forms @ u[..., None])[..., 0]
        check_arguments(s)
        return s

    def value(self, u: np.ndarray) -> float | np.ndarray:
        return _weighted_log_sum(self.weights, self._arguments(u))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        s = self._arguments(u)
        return -(self._forms_t @ (self.weights / s)[..., None])[..., 0] / FOUR_PI

    def gradient_bound(self, u: np.ndarray) -> np.ndarray:
        """The gradient with every weight w_t replaced by |w_t|: the size of
        its terms, which circulations of both signs let cancel in the gradient."""
        s = self._arguments(u)
        return (self._forms_t @ (np.abs(self.weights) / s)[..., None])[..., 0] / FOUR_PI

    def hessian(self, u: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
        """Hess h = F^T diag(w / s^2) F / 4pi, F the forms and s = F u; with
        ``basis`` (rows are directions, one stack of them per Hamiltonian of
        a stack) ``basis @ Hess h``, taken through F without the n^2 x n^2
        matrix."""
        s = self._arguments(u)
        scale = (self.weights / s**2)[..., None, :]
        scaled = self._forms_t * scale if basis is None else (basis @ self._forms_t) * scale
        return scaled @ self.forms / FOUR_PI


@lru_cache(maxsize=None)
def _distance_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both indices of each pair among n vortices and the coordinate x_ij of
    the pair, in the order of :func:`pair_indices`."""
    i, j = np.array(pair_indices(n), dtype=int).reshape(-1, 2).T
    x = n + 2 * np.arange(len(i))
    for a in (i, j, x):
        a.setflags(write=False)
    return i, j, x


def _squared_norm_form(a: np.ndarray) -> np.ndarray:
    """Coefficients of |sum_j a_j z_j|^2 = sum_j a_j^2 mu_j + sum_{j<k} 2 a_j a_k x_jk
    in shape coordinates, over the last axis of a."""
    n = a.shape[-1]
    i, j, x = _distance_pairs(n)
    c = np.zeros(a.shape[:-1] + (n * n,))
    c[..., :n] = a**2
    c[..., x] = 2.0 * a[..., i] * a[..., j]
    return c


def _log_terms(g: np.ndarray, regime: Regime) -> tuple[np.ndarray, np.ndarray]:
    """Linear forms (squared distances) and circulation-product weights for
    the circulations on the last axis of g (leading axes index a stack)."""
    n = g.shape[-1] - (1 if regime is Regime.NON_ZERO_TOTAL else 2)
    i, j, x = _distance_pairs(n)
    eye = np.eye(n, n * n)
    lead = g.shape[:-1]
    # pairs (i, ref) with the reference vortex ref = n + 1 (N, or N-1 when the
    # total circulation vanishes): |z_i|^2 = mu_i
    forms = [np.broadcast_to(eye, lead + eye.shape)]
    weights = [g[..., :n] * g[..., n, None]]
    if regime is Regime.ZERO_TOTAL:
        gN = g[..., n + 1, None]
        # pairs (i, N): q_N recovered from zero linear impulse, w = -(1/G_N)
        # sum_j G_j z_j, so |z_i - w|^2 = |sum_j (G_j + G_N delta_ij) z_j|^2 / G_N^2;
        # then the pair (N-1, N): |w|^2
        a = np.concatenate(
            [g[..., None, :n] + gN[..., None] * np.eye(n), g[..., None, :n]], axis=-2
        )
        forms.append(_squared_norm_form(a) / (gN**2)[..., None])
        weights.append(g[..., : n + 1] * gN)
    # pairs among vortices 1..n: |z_i - z_j|^2 = mu_i + mu_j - 2 x_ij
    pair = eye[i] + eye[j]
    pair[np.arange(len(i)), x] = -2.0
    forms.append(np.broadcast_to(pair, lead + pair.shape))
    weights.append(g[..., i] * g[..., j])
    return np.concatenate(forms, axis=-2), np.concatenate(weights, axis=-1)


@lru_cache(maxsize=CIRCULATION_CACHE_SIZE)
def reduced_system(circ: Circulations) -> ReducedHamiltonian:
    """The reduced Hamiltonian of one circulation set, memoised on the last few."""
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
