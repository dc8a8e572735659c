"""Vortex Hamiltonians: full-space, reduced, and the reduced matrix gradient.

Both reduced Hamiltonians (nonzero and zero total circulation) are sums of
terms ``-(1/4pi) * w_t * ln(c_t . u)`` where ``u`` is the coordinate vector of
the shape matrix and each ``c_t`` is a constant linear form (a squared
inter-vortex distance expressed in shape coordinates).  Gradients and Hessians
are therefore exact closed forms.

Almost every form has at most three nonzero coefficients: mu_i for a
reference vortex, and mu_i + mu_j - 2 x_ij for the pair i < j.  These are
stored as indices, not as rows of n^2 coefficients; only the n + 1 forms of
the zero-total regime are dense.  The form values at u are gathered from u,
the gradient is scattered back onto the coordinates, and the Hessian along a
basis is a gather of the basis columns, scaled, and scattered back, with no
(terms x n^2) array.

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
    """-(1/4pi) sum_t w_t ln s_t over the last axis of s, with w one row of
    weights or a row per sample.  A stack of contiguous rows gives each
    sample the same bits as a single dot product (BLAS sums a strided row in
    another order)."""
    h = -(w[..., None, :] @ np.ascontiguousarray(np.log(s))[..., None])[..., 0, 0] / FOUR_PI
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
    ``u`` of length ``n**2``; ``value`` also on a stack of them.  ``weights``
    (terms,) holds the w_t, in the order of the forms: the n reference forms,
    the n + 1 forms of the zero-total regime, then the pair forms.  Only the
    zero-total forms are stored dense, as ``dense`` (n + 1, n**2).  Both
    arrays are read-only, as a memoised Hamiltonian is shared.  A
    reference form is the coordinate mu_i, and the form of the pair i < j is
    u[i] + u[j] - 2 u[x_ij] for the index triple (i, j, x_ij) of
    :func:`_distance_pairs`: its vertices are the ones of
    :func:`_vertex_columns`, and x_ij = n + 2p for pair p.  Built from a
    sequence of k circulation sets that share N and the regime, it is a
    stack of k Hamiltonians that share those indices and hold k rows of
    weights (and k dense blocks): ``gradient`` and ``hessian`` then take u
    of shape (k, n**2) and evaluate Hamiltonian i at row i.
    """

    def __init__(self, circ: Circulations | Sequence[Circulations]):
        first = circ if isinstance(circ, Circulations) else circ[0]
        n = self.n = first.n
        gammas = first.gammas if isinstance(circ, Circulations) else [c.gammas for c in circ]
        g = np.asarray(gammas, dtype=float)
        i, j, _ = _distance_pairs(n)
        # pairs (i, ref) with the reference vortex ref = n + 1 (N, or N-1 when
        # the total circulation vanishes): |z_i|^2 = mu_i
        weights = [g[..., :n] * g[..., n, None]]
        self.dense = None
        if first.regime is Regime.ZERO_TOTAL:
            gN = g[..., n + 1, None]
            # pairs (i, N): q_N recovered from zero linear impulse, w = -(1/G_N)
            # sum_j G_j z_j, so |z_i - w|^2 = |sum_j (G_j + G_N delta_ij) z_j|^2 / G_N^2;
            # then the pair (N-1, N): |w|^2
            a = np.concatenate(
                [g[..., None, :n] + gN[..., None] * np.eye(n), g[..., None, :n]], axis=-2
            )
            # row-major whatever the stack size, so that BLAS sums each
            # Hamiltonian of a stack in the same order
            self.dense = np.ascontiguousarray(_squared_norm_form(a) / (gN**2)[..., None])
            self.dense.setflags(write=False)
            weights.append(g[..., : n + 1] * gN)
        # pairs among vortices 1..n: |z_i - z_j|^2 = mu_i + mu_j - 2 x_ij
        weights.append(g[..., i] * g[..., j])
        self.weights = np.concatenate(weights, axis=-1)  # (..., terms)
        self.weights.setflags(write=False)
        self._pairs_from = self.weights.shape[-1] - len(i)

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        """The forms at each row of ``rows`` (..., r, n^2), as (..., r, terms):
        for the identity, the forms' transpose.  The mu_i terms are one
        product with :func:`_vertex_columns`, where each entry sums at most
        two terms, u_i + u_j for a pair, so in any order."""
        n, start = self.n, self._pairs_from
        out = rows[..., :n] @ _vertex_columns(n, self.dense is not None).T
        out[..., start:] -= 2.0 * rows[..., n::2]
        if self.dense is not None:
            out[..., n:start] = rows @ self.dense.swapaxes(-1, -2)
        return out

    def _scatter(self, values: np.ndarray) -> np.ndarray:
        """sum_t values_t c_t for each row of ``values`` (..., r, terms), as
        (..., r, n^2).  Coordinate x_ij reads its pair only.  mu_i sums its
        reference form and its n - 1 pairs in one product with
        :func:`_vertex_columns`, a product per row block of one shape
        whatever the stack, so that each Hamiltonian of a stack gets the bits
        of a stack of one."""
        n, start = self.n, self._pairs_from
        out = np.zeros(values.shape[:-1] + (n * n,))
        out[..., :n] = values @ _vertex_columns(n, self.dense is not None)
        out[..., n::2] = -2.0 * values[..., start:]
        if self.dense is not None:
            out += values[..., n:start] @ self.dense
        return out

    def _arguments(self, u: np.ndarray) -> np.ndarray:
        s = self._gather(u[..., None, :])[..., 0, :]
        check_arguments(s)
        return s

    def value(self, u: np.ndarray) -> float | np.ndarray:
        return _weighted_log_sum(self.weights, self._arguments(u))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        s = self._arguments(u)
        return -self._scatter((self.weights / s)[..., None, :])[..., 0, :] / FOUR_PI

    def gradient_bound(self, u: np.ndarray) -> np.ndarray:
        """The gradient with every weight w_t replaced by |w_t|: the size of
        its terms, which circulations of both signs let cancel in the gradient."""
        s = self._arguments(u)
        return self._scatter((np.abs(self.weights) / s)[..., None, :])[..., 0, :] / FOUR_PI

    def hessian(self, u: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
        """Hess h = F^T diag(w / s^2) F / 4pi, F the forms and s = F u; with
        ``basis`` (rows are directions, one stack of them per Hamiltonian of
        a stack) ``basis @ Hess h``.  Either is the forms gathered at the
        rows (the basis, or the identity), scaled by w / s^2, and scattered
        back: three columns of a row per pair form, with no dense form."""
        s = self._arguments(u)
        if basis is None:
            size = self.n * self.n
            basis = np.broadcast_to(np.eye(size), s.shape[:-1] + (size, size))
        scaled = self._gather(basis) * (self.weights / s**2)[..., None, :]
        return self._scatter(scaled) / FOUR_PI


@lru_cache(maxsize=None)
def _distance_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both indices of each pair among n vortices and the coordinate x_ij of
    the pair, in the order of :func:`pair_indices`."""
    i, j = np.array(pair_indices(n), dtype=int).reshape(-1, 2).T
    x = n + 2 * np.arange(len(i))
    for a in (i, j, x):
        a.setflags(write=False)
    return i, j, x


@lru_cache(maxsize=None)
def _vertex_columns(n: int, zero_total: bool) -> np.ndarray:
    """(terms, n): the coefficients of mu_1..mu_n in the reference and pair
    forms, all ones, with zero rows for the n + 1 dense forms of the
    zero-total regime."""
    i, j, _ = _distance_pairs(n)
    start = 2 * n + 1 if zero_total else n
    columns = np.zeros((start + len(i), n))
    columns[np.arange(n), np.arange(n)] = 1.0
    pairs = start + np.arange(len(i))
    columns[pairs, i] = columns[pairs, j] = 1.0
    columns.setflags(write=False)
    return columns


def _squared_norm_form(a: np.ndarray) -> np.ndarray:
    """Coefficients of |sum_j a_j z_j|^2 = sum_j a_j^2 mu_j + sum_{j<k} 2 a_j a_k x_jk
    in shape coordinates, over the last axis of a."""
    n = a.shape[-1]
    i, j, x = _distance_pairs(n)
    c = np.zeros(a.shape[:-1] + (n * n,))
    c[..., :n] = a**2
    c[..., x] = 2.0 * a[..., i] * a[..., j]
    return c


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
