"""Skew-Hermitian matrix algebra underlying the vortex relative dynamics.

The state of the reduced dynamics is a skew-Hermitian n x n matrix ``mu``
written as ``mu = i M`` with ``M`` Hermitian.  Everything downstream works
either with the matrix itself (:class:`MuMatrix`) or with its real coordinate
vector of length ``n**2`` in the ordering

    (mu_1, ..., mu_n, x_12, y_12, x_13, y_13, ..., x_{n-1,n}, y_{n-1,n})

where ``mu_k`` are the diagonal imaginary parts, ``mu_jk = x_jk + i y_jk`` are
the upper-triangular entries of ``M`` in row-major order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularCoupling

SKEW_TOL = 1e-12


class Regime(enum.Enum):
    NON_ZERO_TOTAL = "nonzero_total"
    ZERO_TOTAL = "zero_total"


@dataclass(frozen=True)
class Circulations:
    """Circulation strengths of N vortices with derived total and regime.

    The total circulation decides the reduction: ``n = N - 1`` shape-matrix
    dimension when the total is nonzero, ``n = N - 2`` when it vanishes.
    """

    gammas: tuple[float, ...]
    total: float = field(init=False)
    regime: Regime = field(init=False)

    def __post_init__(self):
        gammas = tuple(map(float, self.gammas))
        if len(gammas) < 3:
            raise ValueError("need at least 3 vortices")
        if 0.0 in gammas:
            raise ValueError("all circulations must be nonzero")
        if not all(map(math.isfinite, gammas)):
            raise ValueError(f"all circulations must be finite, got {gammas}")
        object.__setattr__(self, "gammas", gammas)
        total = float(sum(gammas))
        tol = 1e-12 * max(map(abs, gammas))
        regime = Regime.ZERO_TOTAL if abs(total) <= tol else Regime.NON_ZERO_TOTAL
        if regime is Regime.ZERO_TOTAL:
            total = 0.0
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "regime", regime)

    @property
    def N(self) -> int:
        return len(self.gammas)

    @property
    def n(self) -> int:
        """Dimension of the shape matrix mu."""
        return self.N - 1 if self.regime is Regime.NON_ZERO_TOTAL else self.N - 2

    def as_array(self) -> np.ndarray:
        return np.asarray(self.gammas, dtype=float)


@dataclass(frozen=True)
class CouplingMatrix:
    """Real symmetric circulation coupling matrix with cached inverse."""

    k: np.ndarray
    k_inv: np.ndarray

    @property
    def n(self) -> int:
        return self.k.shape[-1]


@dataclass(frozen=True)
class MuMatrix:
    """Skew-Hermitian n x n matrix, the state of the relative dynamics, or a
    stack of them along leading axes (entries of shape (..., n, n))."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim < 2 or entries.shape[-2] != entries.shape[-1]:
            raise DimensionMismatch("mu must be a square matrix")
        scale = np.abs(entries).max(axis=(-2, -1), initial=0.0)
        gap = np.abs(entries.swapaxes(-2, -1).conj() + entries).max(axis=(-2, -1), initial=0.0)
        if (gap > SKEW_TOL * np.maximum(1.0, scale)).any():
            raise ValueError("mu is not skew-Hermitian")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    def take(self, rows: np.ndarray) -> MuMatrix:
        """The matrices at some rows of a stack (its leading axes read as
        one, one matrix as a stack of one), sliced from the checked entries
        and not checked again."""
        entries = self.entries.reshape((-1,) + self.entries.shape[-2:])[rows]
        entries.setflags(write=False)
        sub = object.__new__(MuMatrix)
        object.__setattr__(sub, "entries", entries)
        return sub

    @property
    def hermitian_part(self) -> np.ndarray:
        """The Hermitian matrix M = -i mu whose 2x2 minors define the constraints."""
        return -1j * self.entries


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[tuple[int, int], ...]:
    """Row-major upper-triangular (i, j) pairs, 0-based."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def coordinate_basis(n: int) -> np.ndarray:
    """Hermitian basis matrices E_m with M(u) = sum_m u_m E_m.

    Shape (n**2, n, n); the ordering matches the coordinate flattening.
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        basis[k, k, k] = 1.0
    for p, (i, j) in enumerate(pair_indices(n)):
        basis[n + 2 * p, i, j] = 1.0
        basis[n + 2 * p, j, i] = 1.0
        basis[n + 2 * p + 1, i, j] = 1j
        basis[n + 2 * p + 1, j, i] = -1j
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def _gathers(n: int) -> tuple[np.ndarray, ...]:
    """Index gathers between the coordinates and the (re, im) pairs of the n*n
    entries: the slot and sign of each coordinate, then the coordinate and
    factor of each slot (factor 0 for the real parts of the diagonal)."""
    slot, sign = np.empty(n * n, dtype=int), np.ones(n * n)
    source, factor = np.zeros((n, n, 2), dtype=int), np.zeros((n, n, 2))
    for k in range(n):
        slot[k] = 2 * (k * n + k) + 1
        source[k, k, 1], factor[k, k, 1] = k, 1.0
    for p, (i, j) in enumerate(pair_indices(n)):
        # e[i, j] = i*(x + i*y) = -y + i*x and e[j, i] = y + i*x
        x, y = n + 2 * p, n + 2 * p + 1
        slot[x], slot[y], sign[y] = 2 * (i * n + j) + 1, 2 * (i * n + j), -1.0
        source[i, j] = source[j, i] = (y, x)
        factor[i, j], factor[j, i] = (-1.0, 1.0), (1.0, 1.0)
    out = slot, sign, source.ravel(), factor.ravel()
    for a in out:
        a.setflags(write=False)
    return out


def flatten_stack(entries: np.ndarray) -> np.ndarray:
    """:func:`flatten` over the last two axes of a stack of matrix entries."""
    n = entries.shape[-1]
    slot, sign, _, _ = _gathers(n)
    pairs = np.ascontiguousarray(entries, dtype=complex).view(float)
    return pairs.reshape(entries.shape[:-2] + (2 * n * n,))[..., slot] * sign


def unflatten_stack(v: np.ndarray, n: int) -> np.ndarray:
    """Entries of :func:`unflatten` over the last axis of a stack of coordinate vectors."""
    _, _, source, factor = _gathers(n)
    pairs = v.take(source, axis=-1) * factor
    return pairs.view(complex).reshape(v.shape[:-1] + (n, n))


def hermitian_stack(v: np.ndarray, n: int) -> np.ndarray:
    """Entries of M = -i mu, row-major over the last axis (length n*n), for a
    stack of coordinate vectors: M_aa = u_a, and M_ab = x + i y, M_ba = x - i y
    for the pair a < b.  No entry is a sum, so each is exact."""
    m = unflatten_stack(v, n)
    m *= -1j
    return m.reshape(v.shape[:-1] + (n * n,))


def flatten(mu: MuMatrix) -> np.ndarray:
    """Real coordinate vector of length n**2 (pure copying, no arithmetic), one
    per matrix of a stack."""
    return flatten_stack(mu.entries)


def unflatten(v: np.ndarray, n: int) -> MuMatrix:
    """Inverse of :func:`flatten`, also over the last axis of a stack of vectors."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (n * n,):
        raise DimensionMismatch(f"expected length {n * n}, got {v.shape}")
    return MuMatrix(unflatten_stack(v, n))


def pairing(xi: MuMatrix, eta: MuMatrix) -> float:
    """Inner product (1/2) tr(xi^* eta) identifying the algebra with its dual."""
    if xi.n != eta.n:
        raise DimensionMismatch("pairing requires equal dimensions")
    return float(0.5 * np.trace(xi.entries.conj().T @ eta.entries).real)


def lie_bracket(xi: MuMatrix, eta: MuMatrix, k: CouplingMatrix) -> MuMatrix:
    """Coupling-twisted bracket xi K^-1 eta - eta K^-1 xi."""
    if not (xi.n == eta.n == k.n):
        raise DimensionMismatch("bracket requires equal dimensions")
    a = xi.entries @ k.k_inv @ eta.entries
    return MuMatrix(a - a.conj().T)


# Circulation-keyed caches hold this many entries, so that memory does not
# grow with the number of circulation sets a process has seen (a sweep).
CIRCULATION_CACHE_SIZE = 16


def build_coupling_matrix(circ: Circulations | Sequence[Circulations]) -> CouplingMatrix:
    """Coupling matrix of a circulation set, or the stacked matrices (leading
    axis k) of a sequence of k sets that share N and the regime, with the
    inverses; the arrays are read-only.

    Nonzero total circulation Gamma:  n = N-1 and
        K_ii = -G_i (Gamma - G_i) / Gamma,   K_ij = G_i G_j / Gamma,
        K^-1 = -diag(1/G_i) - 1 1^T / G_N.
    Zero total circulation:  n = N-2 and
        K0_ij = -(1/G_N) * (G_i G_j + delta_ij G_i G_N),
        K0^-1 = -diag(1/G_i) + 1 1^T / (G_N + G_1 + ... + G_{N-2}).
    The inverses are closed forms (Sherman-Morrison), with no 1/Gamma in
    them, so they keep full accuracy as Gamma -> 0.

    A stack of one set is memoised on the last few sets (:func:`_one_coupling`),
    and one set is a view of the matrices of that stack; a longer stack is
    not memoised.  A K with cond(K) eps >= 1 (infinity norms), a negligible
    circulation, is singular to working precision and raises
    SingularCoupling for the first such set of the stack; sets that differ
    in N or the regime raise DimensionMismatch.
    Between the two regimes (|Gamma| below about 1e-8 max|G_i|) the
    differential of C_1 is dependent on the constraint rows to working
    precision: the certificate names the rank in its reason, and a point
    that is not linearly unstable reads inconclusive.
    """
    circs = (circ,) if isinstance(circ, Circulations) else tuple(circ)
    stack = _one_coupling(circs[0]) if len(circs) == 1 else _coupling_stack(circs)
    if isinstance(circ, Circulations):
        return CouplingMatrix(k=stack.k[0], k_inv=stack.k_inv[0])
    return stack


@lru_cache(maxsize=CIRCULATION_CACHE_SIZE)
def _one_coupling(circ: Circulations) -> CouplingMatrix:
    return _coupling_stack((circ,))


def _coupling_stack(circs: tuple[Circulations, ...]) -> CouplingMatrix:
    first = circs[0]
    size = len(first.gammas)
    if any([len(c.gammas) != size or c.regime is not first.regime for c in circs]):
        raise DimensionMismatch("the circulation sets of a stack must share N and the regime")
    g, diagonal = np.array([c.gammas for c in circs]), np.arange(first.n)
    if first.regime is Regime.NON_ZERO_TOTAL:
        gn, total = g[:, :-1], np.array([c.total for c in circs])[:, None]
        k = gn[:, :, None] * gn[:, None, :] / total[:, :, None]
        k[:, diagonal, diagonal] = -gn * (total - gn) / total
        denominator = g[:, -1:]
    else:
        gn, last = g[:, :-2], g[:, -1:]
        k = gn[:, :, None] * gn[:, None, :]
        k[:, diagonal, diagonal] += gn * last
        k = -k / last[:, :, None]
        # correctly rounded: G_N cancels G_1 + ... + G_{N-2} down to -G_{N-1}
        denominator = -np.array([[math.fsum(c.gammas[:-2] + c.gammas[-1:])] for c in circs])
    # K^-1 = -diag(1/G_i) - 1 1^T / denominator; an overflow there is
    # judged by cond(K) eps (infinity norms), singular when not below 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k_inv = np.broadcast_to(-1.0 / denominator[:, :, None], k.shape).copy()
        k_inv[:, diagonal, diagonal] -= 1.0 / gn
        norms = np.abs(np.array([k, k_inv])).sum(axis=-1).max(axis=-1)
        rounding = np.finfo(float).eps * norms[0] * norms[1]
    singular = ~(rounding < 1.0)
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularCoupling(
            f"singular to working precision: cond eps {rounding[i]:.3e}", sample=i
        )
    for a in (k, k_inv):
        a.setflags(write=False)
    return CouplingMatrix(k=k, k_inv=k_inv)
