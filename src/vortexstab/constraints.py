"""Casimir invariants and the rank-one constraint map.

The constraint components are the 2x2 determinants of the Hermitian matrix
``M = -i mu`` sweeping its upper triangle and subdiagonal: ``R_i`` from the
diagonal blocks and complex ``R_ij`` from the off-diagonal ones (split into
real and imaginary parts).  Their joint zero level set, inside the open set of
matrices with no vanishing entry, is exactly the rank-one stratum the reduced
dynamics lives on.  Every component is a quadratic form in the flattened
coordinates, so Jacobians are exact and Hessians are constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .algebra import (
    Circulations,
    CouplingMatrix,
    MuMatrix,
    Regime,
    _gathers,
    flatten,
    flatten_stack,
    hermitian_stack,
    pair_indices,
)
from .errors import DimensionMismatch, NotInOpenSet, UnsupportedScenario

RANK_THRESHOLD = 1e-8
OPEN_SET_TOL = 1e-12


def independent(distance: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The rank rule: a row adds to the rank of the rows before it when its
    distance from their span exceeds RANK_THRESHOLD times its own length.
    Scaling a row scales both sides, so the test is free of units."""
    return distance > RANK_THRESHOLD * length


def row_rank(rows: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Rank of a stack of rows (..., m, N) taken in order, from the R factor
    of the QR of the stack's transpose (taken here when not given): |R_jj| is
    row j's distance from the span of the rows before it."""
    if r is None:
        r = np.linalg.qr(rows.swapaxes(-1, -2), mode="r")
    distance = np.abs(r.diagonal(axis1=-2, axis2=-1))
    head = rows[..., : distance.shape[-1], :]
    length = np.sqrt(np.add.reduce((head.conj() * head).real, axis=-1))  # the 2-norm
    return independent(distance, length).sum(axis=-1)


def casimir(mu: MuMatrix, k: CouplingMatrix, j: int) -> float:
    """C_j(mu) = tr((i K mu)^j), a conserved quantity of the reduced flow."""
    return float(casimir_values(mu, k, (j,))[0])


def casimir_values(mu: MuMatrix, k: CouplingMatrix, js: Iterable[int]) -> np.ndarray:
    """C_j(mu) for each j in js; shape (..., len(js)) for a stack of matrices
    (..., n, n).  C_j = tr(B^j) with B = mu i K, whose powers have the traces
    of those of i K mu, and tr(B^(a+b)) is the sum of the entries of
    B^a * (B^b)^T, so only the powers up to ceil(max j / 2) are formed: one
    stacked product for j <= 4.  One K for the whole stack makes B one 2-D
    product."""
    if mu.n != k.n:
        raise DimensionMismatch("mu and coupling matrix differ in size")
    js = list(js)
    if not js or min(js) < 1:
        raise ValueError(f"Casimir indices must be >= 1, got {js}")
    m, ik = mu.entries, 1j * k.k
    b = m.reshape(-1, mu.n).dot(ik).reshape(m.shape) if ik.ndim == 2 else m @ ik
    powers = [None, b]
    for _ in range((max(js) + 1) // 2 - 1):
        powers.append(powers[-1] @ b)
    traces = np.empty(m.shape[:-2] + (len(js),))
    for col, j in enumerate(js):
        if j == 1:
            traces[..., col] = np.einsum("...ii->...", b).real
        else:
            high, low = powers[(j + 1) // 2], powers[j // 2]
            traces[..., col] = np.einsum("...ik,...ki->...", high, low).real
    return traces


def casimir_gradient(mu: MuMatrix, k: CouplingMatrix, j: int) -> np.ndarray:
    """Gradient of C_j with respect to the flattened coordinates; one row per
    matrix of a stack (mu and k with the same leading axes).  dC_1 = -2i K
    is the same at every mu."""
    # dC_j . E_m = tr(x E_m) with x = j b^{j-1} iK i, since mu = i M; over
    # the coordinate basis that is flatten(i (x + x^H)) with the diagonal
    # halved, and x = -K for j = 1
    x = -k.k if j == 1 else -j * np.linalg.matrix_power(1j * k.k @ mu.entries, j - 1) @ k.k
    grad = flatten_stack(1j * (x + x.conj().swapaxes(-1, -2)))
    grad[..., : mu.n] *= 0.5
    return grad


def scenario_casimir_c1(mu: MuMatrix, circ: Circulations) -> float:
    """The per-scenario linear first Casimir exactly as printed for the
    worked configurations (triangle/square with center, and general N=3)."""
    u = flatten(mu)
    g = circ.as_array()
    N = circ.N
    if N == 3 and circ.regime is Regime.NON_ZERO_TOTAL:
        g1, g2, g3 = g
        return float(
            (g2 * (g1 + g3) * u[0] + g1 * (g2 + g3) * u[1] - 2 * g1 * g2 * u[2])
            / circ.total
        )
    if N == 4 and circ.regime is Regime.ZERO_TOTAL and np.allclose(g[:3], 1.0):
        return float((2.0 / 3.0) * (u[0] + u[1] - u[2]))
    if N == 4 and circ.regime is Regime.NON_ZERO_TOTAL and np.allclose(g[:3], 1.0):
        gam = g[3]
        return float(
            (
                (gam + 2) * u[0]
                + (gam + 2) * u[1]
                + (gam + 2) * u[2]
                - 2 * (u[3] + u[5] + u[7])
            )
            / (gam + 3)
        )
    if N == 5 and circ.regime is Regime.NON_ZERO_TOTAL and np.allclose(g[:4], 1.0):
        gam = g[4]
        return float(
            ((gam + 3) * (u[0] + u[1] + u[2] + u[3]) - 2 * u[4::2].sum()) / (gam + 4)
        )
    raise UnsupportedScenario("no printed C1 fixture for this circulation set")


class ConstraintSystem:
    """All (n-1)^2 real rank-one constraint components for n x n shapes,
    ordered (R_1 .. R_{n-1}, Re R_12, Im R_12, ...).

    Complex component k is the minor p1 p2 - p3 p4 of four entries of
    M = -i mu, stored as their row-major indices (:meth:`hessians`).  An
    entry of M reads at most two coordinates, with coefficients 1 and +-i,
    so the Jacobian has at most 8 terms per complex component; it is kept,
    from its first use, as the position, coordinate and coefficient (+-1, or
    -2 where two terms of a diagonal block's minor coincide) of each nonzero
    of the real rows, built from the table that :meth:`hessians` returns.
    :meth:`jacobian` scatters these terms into the (n-1)^2 x n^2 rows.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        d = n - 1
        blocks = [(i, i) for i in range(d)] + list(pair_indices(d))
        i, j = np.array(blocks, dtype=int).reshape(-1, 2).T
        self._entries = np.stack([i * n + j, (i + 1) * n + j + 1, i * n + j + 1, (i + 1) * n + j])
        self._entries.setflags(write=False)
        labels = [f"R{i + 1}" for i in range(d)]
        for i, j in pair_indices(d):
            labels += [f"ReR{i + 1}{j + 1}", f"ImR{i + 1}{j + 1}"]
        self.labels = tuple(labels)
        self.size = d**2

    @cached_property
    def _jacobian_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of dR: their flat positions t in the real rows, the
        coordinate each reads and its coefficient, dR[t] = coef u[coordinate],
        built on first use from the factor table of :meth:`hessians`.

        Entry e of M is u[re_e] + i sigma_e u[im_e] (sigma_e = +-1, and 0 on
        the diagonal).  Factor f of a complex component adds s_f c_f p_g to
        its row, g the factor it multiplies: Re of it is s_f u[re_g] at re_f
        and -s_f sigma_f sigma_g u[im_g] at im_f, Im of it s_f sigma_g u[im_g]
        at re_f and s_f sigma_f u[re_g] at im_f."""
        n, d, e = self.n, self.n - 1, self.hessians()
        count = e.shape[-1]
        _, _, source, factor = _gathers(n)
        # M = -i mu = u[source_1] - i factor_0 u[source_0] (factor_1 is 1)
        re, im, sigma = source[1::2], source[::2], -factor[::2]
        g = e[[1, 0, 3, 2]]
        sign = np.repeat([[1.0], [1.0], [-1.0], [-1.0]], count, axis=1)
        # a diagonal block's c3 p4 and c4 p3 are one term twice (c4 = conj(c3)
        # and p3 = conj(p4)), so that no two terms share a position
        sign[2, :d], sign[3, :d] = -2.0, 0.0
        k = np.arange(count)
        row, imaginary = np.where(k < d, k, 2 * k - d), k >= d  # rows R_i, then (Re, Im) R_ij
        # (row, column, coordinate read, coefficient) of each kind of term
        terms = [
            (row, re[e], re[g], sign),
            (row, im[e], im[g], -sign * sigma[e] * sigma[g]),
            (row + 1, re[e], im[g], imaginary * sign * sigma[g]),
            (row + 1, im[e], re[g], imaginary * sign * sigma[e]),
        ]
        rows, column, read, coef = (
            np.concatenate([np.broadcast_to(t[i], sign.shape).ravel() for t in terms])
            for i in range(4)
        )
        keep = coef != 0.0
        out = rows[keep] * n * n + column[keep], read[keep], coef[keep]
        for a in out:
            a.setflags(write=False)
        return out

    def _expand(self, vals: np.ndarray) -> np.ndarray:
        """Split complex off-diagonal components (last axis) into (Re, Im) rows."""
        d = self.n - 1
        out = np.empty(vals.shape[:-1] + (self.size,))
        out[..., :d] = vals[..., :d].real
        out[..., d::2] = vals[..., d:].real
        out[..., d + 1 :: 2] = vals[..., d:].imag
        return out

    def values(self, u: np.ndarray) -> np.ndarray:
        """R(u); shape (samples, (n-1)^2) for a stack u of shape (samples, n^2)."""
        m = hermitian_stack(u, self.n)
        e1, e2, e3, e4 = self._entries
        return self._expand(m[..., e1] * m[..., e2] - m[..., e3] * m[..., e4])

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """dR(u), shape ((n-1)^2, n^2); (samples, (n-1)^2, n^2) for a stack u."""
        target, source, coef = self._jacobian_terms
        lead, n2 = u.shape[:-1], self.n * self.n
        out = np.zeros(lead + (self.size * n2,))
        out[..., target] = u[..., source] * coef
        return out.reshape(lead + (self.size, n2))

    def hessians(self) -> np.ndarray:
        """The constant Hessians in factored form: the stored, read-only
        (4, n(n-1)/2) row-major indices of the entries of M = -i mu that the
        factors (p1, p2, p3, p4) of each complex component read.  Complex
        component k has the Hessian c1 c2^T + c2 c1^T - c3 c4^T - c4 c3^T, with
        c_f the linear form of entry f of M; a real component takes its real
        part, or its imaginary part for Im R_ij."""
        return self._entries


@lru_cache(maxsize=None)
def constraint_system(n: int) -> ConstraintSystem:
    return ConstraintSystem(n)


def constraint_residuals(mu: MuMatrix) -> np.ndarray:
    """R(mu); vanishes exactly on rank-one shape matrices."""
    return constraint_system(mu.n).values(flatten(mu))


def constraint_jacobian(mu: MuMatrix) -> np.ndarray:
    """Jacobian of the constraint map, shape ((n-1)^2, n^2)."""
    return constraint_system(mu.n).jacobian(flatten(mu))


def in_open_set(mu: MuMatrix) -> bool | np.ndarray:
    """True when no diagonal or upper-triangular entry of mu is within
    OPEN_SET_TOL times the largest of them of zero, a test free of units; one
    flag per matrix of a stack."""
    rows, cols = _upper_triangle(mu.n)
    entries = np.abs(mu.entries[..., rows, cols])
    return (entries > OPEN_SET_TOL * entries.max(axis=-1, keepdims=True)).all(axis=-1)


@lru_cache(maxsize=None)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle with the diagonal."""
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class RankCheck:
    rank: int
    full_rank: bool
    expected: int
    nullity: int


def submersion_rank_check(mu: MuMatrix) -> RankCheck:
    """Numerical rank of the constraint Jacobian at mu (must lie in the open
    set of matrices with no vanishing entry)."""
    if not in_open_set(mu):
        raise NotInOpenSet("mu has a vanishing entry")
    jac = constraint_jacobian(mu)
    n = mu.n
    expected = (n - 1) ** 2
    if expected == 0:
        return RankCheck(rank=0, full_rank=True, expected=0, nullity=n * n)
    rank = int(row_rank(jac))
    return RankCheck(
        rank=rank,
        full_rank=rank == expected,
        expected=expected,
        nullity=n * n - rank,
    )
