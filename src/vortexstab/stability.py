"""Linear spectra and the energy-Casimir stability certificate.

The certificate follows the constrained second-order recipe: find multipliers
making the combined function

    f = a0 * (4 pi h) + sum_i a_i C_i + sum b_i R_i + sum (c_ij Re R_ij + d_ij Im R_ij)

critical at the fixed point, then test positive definiteness of its Hessian
restricted to the tangent space of the joint Casimir/constraint level set via
Sylvester's criterion.  The ``4 pi h`` scaling matches the closed-form
multiplier and minor fixtures used in the acceptance suite.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    Circulations,
    MuMatrix,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    flatten_stack,
    unflatten_stack,
)
from .constraints import (
    casimir_gradient,
    casimir_hessian,
    constraint_system,
    in_open_set,
    numerical_rank,
)
from .dynamics import lie_poisson_vector_field
from .errors import (
    DimensionMismatch,
    Infeasible,
    NoConvergence,
    NotAFixedPoint,
    NotAFixedPointWarning,
    NotInOpenSet,
    RankDeficiency,
)
from .hamiltonian import FOUR_PI, gradient_entries, gradient_matrix, reduced_system

FP_TOL = 1e-9
SPEC_TOL = 1e-8
MULTIPLIER_TOL = 1e-8
DEPENDENCE_TOL = 1e-8


@dataclass(frozen=True)
class FixedPointCheck:
    residual: float
    ok: bool


def is_fixed_point(mu0: MuMatrix, circ: Circulations, tol: float = FP_TOL) -> FixedPointCheck:
    """Sup-norm of the reduced vector field at mu0."""
    xh = lie_poisson_vector_field(mu0, circ)
    residual = float(np.abs(flatten(xh)).max(initial=0.0))
    return FixedPointCheck(residual=residual, ok=residual < tol)


def linearize(
    mu0: MuMatrix, circ: Circulations, basis: np.ndarray | None = None
) -> np.ndarray:
    """Jacobian of the flattened reduced vector field at mu0, exact.

    Differentiates X_h = -mu G K^-1 + K^-1 G mu, G = dh/dmu, through the
    closed-form Hessian of h, in all n^2 coordinate directions at once; emits
    a warning (and still returns the matrix) when mu0 is not a fixed point.
    With ``basis`` (rows are directions, d of them) it differentiates along
    those rows only and returns the d x d matrix ``basis @ A @ basis.T``.
    """
    check = is_fixed_point(mu0, circ)
    if not check.ok:
        warnings.warn(
            f"linearizing at a non-fixed point (residual {check.residual:.3e})",
            NotAFixedPointWarning,
        )
    n = circ.n
    sys = reduced_system(circ)
    u0 = flatten(mu0)
    kinv = build_coupling_matrix(circ).k_inv
    m = mu0.entries
    g = gradient_matrix(sys.gradient(u0), n).entries
    hess = sys.hessian(u0)
    # direction c moves mu by nu_c and G by p_c, the Hessian applied to it
    if basis is None:
        nu, p = 1j * coordinate_basis(n), gradient_entries(hess.T, n)
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != n * n:
            raise DimensionMismatch(f"basis rows must have length {n * n}, got {basis.shape}")
        nu, p = unflatten_stack(basis, n), gradient_entries(basis @ hess.T, n)
    deriv = -nu @ g @ kinv - m @ p @ kinv + kinv @ p @ m + kinv @ g @ nu
    jac = flatten_stack(deriv).T
    return np.ascontiguousarray(jac if basis is None else basis @ jac)


def spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense real matrix, sorted by (Re, Im)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectrum expects a square matrix")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


class LocalModel:
    """The linear algebra of the certificate at one fixed point and Casimir subset.

    Rows of ``stack`` are the differentials of the chosen Casimirs, then those
    of all constraint components.  One SVD of the stack gives its rank, the
    tangent basis and the minimal-norm multipliers; when the rows are
    independent (the only case the certificate goes on with) those multipliers
    are the unique ones.  One SVD of the constraint rows alone gives the row
    space onto which each Casimir differential is projected to test its
    dependence.  The restricted Hessian contracts the constraint linear forms,
    projected once per basis.
    """

    def __init__(self, mu0: MuMatrix, circ: Circulations, casimir_subset: tuple[int, ...]):
        n = circ.n
        self.mu0, self.circ, self.casimir_subset = mu0, circ, casimir_subset
        self.u0 = flatten(mu0)
        self.coupling = build_coupling_matrix(circ)
        casimir_rows = [casimir_gradient(mu0, self.coupling, j) for j in casimir_subset]
        jac = constraint_system(n).jacobian(self.u0)
        self.stack = np.reshape([*casimir_rows, *jac], (-1, n * n))
        self.energy_gradient = FOUR_PI * reduced_system(circ).gradient(self.u0)
        u, sv, vt = np.linalg.svd(self.stack, full_matrices=True)
        self.rank = numerical_rank(sv)
        self.basis = vt[self.rank :]
        self.nullity = self.stack.shape[0] - self.rank
        # minimal-norm solution of stack^T w = -energy_gradient, i.e. a0 = +1
        r = self.rank
        self.unit_multipliers = -u[:, :r] @ ((vt[:r] @ self.energy_gradient) / sv[:r])
        for a in (self.stack, self.basis, self.unit_multipliers):
            a.setflags(write=False)
        self._projections: dict[bytes, tuple] = {}

    def multipliers(self, a0: float) -> MultiplierSet:
        """The minimal-norm coefficients w = a0 * unit_multipliers, with a fresh
        evaluation of ||Df(mu0)||_inf."""
        k, n = len(self.casimir_subset), self.circ.n
        w = a0 * self.unit_multipliers
        rest = w[k:]
        return MultiplierSet(
            a0=a0,
            a=tuple(w[:k]),
            b=tuple(rest[: n - 1]),
            c=tuple(rest[n - 1 :: 2]),
            d=tuple(rest[n::2]),
            residual=float(np.abs(a0 * self.energy_gradient + self.stack.T @ w).max()),
            solution_space_dim=self.nullity,
        )

    @cached_property
    def dependent_casimirs(self) -> tuple[int, ...]:
        """The Casimirs C_1..C_n whose differential lies in the constraint row space."""
        grads = np.array(
            [casimir_gradient(self.mu0, self.coupling, j) for j in range(1, self.circ.n + 1)]
        )
        resid = grads
        jac = self.stack[len(self.casimir_subset) :]
        if jac.size:
            _, sv, vt = np.linalg.svd(jac, full_matrices=False)
            rows = vt[: numerical_rank(sv)]
            resid = grads - (grads @ rows.T) @ rows
        tol = DEPENDENCE_TOL * np.maximum(1.0, np.linalg.norm(grads, axis=1))
        return tuple(int(j) + 1 for j in np.flatnonzero(np.linalg.norm(resid, axis=1) <= tol))

    def _projection(self, basis: np.ndarray) -> tuple:
        """Energy Hessian and constraint linear forms projected onto a basis."""
        key = basis.tobytes()
        if key not in self._projections:
            hess = FOUR_PI * reduced_system(self.circ).hessian(self.u0)
            forms = constraint_system(self.circ.n).hessians()
            self._projections[key] = (basis @ hess @ basis.T, [c @ basis.T for c in forms])
        return self._projections[key]

    def restricted_hessian(self, mult: MultiplierSet, basis: np.ndarray) -> np.ndarray:
        """basis H_f basis^T, with the constraint part as a weighted sum of
        rank-one products of the projected linear forms."""
        energy, (p1, p2, p3, p4) = self._projection(basis)
        h = mult.a0 * energy
        for a_i, j in zip(mult.a, self.casimir_subset):
            if a_i != 0.0 and j > 1:
                h = h + a_i * (basis @ casimir_hessian(self.mu0, self.coupling, j) @ basis.T)
        # c Re R + d Im R = Re((c - i d) R)
        w = np.concatenate([mult.b, np.asarray(mult.c) - 1j * np.asarray(mult.d)])
        s = (p1.T * w) @ p2 - (p3.T * w) @ p4
        return h + (s + s.T).real


@lru_cache(maxsize=4)
def _cached_model(entries: bytes, circ: Circulations, subset: tuple[int, ...]) -> LocalModel:
    mu0 = MuMatrix(np.frombuffer(entries, dtype=complex).reshape(circ.n, circ.n))
    return LocalModel(mu0, circ, subset)


def local_model(
    mu0: MuMatrix, circ: Circulations, casimir_subset: Sequence[int] = (1,)
) -> LocalModel:
    """The local model at mu0, memoised on the content of its arguments."""
    return _cached_model(mu0.entries.tobytes(), circ, tuple(casimir_subset))


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool
    rank: int
    expected: int
    model: LocalModel = field(repr=False, compare=False)

    @property
    def dependent_casimirs(self) -> tuple[int, ...]:
        """The Casimirs C_1..C_n whose differential individually lies in the
        span of the constraint differentials (computed on first access)."""
        return self.model.dependent_casimirs

    def __bool__(self) -> bool:
        return self.independent


def independence_check(
    mu0: MuMatrix, circ: Circulations, casimir_subset: Sequence[int] = (1,)
) -> IndependenceResult:
    """Numerical rank test of the stacked Casimir and constraint differentials.

    Also tells, through ``dependent_casimirs``, which Casimirs C_1..C_n
    individually lie in the span of the constraint gradients at mu0 (those add
    nothing to the certificate).
    """
    if not in_open_set(mu0):
        raise NotInOpenSet("mu0 has a vanishing entry")
    model = local_model(mu0, circ, casimir_subset)
    expected = model.stack.shape[0]
    return IndependenceResult(
        independent=model.rank == expected, rank=model.rank, expected=expected, model=model
    )


@dataclass(frozen=True)
class MultiplierSet:
    """Coefficients of the certificate function, normalized to a0 = +-1."""

    a0: float
    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    d: tuple[float, ...]
    residual: float
    solution_space_dim: int

    @property
    def constraint_coefficients(self) -> np.ndarray:
        """Coefficients in constraint-component order (b's, then c/d pairs)."""
        pairs = np.column_stack([self.c, self.d]).ravel()
        return np.concatenate([self.b, pairs])


def solve_multiplier_system(
    mu0: MuMatrix,
    circ: Circulations,
    casimir_subset: Sequence[int] = (1,),
    a0: float = 1.0,
) -> MultiplierSet:
    """Solve Df(mu0) = 0 for the Casimir/constraint coefficients at fixed a0.

    Minimal-norm solution when underdetermined; raises Infeasible when no
    coefficient choice makes mu0 a critical point of f.
    """
    if a0 == 0.0:
        raise ValueError("a0 must be nonzero")
    a0 = float(np.sign(a0))
    model = local_model(mu0, circ, casimir_subset)
    mult = model.multipliers(a0)
    if mult.residual > MULTIPLIER_TOL:
        raise Infeasible(f"no critical point for a0={a0:+.0f}: residual {mult.residual:.3e}")
    return mult


def tangent_basis(
    mu0: MuMatrix, circ: Circulations, casimir_subset: Sequence[int] = (1,)
) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space of the joint level set."""
    basis = local_model(mu0, circ, casimir_subset).basis
    expected = circ.n**2 - (circ.n - 1) ** 2 - len(casimir_subset)
    if basis.shape[0] != expected:
        raise RankDeficiency(
            f"nullity {basis.shape[0]}, expected {expected} (gradients not independent)"
        )
    return basis


def restricted_hessian(
    mu0: MuMatrix,
    circ: Circulations,
    mult: MultiplierSet,
    basis: np.ndarray,
    casimir_subset: Sequence[int] = (1,),
) -> np.ndarray:
    """Project the certificate Hessian onto a tangent basis (rows)."""
    basis = np.asarray(basis, dtype=float)
    restricted = local_model(mu0, circ, casimir_subset).restricted_hessian(mult, basis)
    scale = max(1.0, np.abs(restricted).max(initial=0.0))
    asym = np.abs(restricted - restricted.T).max(initial=0.0)
    if asym > 1e-10 * scale:
        raise ValueError(f"restricted Hessian asymmetric by {asym:.3e}")
    return 0.5 * (restricted + restricted.T)


@dataclass(frozen=True)
class SylvesterResult:
    positive_definite: bool
    minors: tuple[float, ...]


def sylvester_verdict(hessian: np.ndarray) -> SylvesterResult:
    """Leading principal minors with an all-positive test, cross-checked
    against the smallest eigenvalue."""
    h = np.asarray(hessian, dtype=float)
    minor_tol = 1e-10 * (1.0 + np.abs(h).max(initial=0.0))
    minors = tuple(float(np.linalg.det(h[: i + 1, : i + 1])) for i in range(h.shape[0]))
    minors_positive = all(m > minor_tol for m in minors)
    eig_min = float(np.linalg.eigvalsh(h).min()) if h.size else 0.0
    return SylvesterResult(
        positive_definite=minors_positive and eig_min > 0.0,
        minors=minors,
    )


class Verdict(enum.Enum):
    CERTIFIED_STABLE = "certified-stable"
    LINEARLY_UNSTABLE = "linearly-unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificateResult:
    verdict: Verdict
    spectrum: np.ndarray
    multipliers: MultiplierSet | None = None
    tangent_basis: np.ndarray | None = None
    restricted_hessian: np.ndarray | None = None
    minors: tuple[float, ...] | None = None
    reason: str = ""


def energy_casimir_certificate(
    mu0: MuMatrix,
    circ: Circulations,
    casimir_subset: Sequence[int] = (1,),
) -> CertificateResult:
    """Full stability pipeline at a fixed point of the reduced dynamics.

    When the Casimir and constraint differentials are independent, linear
    stability is decided on their joint level set (the symplectic leaf): the
    spectrum is that of the d x d matrix B A B^T on the tangent basis B.
    Dependent differentials make the certificate inconclusive, and only then
    is the full n^2 spectrum taken.  Linear instability (an eigenvalue with
    positive real part beyond tolerance) short-circuits the certificate;
    otherwise the multipliers for each sign of a0 are unique, and each sign is
    tried once.
    """
    check = is_fixed_point(mu0, circ)
    if not check.ok:
        raise NotAFixedPoint(f"residual {check.residual:.3e}")
    if not in_open_set(mu0):
        raise NotInOpenSet("mu0 has a vanishing entry")

    indep = independence_check(mu0, circ, casimir_subset)
    basis = tangent_basis(mu0, circ, casimir_subset) if indep.independent else None
    ev = spectrum(linearize(mu0, circ, basis))
    dependent = (
        ""
        if indep.independent
        else f"differentials not independent (rank {indep.rank} < {indep.expected}); "
        "full n^2 spectrum"
    )
    # a zero-dimensional leaf (n = 1) has an empty spectrum
    max_re = float(ev.real.max(initial=0.0))
    if max_re > SPEC_TOL:
        return CertificateResult(
            verdict=Verdict.LINEARLY_UNSTABLE,
            spectrum=ev,
            reason="; ".join(filter(None, (f"max Re lambda = {max_re:.6e}", dependent))),
        )
    if dependent:
        return CertificateResult(verdict=Verdict.INCONCLUSIVE, spectrum=ev, reason=dependent)

    reasons = []
    for a0 in (1.0, -1.0):
        try:
            mult = solve_multiplier_system(mu0, circ, casimir_subset, a0)
        except Infeasible as exc:
            reasons.append(str(exc))
            continue
        rh = restricted_hessian(mu0, circ, mult, basis, casimir_subset)
        syl = sylvester_verdict(rh)
        if syl.positive_definite:
            return CertificateResult(
                verdict=Verdict.CERTIFIED_STABLE,
                spectrum=ev,
                multipliers=mult,
                tangent_basis=basis,
                restricted_hessian=rh,
                minors=syl.minors,
            )
        reasons.append(f"restricted Hessian not positive definite for a0={a0:+.0f}")
    return CertificateResult(
        verdict=Verdict.INCONCLUSIVE,
        spectrum=ev,
        tangent_basis=basis,
        reason="; ".join(reasons),
    )
