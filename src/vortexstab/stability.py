"""Linear spectra and the energy-Casimir stability certificate.

The certificate follows the constrained second-order recipe: find multipliers
making the combined function

    f = a0 * (4 pi h) + a_1 C_1 + sum b_i R_i + sum (c_ij Re R_ij + d_ij Im R_ij)

critical at the fixed point, then test definiteness, of either sign, of its
Hessian restricted to the tangent space of the joint Casimir/constraint level
set via Sylvester's criterion, read from the pivots of one factorization per
matrix, chosen by its order (:func:`sylvester_verdict`).  Linear stability
is decided first, on the same tangent space, by the leaf operator B A B^T
on the leaf's coordinates z (:meth:`LocalModel.leaf_operator`).  C_1 is the
one Casimir: on the rank-one stratum C_j = C_1^j, so no other C_j adds a
row the constraints and C_1 do not already span.  The ``4 pi h`` scaling matches the closed-form
multiplier and minor fixtures used in the acceptance suite.  That tangent
space, the symplectic leaf, is built from the moment map mu = i z z^* at the
fixed point (:class:`localmodel.LocalModel`), so mu0 must be of that form.

Every stage takes one point or a stack of them: ``mu0`` of shape (k, n, n)
with ``circ`` a sequence of k circulation sets that share N and the regime
(a slice of a parameter sweep).  Array results then gain a leading axis of
length k, and a check that raises does so when it fails at any point.  In
place of the point or stack, a stage takes the :class:`LocalModel` of one,
and reads what an earlier stage computed on it; ``circ`` then only says
whether one point or a stack is asked for.  A model marked ``screened``
(all its points pass the fixed-point, open-set and stratum checks) or
``independent`` by the certificate is not checked again for what the mark
says, nor are the own tangent bases of an independent one: the rank test
passed on finite R and Q, so B = (R^-1 Q_1)^T T is finite.
"""

from __future__ import annotations

import enum
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Circulations, MuMatrix
from .constraints import in_open_set
from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvalidArgument,
    NoConvergence,
    NotAFixedPoint,
    NotAFixedPointWarning,
    NotInOpenSet,
    NotRankOne,
    RankDeficiency,
    SingularCoupling,
    VortexStabError,
)
from .localmodel import LocalModel, MultiplierSet, _circulation_sets, local_model

# A fixed point has a field residual below FP_TOL times the size of its terms.
FP_TOL = 1e-9
# Linear instability needs max Re lambda > SPEC_TOL * ||L||_F.  The nilpotent
# blocks at the band ends of the polygon family leave round-off of up to
# 1.3e-8 ||L||_F there (triangle gamma = 1), while the weakest instability of
# the families' sweeps is 7.7e-3 ||L||_F (m = 13, gamma = 40).
SPEC_TOL = 1e-7
MULTIPLIER_TOL = 1e-8
PIVOT_TOL = 1e-10
# From this order up a Cholesky factorization per matrix is cheaper than one
# stacked LDL^T elimination (see sylvester_verdict): on full certificate
# stacks, 2-core Xeon, one BLAS thread, d = 14 (64 matrices) took 350-480 us
# to eliminate and 470-680 us to factor, d = 16 (39 matrices) 430-450 us and
# 270-380 us.
CHOLESKY_ORDER = 16
# Entries of each n^4-sized array of a certificate stack (the constraint
# Jacobian that checks the multipliers): 2 MB of float64.
STACK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class FixedPointCheck:
    residual: float | np.ndarray
    ok: bool | np.ndarray


def _per_point(circ, stacked):
    """A stacked result as the caller asked: point 0 for one point."""
    return stacked[0] if isinstance(circ, Circulations) else stacked


def is_fixed_point(
    mu0: MuMatrix | LocalModel, circ: Circulations | Sequence[Circulations]
) -> FixedPointCheck:
    """Sup-norm of the reduced vector field at mu0, per point of a stack; a
    fixed point has it below FP_TOL times the size of the field's terms
    (:attr:`LocalModel.scale`), a test free of units."""
    reduced = local_model(mu0, circ)
    residual, ok = reduced.residual, reduced.residual < FP_TOL * reduced.scale
    if isinstance(circ, Circulations):
        return FixedPointCheck(residual=float(residual[0]), ok=bool(ok[0]))
    return FixedPointCheck(residual=residual, ok=ok)


def linearize(
    mu0: MuMatrix | LocalModel,
    circ: Circulations | Sequence[Circulations],
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Jacobian of the flattened reduced vector field at mu0, exact.

    Differentiates X_h = -mu G K^-1 + K^-1 G mu, G = dh/dmu, through the
    closed-form Hessian of h, in all n^2 coordinate directions at once; emits
    a warning (and still returns the matrix) when mu0 is not a fixed point.
    With ``basis`` (rows are directions, d of them; one basis per point of a
    stack) it returns the d x d matrix ``basis @ A @ basis.T``: at fixed
    points, for a tangent basis, the leaf operator of
    :meth:`LocalModel.leaf_operator` with no n^2 x n^2 matrix; else, as A is
    meaningful in every direction, from the Jacobian (see :func:`_stacked`).
    """
    reduced = local_model(mu0, circ)
    fixed = reduced.screened or (reduced.residual < FP_TOL * reduced.scale).all()
    if not fixed:
        worst = float(reduced.residual.max(initial=0.0))
        warnings.warn(
            f"linearizing at a non-fixed point (residual {worst:.3e})", NotAFixedPointWarning
        )
    if basis is None:
        return _per_point(circ, reduced.linearize())
    basis = _stacked(reduced, circ, basis)
    if fixed and (reduced.screened or not reduced.off_stratum.any()):
        with suppress(InvalidArgument):  # but for a basis off the leaf
            return _per_point(circ, reduced.leaf_operator(basis))
    return _per_point(circ, basis @ reduced.linearize() @ basis.swapaxes(-1, -2))


def spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense real matrix, sorted by (Re, Im); one sorted
    row per matrix of a stack.  Always complex128: eigvals returns a stack's
    eigenvalues as complex when any matrix of it has a complex one, and a
    matrix's as real when all of its are, so a point would otherwise get
    another type in a stack than alone."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("spectrum expects a square matrix")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    # numpy orders complex values by real part, then imaginary part, NaN last
    return np.sort(ev.astype(complex, copy=False), axis=-1, kind="stable")


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool | np.ndarray
    rank: int | np.ndarray
    expected: int

    def __bool__(self) -> bool:
        return bool(np.all(self.independent))


def independence_check(
    mu0: MuMatrix | LocalModel, circ: Circulations | Sequence[Circulations]
) -> IndependenceResult:
    """Numerical rank test of the differentials of C_1 and the constraints.

    Raises NotInOpenSet where mu0 has a vanishing entry, and NotRankOne where
    M = -i mu0 is not z z^* to RANK_THRESHOLD of its largest entry.
    """
    screened = isinstance(mu0, LocalModel) and mu0.screened
    if not (screened or np.all(mu0.inside if isinstance(mu0, LocalModel) else in_open_set(mu0))):
        raise NotInOpenSet("mu0 has a vanishing entry")
    model = local_model(mu0, circ)
    off = () if screened else model.off_stratum.nonzero()[0]
    if len(off):
        raise _not_rank_one(model, int(off[0]))
    expected = model.row_count
    rank = _per_point(circ, model.rank)
    return IndependenceResult(independent=rank == expected, rank=rank, expected=expected)


def solve_multiplier_system(
    mu0: MuMatrix | LocalModel,
    circ: Circulations | Sequence[Circulations],
    a0: float = 1.0,
) -> MultiplierSet:
    """Solve Df(mu0) = 0 for the Casimir/constraint coefficients at fixed a0.

    The closed-form set of :attr:`LocalModel.multipliers` at every point:
    the unique solution when the differentials are independent, one member
    of a family of dimension ``solution_space_dim`` when they are not.
    Raises Infeasible when no coefficient choice makes mu0 a critical point
    of f (the residual exceeds MULTIPLIER_TOL times max |4 pi grad h| at some
    point).  The residual it reports is absolute.
    """
    if a0 not in (1.0, -1.0):
        raise ValueError(f"a0 must be +1 or -1, got {a0}")
    model = local_model(mu0, circ)
    mult = model.multipliers if a0 > 0 else model.multipliers.negated()
    infeasible = _infeasible_points(model)
    if infeasible.any():
        raise Infeasible(_infeasible(float(mult.residual[infeasible].max())))
    return mult.point(0) if isinstance(circ, Circulations) else mult


def tangent_basis(
    mu0: MuMatrix | LocalModel, circ: Circulations | Sequence[Circulations]
) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space of the joint level set."""
    model = local_model(mu0, circ)
    rows = model.row_count
    if not model.independent and (model.rank != rows).any():
        nullity = model.n**2 - int(model.rank.min())
        raise RankDeficiency(
            f"nullity {nullity}, expected {model.n**2 - rows} (gradients not independent)"
        )
    return _per_point(circ, model.basis)


def restricted_hessian(
    mu0: MuMatrix | LocalModel,
    circ: Circulations | Sequence[Circulations],
    mult: MultiplierSet,
    basis: np.ndarray,
) -> np.ndarray:
    """Project the certificate Hessian at critical multipliers for mult.a0
    onto a tangent basis (rows; one per point of a stack); a, b, c and d are
    not read.  Tangent bases only; InvalidArgument otherwise."""
    model = local_model(mu0, circ)
    basis = _stacked(model, circ, basis)
    restricted = model.restricted_hessian(mult, basis)
    scale = np.maximum(1.0, np.abs(restricted).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(restricted - restricted.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if (asym > 1e-10 * scale).any():
        raise ValueError(f"restricted Hessian asymmetric by {asym.max():.3e}")
    return _per_point(circ, 0.5 * (restricted + restricted.swapaxes(-1, -2)))


def _stacked(model: LocalModel, circ, basis) -> np.ndarray:
    """A basis per point of the model's stack, (k, d, n^2), from one (d, n^2)
    for one point or k for a stack; DimensionMismatch for another shape,
    InvalidArgument for a basis that is not finite; the own bases of a model
    marked independent as they are."""
    one = isinstance(circ, Circulations)
    if model.independent and not one and basis is model.basis:
        return basis
    basis = np.asarray(basis, dtype=float)
    k, width = len(model.circs), model.n**2
    stacked = np.broadcast_to(basis, (k,) + basis.shape) if one else basis
    if stacked.ndim != 3 or stacked.shape[::2] != (k, width):
        raise DimensionMismatch(f"basis shape {basis.shape}: rows of {width}, one basis per point")
    if not np.isfinite(basis).all():
        raise InvalidArgument("basis entries must be finite")
    return stacked


@dataclass(frozen=True)
class SylvesterResult:
    """``sign`` is +1 or -1 when definite of that sign, else 0; ``wrong_minor``
    is the order of the first leading minor that breaks definiteness, or 0."""

    sign: int | np.ndarray
    minors: tuple[float, ...] | np.ndarray
    wrong_minor: int | np.ndarray


def sylvester_verdict(hessian: np.ndarray) -> SylvesterResult:
    """Sign of definiteness and leading principal minors, per matrix of a
    stack.  H is definite of sign s, the sign of H_00, when every pivot of
    s H is positive beyond PIVOT_TOL * max|H|, a test that is backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10) and
    scale-free; minor j is the product of the first j pivots, and the first
    pivot of the wrong sign names the first leading minor of the wrong sign.

    The order d alone picks the factorization.  Below CHOLESKY_ORDER one
    unpivoted LDL^T elimination of the whole stack gives the pivots.  From it
    up, the Cholesky factor L of s H is taken one matrix at a time, its
    pivots are s L_jj^2, and only a matrix whose factorization fails or
    leaves a pivot within the tolerance is eliminated.  Both read one matrix
    alone, so its result never depends on the stack it is in.  A 0 x 0
    matrix is not definite."""
    h = np.asarray(hessian, dtype=float)
    d = h.shape[-1]
    stack = h.reshape((math.prod(h.shape[:-2]), d, d))
    lead = np.sign(stack[:, :1, 0]) if d else np.zeros((len(stack), 1))
    tol = PIVOT_TOL * np.abs(stack).max(axis=(-2, -1), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pivots = _ldl_pivots(stack) if d < CHOLESKY_ORDER else np.full(stack.shape[:-1], np.nan)
        if d >= CHOLESKY_ORDER:
            for i, scaled in enumerate(lead[..., None] * stack):
                try:
                    pivots[i] = lead[i] * np.diagonal(np.linalg.cholesky(scaled)) ** 2
                except np.linalg.LinAlgError:
                    pass
            eliminate = ~(pivots * lead > tol[:, None]).all(axis=-1)
            if eliminate.any():
                pivots[eliminate] = _ldl_pivots(stack[eliminate])
        # the leading pivots of the first one's sign beyond tol
        good = (pivots * lead > tol[:, None]).cumprod(axis=-1).sum(axis=-1)
    definite = (good == d) & (d > 0)
    sign = np.where(definite, lead[:, 0], 0).astype(int)
    wrong_minor = np.where(definite | (d == 0), 0, good + 1)
    minors = pivots.cumprod(axis=-1)
    if h.ndim == 2:
        return SylvesterResult(int(sign[0]), tuple(minors[0].tolist()), int(wrong_minor[0]))
    shape = h.shape[:-2]
    return SylvesterResult(
        sign.reshape(shape), minors.reshape(h.shape[:-1]), wrong_minor.reshape(shape)
    )


def _ldl_pivots(h: np.ndarray) -> np.ndarray:
    """The pivots of one unpivoted LDL^T elimination of each matrix of a
    stack, the diagonal it leaves.  Every step is an elementwise operation on
    one matrix's entries, so a matrix gets the same pivots, bit for bit, in
    any stack."""
    a = h.copy()
    for j in range(h.shape[-1] - 1):
        col = a[..., j + 1 :, j] / a[..., j, j, None]
        a[..., j + 1 :, j + 1 :] -= col[..., :, None] * a[..., None, j, j + 1 :]
    return a.diagonal(axis1=-2, axis2=-1).copy()


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
    residual: float = 0.0


def energy_casimir_certificate(
    mu0: MuMatrix, circ: Circulations | Sequence[Circulations]
) -> CertificateResult | list[CertificateResult | VortexStabError]:
    """Full stability pipeline at a fixed point of the reduced dynamics.

    When the differentials of C_1 and the constraints are independent, linear
    stability is decided on their joint level set (the symplectic leaf): the
    spectrum is that of the d x d matrix L = B A B^T on the tangent basis B,
    and an eigenvalue with Re lambda > SPEC_TOL * ||L||_F (Frobenius norm)
    makes the point linearly unstable.  Dependent differentials make the
    certificate inconclusive, and only then is the full n^2 spectrum taken
    (and A's norm used).  Linear instability short-circuits the certificate;
    otherwise the multipliers are unique and linear in a0, and a restricted
    Hessian definite of either sign certifies (a0 = -1 when it is negative).

    A stack of k points runs each stage once on the points it still has to
    decide and returns a list of k results, where a point that fails a check
    holds its exception (NotAFixedPoint, NotInOpenSet, DomainError,
    SingularCoupling, ...) in place of a result, and a point that is not of
    the form i z z^* holds NotRankOne.  The constraint Jacobian that checks
    the multipliers holds O(n^4) entries per point, so the caller bounds k
    (:func:`stack_size`).
    """
    circs = _circulation_sets(circ)
    results: list[CertificateResult | VortexStabError | None] = [None] * len(circs)
    rows = list(range(len(circs)))
    while rows:
        try:
            part = mu0.take(rows)
            for i, res in zip(rows, _certify(part, tuple([circs[i] for i in rows]))):
                results[i] = res
            break
        except (DomainError, SingularCoupling) as exc:
            # a point outside the Hamiltonian's domain, or with a coupling
            # matrix singular to working precision, fails the model of its
            # whole stack: it is set aside, and the rest stay one stack
            results[rows.pop(exc.sample)] = exc
    if isinstance(circ, Circulations):
        if isinstance(results[0], VortexStabError):
            raise results[0]
        return results[0]
    return results


def stack_size(n: int) -> int:
    """How many points of shape dimension n to certify as one stack: each
    array of n^4 entries per point (the constraint Jacobian) then holds at
    most STACK_ENTRIES."""
    return max(1, STACK_ENTRIES // n**4)


def _certify(
    mu0: MuMatrix, circs: tuple[Circulations, ...]
) -> list[CertificateResult | VortexStabError]:
    """The certificate at each point of a stack, from one model handed to
    every stage and narrowed (:meth:`LocalModel.take`) to the points that
    pass the checks, then to those with independent and with dependent
    differentials.  Each result is built from per-stack lists."""
    results: list[CertificateResult | VortexStabError | None] = [None] * len(circs)
    model = local_model(mu0, circs)
    check = is_fixed_point(model, circs)
    inside, residual = model.inside, check.residual.tolist()
    screened = check.ok & inside & ~model.off_stratum
    for i in (~screened).nonzero()[0].tolist():
        if not check.ok[i]:
            results[i] = NotAFixedPoint(f"residual {residual[i]:.3e}")
        elif not inside[i]:
            results[i] = NotInOpenSet("mu0 has a vanishing entry")
        else:
            results[i] = _not_rank_one(model, i)
    at = screened.nonzero()[0]  # the stack rows of the model's points
    if not len(at):
        return results
    model = model.take(at)
    model.screened = True
    indep = independence_check(model, model.circs)
    for independent in (True, False):
        rows = (indep.independent == independent).nonzero()[0]
        if not len(rows):
            continue
        part = model.take(rows)
        part.independent = independent
        basis = tangent_basis(part, part.circs) if independent else None
        lin = linearize(part, part.circs, basis)
        ev = spectrum(lin)
        # a zero-dimensional leaf (n = 1) has an empty spectrum
        max_re = ev.real.max(axis=-1, initial=0.0)
        unstable = max_re > SPEC_TOL * np.sqrt(np.add.reduce(lin * lin, axis=(-2, -1)))
        outcome = _energy_casimir(part, (~unstable).nonzero()[0]) if independent else {}
        max_re, unstable, ranks = max_re.tolist(), unstable.tolist(), indep.rank[rows].tolist()
        for r, i in enumerate(at[rows].tolist()):
            common = {"spectrum": ev[r], "residual": residual[i]}
            dependent = "" if independent else _dependent(ranks[r], indep.expected)
            if unstable[r]:
                growth = f"max Re lambda = {max_re[r]:.6e}"
                reason = f"{growth}; {dependent}" if dependent else growth
                results[i] = CertificateResult(Verdict.LINEARLY_UNSTABLE, reason=reason, **common)
            elif dependent:
                results[i] = CertificateResult(Verdict.INCONCLUSIVE, reason=dependent, **common)
            else:
                results[i] = CertificateResult(tangent_basis=basis[r], **outcome[r], **common)
    return results


def _energy_casimir(model: LocalModel, rows: np.ndarray) -> dict[int, dict]:
    """One definiteness test of the restricted Hessian for a0 = +1 on the
    model narrowed to ``rows``: per row, the fields of its certified-stable
    or inconclusive result, with the signs applied to the whole stack."""
    if not len(rows):
        return {}
    part = model.take(rows)
    infeasible, outcome = _infeasible_points(part), {}
    if infeasible.any():
        worst = part.multipliers.residual[infeasible].tolist()
        for r, residual in zip(rows[infeasible].tolist(), worst):
            outcome[r] = dict(verdict=Verdict.INCONCLUSIVE, reason=_infeasible(residual))
        if infeasible.all():
            return outcome
        part, rows = part.take((~infeasible).nonzero()[0]), rows[~infeasible]
    mult = solve_multiplier_system(part, part.circs, a0=1.0)
    rh = restricted_hessian(part, part.circs, mult, part.basis)
    syl = sylvester_verdict(rh)
    d, sign = rh.shape[-1], syl.sign[:, None]
    # a0 = s scales the multipliers (negates them for s = -1) and the
    # Hessian by s, minor j by s^j
    minors, hessians = (sign ** np.arange(1, d + 1) * syl.minors).tolist(), sign[..., None] * rh
    a, b, c, dd = [np.where(sign < 0, -w, w).tolist() for w in (mult.a, mult.b, mult.c, mult.d)]
    residual, dim = mult.residual.tolist(), mult.solution_space_dim.tolist()
    wrong = syl.wrong_minor.tolist()
    for j, (r, s) in enumerate(zip(rows.tolist(), sign[:, 0].tolist())):
        if not s:
            outcome[r] = dict(verdict=Verdict.INCONCLUSIVE, reason=_not_definite(wrong[j], d))
            continue
        outcome[r] = dict(
            verdict=Verdict.CERTIFIED_STABLE,
            multipliers=MultiplierSet(
                float(s), tuple(a[j]), tuple(b[j]), tuple(c[j]), tuple(dd[j]), residual[j], dim[j]
            ),
            restricted_hessian=hessians[j],
            minors=tuple(minors[j]),
        )
    return outcome


def _not_rank_one(model: LocalModel, row: int) -> NotRankOne:
    gap = model.moment[1][row]
    return NotRankOne(f"mu0 is not i z z^*: M - z z^* reaches {gap:.3e} of max |M|", sample=row)


def _infeasible_points(model: LocalModel) -> np.ndarray:
    """Where no multipliers make a point critical: the residual of Df(mu0) = 0
    exceeds MULTIPLIER_TOL times max |4 pi grad h| there, a test free of units.
    Evaluated once per model and kept on it as ``infeasible``, which
    :meth:`LocalModel.take` slices."""
    if "infeasible" not in vars(model):
        scale = np.abs(model.energy_gradient).max(axis=-1, initial=0.0)
        model.infeasible = model.multipliers.residual > MULTIPLIER_TOL * scale
    return model.infeasible


def _dependent(rank: int, expected: int) -> str:
    return f"differentials not independent (rank {rank} < {expected}); full n^2 spectrum"


def _infeasible(residual: float) -> str:
    return f"no critical point: residual {residual:.3e}"


def _not_definite(wrong_minor: int, d: int) -> str:
    where = f"leading minor {wrong_minor} of {d} has the wrong sign" if d else "it is 0 x 0"
    return f"restricted Hessian not definite: {where}"
