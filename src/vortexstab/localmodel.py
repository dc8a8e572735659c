"""The linear algebra of the stability certificate at a stack of points.

A :class:`ReducedField` holds the reduced vector field at a stack of k points
that share n and the regime: the coupling matrices, the stacked reduced
Hamiltonian, the field residual, the energy Hessian and the linearization.  A
:class:`LocalModel` adds one Casimir subset: the stacked Casimir and
constraint differentials, one QR of them (ranks, tangent bases,
multipliers) and the restricted Hessian.  The stack a certificate works on is
memoised on the content of its arguments, so that the stages share it; the
certificate narrows it to the points still undecided with :func:`restrict`,
which slices what is computed.  Every array has a leading axis of length k;
one point is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    Circulations,
    CouplingMatrix,
    MuMatrix,
    build_coupling_matrix,
    coordinate_basis,
    flatten,
    flatten_stack,
    unflatten_stack,
)
from .constraints import (
    RANK_THRESHOLD,
    casimir_gradient,
    casimir_hessian,
    constraint_system,
    independent,
    row_rank,
)
from .dynamics import _lie_poisson_entries
from .errors import DimensionMismatch
from .hamiltonian import FOUR_PI, ReducedHamiltonian, gradient_entries


class ReducedField:
    """The reduced vector field at a stack of k points that share n and the
    regime; every array has a leading axis of length k.

    It evaluates the field at each point once (the fixed-point residual, and
    the size of the field's terms it is measured against) and builds the
    energy Hessian once, on first use, for both the linearization and the
    restricted Hessian.  It owns the coupling matrices and the
    reduced Hamiltonians of its circulation sets.
    """

    def __init__(self, mu0: MuMatrix, circs: tuple[Circulations, ...]):
        first = circs[0]
        n = first.n
        if mu0.entries.shape != (len(circs), n, n):
            raise DimensionMismatch(
                f"mu0 has shape {mu0.entries.shape}, circulations give {len(circs)} x {n} x {n}"
            )
        if any(c.N != first.N or c.regime is not first.regime for c in circs):
            raise DimensionMismatch("the circulation sets of a stack must share N and the regime")
        self.mu0, self.circs, self.n = mu0, circs, n
        self.u0 = flatten(mu0)
        couplings = [build_coupling_matrix(c) for c in circs]
        self.coupling = CouplingMatrix(
            k=np.stack([c.k for c in couplings]), k_inv=np.stack([c.k_inv for c in couplings])
        )
        gradient = self.hamiltonian.gradient(self.u0)
        self.energy_gradient = FOUR_PI * gradient
        self._g = gradient_entries(gradient, n)
        field = _lie_poisson_entries(mu0.entries, self._g, self.coupling.k_inv)
        self.residual = np.abs(flatten_stack(field)).max(axis=-1, initial=0.0)
        # the size of the field's terms: |mu| |G+| |K^-1|, G+ built from the
        # weights' sizes, so that no cancellation of terms hides the scale
        bound = np.abs(gradient_entries(self.hamiltonian.gradient_bound(self.u0), n))
        terms = np.abs(mu0.entries) @ bound @ np.abs(self.coupling.k_inv)
        self.scale = terms.max(axis=(-2, -1), initial=0.0)

    def take(self, rows: np.ndarray) -> ReducedField:
        """The field at some rows of the stack, with what is computed so far
        sliced, not computed again."""
        sub = object.__new__(ReducedField)
        sub.mu0, sub.n = MuMatrix(self.mu0.entries[rows]), self.n
        sub.circs = tuple([self.circs[i] for i in rows])
        sub.coupling = CouplingMatrix(k=self.coupling.k[rows], k_inv=self.coupling.k_inv[rows])
        sub.u0, sub.energy_gradient = self.u0[rows], self.energy_gradient[rows]
        sub._g, sub.residual, sub.scale = self._g[rows], self.residual[rows], self.scale[rows]
        if "energy_hessian" in vars(self):
            sub.energy_hessian = self.energy_hessian[rows]
        return sub

    @cached_property
    def hamiltonian(self) -> ReducedHamiltonian:
        return ReducedHamiltonian(self.circs)

    @cached_property
    def energy_hessian(self) -> np.ndarray:
        """Hessian of the reduced Hamiltonian h at each point, (k, n^2, n^2)."""
        return self.hamiltonian.hessian(self.u0)

    def linearize(self, basis: np.ndarray | None = None) -> np.ndarray:
        """Jacobian of the flattened reduced field at each point, or
        ``basis @ A @ basis^T`` for a stack of bases (k, d, n^2)."""
        n = self.n
        m, g, kinv = (a[:, None] for a in (self.mu0.entries, self._g, self.coupling.k_inv))
        hess_t = self.energy_hessian.swapaxes(-1, -2)
        # direction c moves mu by nu_c and G by p_c, the Hessian applied to it
        if basis is None:
            nu, p = 1j * coordinate_basis(n), gradient_entries(hess_t, n)
        else:
            nu, p = unflatten_stack(basis, n), gradient_entries(basis @ hess_t, n)
        deriv = -nu @ g @ kinv - m @ p @ kinv + kinv @ p @ m + kinv @ g @ nu
        jac = flatten_stack(deriv).swapaxes(-1, -2)
        return np.ascontiguousarray(jac if basis is None else basis @ jac)


class LocalModel:
    """The linear algebra of the certificate at the points of a reduced field
    and one Casimir subset; every array has a leading axis of length k.

    Rows of ``stack`` are the differentials of the chosen Casimirs, then those
    of all constraint components.  One stacked Householder QR gives the
    ranks, the tangent bases and, where a point's rows are independent (the
    only case the certificate goes on with), the unique multipliers; at a
    point with dependent rows the multipliers are the minimal-norm ones.
    The restricted Hessian contracts the constraint linear forms, projected
    once per basis.
    """

    def __init__(self, field: ReducedField, casimir_subset: tuple[int, ...]):
        self.field, self.casimir_subset = field, casimir_subset
        self.mu0, self.circs, self.n = field.mu0, field.circs, field.n
        self.coupling, self.energy_gradient = field.coupling, field.energy_gradient

    def take(self, rows: np.ndarray) -> LocalModel:
        """The model at some rows of the stack, with what is computed so far
        sliced, not computed again."""
        sub = LocalModel(self.field.take(rows), self.casimir_subset)
        computed = vars(self)
        if "stack" in computed:
            sub.stack = _read_only(self.stack[rows])
        if "_factors" in computed:
            rank, basis, w = self._factors
            sub._factors = _read_only(rank[rows]), _read_only(basis[rows]), _read_only(w[rows])
        if "unit_multipliers" in computed:
            sub.unit_multipliers = _read_only(self.unit_multipliers[rows])
        if "multipliers" in computed:
            sub.multipliers = self.multipliers.take(rows)
        if "dependent_casimirs" in computed:
            sub.dependent_casimirs = [self.dependent_casimirs[i] for i in rows]
        return sub

    @cached_property
    def stack(self) -> np.ndarray:
        rows = [casimir_gradient(self.mu0, self.coupling, j)[:, None] for j in self.casimir_subset]
        rows.append(constraint_system(self.n).jacobian(self.field.u0))
        return _read_only(np.concatenate(rows, axis=-2))

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From one Householder QR of the stack's transpose, constraint rows
        first: the numerical ranks (:func:`constraints.row_rank`), the columns
        of Q past the stack's row count (a tangent basis where the rows are
        independent), and where they are independent the unique solution of
        stack^T w = -energy_gradient (a0 = +1); NaN elsewhere.

        The constraint map is a submersion on the open set, so a dependence
        shows in the Casimir rows, where the unpivoted QR finds it."""
        k, rows = len(self.casimir_subset), self.stack.shape[-2]
        ordered = np.roll(self.stack, -k, axis=-2)
        q, r = np.linalg.qr(ordered.swapaxes(-1, -2), mode="complete")
        rank = row_rank(ordered, r)
        basis = np.ascontiguousarray(q[..., rows:].swapaxes(-1, -2))
        w = np.full(self.stack.shape[:-1], np.nan)
        unique = rank == rows
        if unique.any():
            along = q[unique, :, :rows].swapaxes(-1, -2) @ self.energy_gradient[unique, :, None]
            w[unique] = np.roll(-np.linalg.solve(r[unique, :rows], along)[..., 0], k, axis=-1)
        return _read_only(rank), _read_only(basis), _read_only(w)

    @property
    def rank(self) -> np.ndarray:
        return self._factors[0]

    @property
    def basis(self) -> np.ndarray:
        return self._factors[1]

    @cached_property
    def unit_multipliers(self) -> np.ndarray:
        """The a0 = +1 multipliers: unique where the rows are independent,
        minimal-norm where they are not, from one stacked pseudo-inverse of
        those points, on first use (the certificate never asks for them)."""
        rank, _, w = self._factors
        dependent = rank < self.stack.shape[-2]
        if not dependent.any():
            return w
        w = w.copy()
        pinv = np.linalg.pinv(self.stack[dependent].swapaxes(-1, -2), rtol=RANK_THRESHOLD)
        w[dependent] = -(pinv @ self.energy_gradient[dependent, :, None])[..., 0]
        return _read_only(w)

    @cached_property
    def multipliers(self) -> MultiplierSet:
        """The coefficients w = unit_multipliers (a0 = +1) with ||Df(mu0)||_inf,
        evaluated once per stack (the a0 = -1 set is :meth:`MultiplierSet.negated`)."""
        k, n = len(self.casimir_subset), self.n
        w = self.unit_multipliers
        rest = w[:, k:]
        df = self.energy_gradient + (self.stack.swapaxes(-1, -2) @ w[..., None])[..., 0]
        return MultiplierSet(
            a0=1.0,
            a=w[:, :k],
            b=rest[:, : n - 1],
            c=rest[:, n - 1 :: 2],
            d=rest[:, n::2],
            residual=np.abs(df).max(axis=-1, initial=0.0),
            solution_space_dim=self.stack.shape[-2] - self.rank,
        )

    @cached_property
    def dependent_casimirs(self) -> list[tuple[int, ...]]:
        """Per point, the Casimirs C_1..C_n whose differential lies in the
        constraint row space."""
        grads = np.stack(
            [casimir_gradient(self.mu0, self.coupling, j) for j in range(1, self.n + 1)], axis=-2
        )
        resid = grads
        jac = self.stack[:, len(self.casimir_subset) :]
        if jac.shape[-2]:
            # C_j appended to the constraint rows: its distance from their span
            q = np.linalg.qr(jac.swapaxes(-1, -2))[0]
            resid = grads - (grads @ q) @ q.swapaxes(-1, -2)
        norm = np.linalg.norm
        dependent = ~independent(norm(resid, axis=-1), norm(grads, axis=-1))
        return [tuple(int(j) + 1 for j in np.flatnonzero(row)) for row in dependent]

    def restricted_hessian(self, mult: MultiplierSet, basis: np.ndarray) -> np.ndarray:
        """basis H_f basis^T at each point, with the constraint part as a
        weighted sum of rank-one products of the projected linear forms."""
        basis_t = basis.swapaxes(-1, -2)
        h = mult.a0 * (basis @ (FOUR_PI * self.field.energy_hessian) @ basis_t)
        forms = np.stack(constraint_system(self.n).hessians()) @ basis_t[:, None]
        p1, p2, p3, p4 = np.moveaxis(forms, -3, 0)
        a = np.broadcast_to(np.asarray(mult.a, dtype=float), (len(h), len(self.casimir_subset)))
        for col, j in enumerate(self.casimir_subset):
            if j > 1 and a[:, col].any():
                hess = casimir_hessian(self.mu0, self.coupling, j)
                h = h + a[:, col, None, None] * (basis @ hess @ basis.swapaxes(-1, -2))
        # c Re R + d Im R = Re((c - i d) R)
        c, d = np.asarray(mult.c, dtype=float), np.asarray(mult.d, dtype=float)
        w = np.concatenate([np.asarray(mult.b, dtype=float), c - 1j * d], axis=-1)[..., None, :]
        s = (p1.swapaxes(-1, -2) * w) @ p2 - (p3.swapaxes(-1, -2) * w) @ p4
        return h + (s + s.swapaxes(-1, -2)).real


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _circulation_sets(circ: Circulations | Sequence[Circulations]) -> tuple[Circulations, ...]:
    return (circ,) if isinstance(circ, Circulations) else tuple(circ)


# Tuples on the certificate's paths are built from lists: tuple() of a
# generator allocates ten slots and shrinks them, and the shrunk tuples pile
# up on CPython's free list of their size, a few per sweep.
def _content(mu0: MuMatrix, circ: Circulations | Sequence[Circulations]) -> tuple:
    return mu0.entries.tobytes(), mu0.n, tuple([c.gammas for c in _circulation_sets(circ)])


# The stack the stages of a certificate query in turn, one at a time: its
# content, its reduced field and its local models by Casimir subset.
_memo: tuple = (None, None, {})


def clear_memo() -> None:
    """Forget the memoised stack."""
    global _memo
    _memo = (None, None, {})


def reduced_field(mu0: MuMatrix, circ: Circulations | Sequence[Circulations]) -> ReducedField:
    """The reduced field at mu0 (one point, or a stack with one circulation
    set per point), memoised on the content of its arguments; one point is a
    stack of one."""
    global _memo
    key = _content(mu0, circ)
    if _memo[0] != key:
        stack = MuMatrix(mu0.entries.reshape(-1, mu0.n, mu0.n))
        _memo = (key, ReducedField(stack, _circulation_sets(circ)), {})
    return _memo[1]


def local_model(
    mu0: MuMatrix,
    circ: Circulations | Sequence[Circulations],
    casimir_subset: Sequence[int] = (1,),
) -> LocalModel:
    """The local model at mu0 for a Casimir subset, memoised like :func:`reduced_field`."""
    field, subset = reduced_field(mu0, circ), tuple(casimir_subset)
    models = _memo[2]
    if subset not in models:
        models[subset] = LocalModel(field, subset)
    return models[subset]


def restrict(model: LocalModel, rows: np.ndarray) -> LocalModel:
    """The model at some rows of its stack (see :meth:`LocalModel.take`),
    memoised from now on in place of the stack it came from."""
    global _memo
    if len(rows) != len(model.circs):
        model = model.take(rows)
    key = _content(model.mu0, model.circs)
    if _memo[0] != key or _memo[2].get(model.casimir_subset) is not model:
        _memo = (key, model.field, {model.casimir_subset: model})
    return model


@dataclass(frozen=True)
class MultiplierSet:
    """Coefficients of the certificate function, normalized to a0 = +-1.

    For a stack of points each field other than ``a0`` gains a leading axis.
    """

    a0: float
    a: tuple[float, ...] | np.ndarray
    b: tuple[float, ...] | np.ndarray
    c: tuple[float, ...] | np.ndarray
    d: tuple[float, ...] | np.ndarray
    residual: float | np.ndarray
    solution_space_dim: int | np.ndarray

    @property
    def constraint_coefficients(self) -> np.ndarray:
        """Coefficients in constraint-component order (b's, then c/d pairs)."""
        b = np.asarray(self.b, dtype=float)
        pairs = np.stack([self.c, self.d], axis=-1).reshape(b.shape[:-1] + (-1,))
        return np.concatenate([b, pairs], axis=-1)

    def negated(self) -> MultiplierSet:
        """The set of a stack for -a0: every coefficient negated, the same residual."""
        return replace(self, a0=-self.a0, a=-self.a, b=-self.b, c=-self.c, d=-self.d)

    def take(self, rows: np.ndarray) -> MultiplierSet:
        """The coefficients of some points of a stack."""
        a, b, c, d = self.a[rows], self.b[rows], self.c[rows], self.d[rows]
        residual, dim = self.residual[rows], self.solution_space_dim[rows]
        return replace(self, a=a, b=b, c=c, d=d, residual=residual, solution_space_dim=dim)

    def point(self, i: int) -> MultiplierSet:
        """The coefficients of point i of a stack."""
        return MultiplierSet(
            a0=self.a0,
            a=tuple(self.a[i]),
            b=tuple(self.b[i]),
            c=tuple(self.c[i]),
            d=tuple(self.d[i]),
            residual=float(self.residual[i]),
            solution_space_dim=int(self.solution_space_dim[i]),
        )
