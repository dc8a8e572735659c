"""The linear algebra of the stability certificate at a stack of points.

A :class:`LocalModel` holds, at a stack of k points that share n and the
regime, what the stages of a certificate read: the reduced field (coupling
matrices, reduced Hamiltonians, field residual, n^2 x n^2 Jacobian) and the
leaf built from the moment map mu = phi(z) = i z z^* (ranks, tangent bases,
multipliers, the leaf operator and the restricted Hessian, in O(n^3) on z
through the thin QR T^T = U R of the rows T of Dphi; the multiplier residual
is the one reader of the constraint Jacobian).  T and the z-table Z are
written entry by entry from their formulas, exactly.  Nothing is memoised
between calls: the certificate builds one model of its stack, hands it to
each stage, and narrows it with :meth:`LocalModel.take`, which slices what
is computed and checks nothing again.  Every array has a leading axis of
length k; one point is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
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
)
from .constraints import (
    RANK_THRESHOLD,
    casimir_gradient,
    constraint_system,
    in_open_set,
    row_rank,
)
from .dynamics import _lie_poisson_entries
from .errors import DimensionMismatch, InvalidArgument
from .hamiltonian import FOUR_PI, ReducedHamiltonian, _distance_pairs, gradient_entries


class LocalModel:
    """The linear algebra of the certificate at a stack of k points that share
    n and the regime; every array has a leading axis of length k.

    The field part evaluates the reduced field at each point once (the
    fixed-point residual, and the size of the field's terms it is measured
    against), and builds the n^2 x n^2 Jacobian only when asked for it: at
    points with dependent differentials, and for a basis off the leaf.  It
    owns the coupling matrices and the reduced Hamiltonians of its
    circulation sets.

    The leaf's rows are the differential of C_1 (``casimirs``), then those of
    all constraint components, ``row_count`` in all; the model keeps the
    Casimir row only.  The constraint rows have full rank on the open set,
    and their common kernel is the tangent space of the rank-one stratum,
    the image of Dphi at z for mu0 = phi(z) = i z z^*, spanned by the 2n - 1
    rows T of Dphi along the kept directions.  Their thin QR T^T = U R is
    taken with R = chol(T T^T)^T, the R with a positive diagonal, from the
    closed-form (2n - 1)^2 Gram matrix; U is never formed.  One QR of the
    Casimir row projected onto U gives the ranks and the tangent bases
    B = (R^-1 Q_1)^T T.  The leaf operator and the restricted Hessian, the
    z-Hessian of 4 pi h + 2 pi Omega C_1, follow from one set of rows E
    along T and Omega (:attr:`_energy_rows`), with no multiplier but a0 and
    no constraint Hessian.  Both take a tangent basis X through its
    coordinates Y on T, X = Y^T T (:meth:`_coordinates`); where the rows are
    dependent the joint level set's tangent space is all of span(T).  The
    multipliers are a_1 = 2 pi Omega and the constraint coefficients in
    closed form, at every point; their residual reads the constraint
    Jacobian once and drops it.
    """

    # set by the certificate: screened when every point passed its
    # fixed-point, open-set and stratum checks, independent when its rank
    # check too; no stage repeats a check that a set flag names
    screened = independent = False

    def __init__(self, mu0: MuMatrix, circs: tuple[Circulations, ...]):
        first = circs[0]
        n = first.n
        if mu0.entries.shape != (len(circs), n, n):
            raise DimensionMismatch(
                f"mu0 has shape {mu0.entries.shape}, circulations give {len(circs)} x {n} x {n}"
            )
        self.mu0, self.circs, self.n = mu0, circs, n
        self.u0 = flatten(mu0)
        # raises DimensionMismatch for sets that differ in N or the regime
        self.coupling = build_coupling_matrix(circs)
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

    def take(self, rows: np.ndarray) -> LocalModel:
        """The model at some rows (sorted and distinct) of the stack, the model
        itself for all of its rows, with the checks' flags and what the
        stages after a narrowing read sliced, not computed or checked again.
        The moment map, the open-set test and :attr:`_frame` are not: a
        narrowed model computes them again if asked, to the same bits."""
        if len(rows) == len(self.circs):
            return self
        sub = object.__new__(LocalModel)
        sub.mu0, sub.n = self.mu0.take(rows), self.n
        sub.screened, sub.independent = self.screened, self.independent
        # tuple() of a generator allocates ten slots and shrinks them, and the
        # shrunk tuples pile up on CPython's free list of their size
        sub.circs = tuple([self.circs[i] for i in rows])
        sub.coupling = CouplingMatrix(k=self.coupling.k[rows], k_inv=self.coupling.k_inv[rows])
        sub.u0, sub.energy_gradient = self.u0[rows], self.energy_gradient[rows]
        sub._g, sub.residual, sub.scale = self._g[rows], self.residual[rows], self.scale[rows]
        computed = vars(self)
        for name in ("casimirs", "infeasible"):
            if name in computed:
                setattr(sub, name, _read_only(computed[name][rows]))
        for name in ("_factors", "_energy_rows"):
            if name in computed:
                setattr(sub, name, tuple([_read_only(a[rows]) for a in computed[name]]))
        if "multipliers" in computed:
            sub.multipliers = self.multipliers.take(rows)
        return sub

    @cached_property
    def hamiltonian(self) -> ReducedHamiltonian:
        return ReducedHamiltonian(self.circs)

    def linearize(self) -> np.ndarray:
        """Jacobian of the flattened reduced field at each point, (k, n^2, n^2)."""
        n = self.n
        m, g, kinv = (a[:, None] for a in (self.mu0.entries, self._g, self.coupling.k_inv))
        # direction c moves mu by nu_c and G by p_c, the Hessian applied to it
        hess_t = self.hamiltonian.hessian(self.u0).swapaxes(-1, -2)
        nu, p = 1j * coordinate_basis(n), gradient_entries(hess_t, n)
        deriv = -nu @ g @ kinv - m @ p @ kinv + kinv @ p @ m + kinv @ g @ nu
        return np.ascontiguousarray(flatten_stack(deriv).swapaxes(-1, -2))

    def _coordinates(self, basis: np.ndarray) -> np.ndarray:
        """Y (k, 2n - 1, d) with X = Y^T T for a stack of tangent bases X
        (k, d, n^2): the stored R^-1 Q_1 for the model's own bases (by value),
        else R^-1 Q_1 (B X^T) where the rows are independent.  Where they
        are not, the C_1 row lies in the constraint rows' span and the
        tangent space of the joint level set is all of span(T), so
        Y = R^-1 R^-T T X^T.  A row off the tangent space, X less Y^T T, by
        more than RANK_THRESHOLD of its length, or not finite, raises
        InvalidArgument."""
        own, coords = self.basis, self._factors[3]
        if basis is own or np.array_equal(basis, own):
            return coords
        along = basis @ own.swapaxes(-1, -2)
        coords, onto = coords @ along.swapaxes(-1, -2), along @ own
        dependent = self.rank < self.row_count
        if dependent.any():
            tangent, r = self._frame[0][dependent], self._frame[1][dependent]
            on_t = tangent @ basis[dependent].swapaxes(-1, -2)
            y = np.linalg.solve(r, np.linalg.solve(r.swapaxes(-1, -2), on_t))
            coords[dependent], onto[dependent] = y, y.swapaxes(-1, -2) @ tangent
        off = np.linalg.norm(basis - onto, axis=-1)
        if not np.all(off <= RANK_THRESHOLD * np.linalg.norm(basis, axis=-1)):
            raise InvalidArgument("a basis row is off the leaf or not finite")
        return coords

    def leaf_operator(self, basis: np.ndarray | None = None) -> np.ndarray:
        """L = X A X^T on a stack of tangent bases X (k, d, n^2), the model's
        own B by default (d = 2n - 2), from the field on the leaf's
        coordinates z (mu = phi(z) = i z z^*), with no n^2-sized matrix of
        directions; tangent bases only, InvalidArgument otherwise.

        On the stratum X(phi(z)) = Dphi(z) Z(z) with Z(z) = K^-1 G(phi(z)) z,
        and at a fixed point Z(z0) = i Omega z0 (Dphi(i z0) = 0), so
        A Dphi(v) = Dphi(J v) with J v = E K^-1 - i Omega v for the rows E of
        :attr:`_energy_rows`.  Each image J v of a kept direction v, less its
        i e_c component along i z0, has coordinates M v on the kept
        directions, so A T^T = T^T M for the rows T of Dphi; with T^T = U R
        and B^T = U Q_1 = T^T R^-1 Q_1, L = (R^T Q_1)^T M (R^-1 Q_1), and on
        X = Y^T T, L = (R Y)^T R M Y.  It equals X A X^T at fixed points on
        the stratum, whether or not the differentials are independent."""
        z, (_, r, c, _), (q, own) = self.moment[0], self._frame, self._factors[2:]
        coords = own if basis is None else self._coordinates(basis)
        rows, omega, v = self._energy_rows
        jv = rows @ self.coupling.k_inv - 1j * omega * v
        # less the i e_c component along i z0, whose i e_c component is Re z_c
        points = np.arange(len(z))
        jv -= (jv[points, :, c].imag / z[points, c, None].real)[..., None] * (1j * z[:, None])
        # M: the coordinates Re(v^* J v') on the kept directions
        m = (v.conj() @ jv.swapaxes(-1, -2)).real
        # R Y is Q_1 itself on the model's own bases
        left = q[..., 1:] if coords is own else r @ coords
        return left.swapaxes(-1, -2) @ r @ m @ coords

    @cached_property
    def _energy_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows E = v G^T + P(v) z0 (k, 2n - 1, n) for the kept directions
        v, Omega (k, 1, 1) from K^-1 G z0 = i Omega z0, and v: what the leaf
        operator and the restricted Hessian read for every tangent basis.
        P(v), the Hessian of h applied to Dphi(v) as a matrix, gives
        P(v) z0 = g Z for the Hessian of h along Dphi(v) as g and the z-table
        Z (:func:`_z_table`), so all P(v) z0 are one Hessian of h along the
        rows T times Z, as one real product with Z's (re, im) pairs."""
        z, g = self.moment[0], self._g
        along = self.hamiltonian.hessian(self.u0, self._frame[0])
        pullback = (along @ _z_table(z).view(float)).view(complex)
        v = _directions(self.n)[self._frame[3]]
        rows = v @ g.swapaxes(-1, -2) + pullback
        z_h, field = z.conj()[:, None], self.coupling.k_inv @ g @ z[..., None]
        omega = (z_h @ field).imag / (z_h @ z[..., None]).real
        return _read_only(rows), _read_only(omega), _read_only(v)

    @cached_property
    def inside(self) -> np.ndarray:
        """Per point, whether mu0 is in the open set (no vanishing entry)."""
        return _read_only(in_open_set(self.mu0))

    @cached_property
    def casimirs(self) -> np.ndarray:
        """The differential of C_1 as one row, (k, 1, n^2)."""
        return _read_only(casimir_gradient(self.mu0, self.coupling, 1)[:, None])

    @property
    def row_count(self) -> int:
        """The number of Casimir and constraint differentials, 1 + (n - 1)^2."""
        return 1 + (self.n - 1) ** 2

    @cached_property
    def moment(self) -> tuple[np.ndarray, np.ndarray]:
        """z with M = -i mu0 = z z^*, column c of M over sqrt(M_cc) for the
        largest diagonal entry M_cc, and the largest entry of M - z z^* over
        M_cc (NaN where M_cc is not positive)."""
        m = self.mu0.hermitian_part
        diagonal = np.diagonal(m, axis1=-2, axis2=-1).real
        points, c = np.arange(len(m)), diagonal.argmax(axis=-1)
        peak = diagonal[points, c]
        with np.errstate(invalid="ignore", divide="ignore"):
            z = m[points, :, c] / np.sqrt(peak)[:, None]
            gap = np.abs(m - z[:, :, None] * z[:, None, :].conj()).max(axis=(-2, -1))
            return z, gap / peak

    @property
    def off_stratum(self) -> np.ndarray:
        """Per point, whether M = -i mu0 is not z z^*: an entry of M - z z^*
        exceeds RANK_THRESHOLD times the largest entry of M."""
        return ~(self.moment[1] <= RANK_THRESHOLD)

    @cached_property
    def _frame(self) -> tuple[np.ndarray, ...]:
        """The rows T of Dphi along the kept directions, the R of their thin
        QR T^T = U R, c and the kept directions (:func:`_kept`): every real
        direction but i e_c, as the kernel i z of Dphi has the component
        Re z_c >= max |z_j| along it.  R = chol(T T^T)^T from the closed-form
        Gram matrix (:func:`_dphi_gram`), of condition number at most
        4(n + 1), has a positive diagonal.  U = T^T R^-1 is never formed: a
        row r projects onto it as (r T^T) R^-1."""
        z = self.moment[0]
        c, keep = _kept(z)
        r_phi = np.linalg.cholesky(_dphi_gram(z, keep)).swapaxes(-1, -2)
        return tuple([_read_only(a) for a in (_dphi_rows(z, keep), r_phi, c, keep)])

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """The numerical ranks; the tangent bases B = (R^-1 Q_1)^T T, formed
        once; the complete Q of the QR of the Casimir row C projected onto U
        (:attr:`_frame`), whose columns Q_1 but the first the leaf operator
        reads; and the coordinates R^-1 Q_1 of B on T.  U spans the kernel of
        the constraint rows, so |R_11| of that QR is C's distance from their
        span, judged by the rank rule against its own length
        (:func:`constraints.row_rank`)."""
        tangent, r_phi = self._frame[:2]
        # the energy gradient rides along as a second column that nothing
        # reads: a one-column solve changes Q, and so B, in its last bits
        rows = np.concatenate([self.casimirs, self.energy_gradient[:, None]], axis=-2)
        on_u = np.linalg.solve(r_phi.swapaxes(-1, -2), tangent @ rows.swapaxes(-1, -2))
        q, r = np.linalg.qr(on_u[..., :1], mode="complete")
        rank = (self.n - 1) ** 2 + row_rank(self.casimirs, r)
        coords = np.linalg.solve(r_phi, q[..., 1:])
        basis = np.ascontiguousarray(coords.swapaxes(-1, -2) @ tangent)
        return tuple([_read_only(a) for a in (rank, basis, q, coords)])

    @property
    def rank(self) -> np.ndarray:
        return self._factors[0]

    @property
    def basis(self) -> np.ndarray:
        return self._factors[1]

    @cached_property
    def multipliers(self) -> MultiplierSet:
        """The coefficients w (a0 = +1) with ||Df(mu0)||_inf, evaluated once
        per stack (the a0 = -1 set is :meth:`MultiplierSet.negated`).

        One closed form at every point: a_1 = 2 pi Omega with Omega from
        K^-1 G z0 = i Omega z0 (:attr:`_energy_rows`), and the constraint
        coefficients that cancel 4 pi grad h + a_1 grad C_1
        (:func:`_constraint_multipliers`).  Where the rows are independent
        this is the unique solution; where they are not, it is one member of
        the family of dimension ``solution_space_dim``.  The constraint
        Jacobian J is read here, once, to check the closed form apart from
        it: Df = 4 pi grad h + a_1 dC_1 + J^T (b, c, d); it is not kept."""
        n = self.n
        a = 2 * np.pi * self._energy_rows[1][:, 0]
        df = self.energy_gradient + a * self.casimirs[:, 0]
        rest = _constraint_multipliers(self.moment[0], df)
        df += (rest[:, None] @ constraint_system(n).jacobian(self.u0))[:, 0]
        residual = np.abs(df).max(axis=-1, initial=0.0)
        b, c, d = rest[:, : n - 1], rest[:, n - 1 :: 2], rest[:, n::2]
        return MultiplierSet(1.0, a, b, c, d, residual, self.row_count - self.rank)

    def restricted_hessian(self, mult: MultiplierSet, basis: np.ndarray) -> np.ndarray:
        """X H_f X^T at each point for a stack of tangent bases X (k, d, n^2),
        H_f the Hessian of the certificate function at critical multipliers
        for ``mult.a0``; a, b, c and d are not read.  Tangent bases only;
        InvalidArgument otherwise.

        Every constraint component R vanishes on the image of phi, so
        Dphi(v)^T Hess R Dphi(v') = -DR . D^2 phi(v, v') with
        D^2 phi(v, v') = i (v v'^* + v' v^*); at critical multipliers
        sum_R w_R grad R = -(4 pi grad h + a_1 grad C_1) with a_1 = 2 pi Omega,
        as the matrix form of grad C_1 is -2i K.  So on the rows T of Dphi
        H_f is the z-Hessian of the energy-momentum function
        4 pi h + 2 pi Omega C_1, a0 4 pi (Im(v_i^* E_j) - Omega Re(v_i^* K v_j))
        for the rows E of :attr:`_energy_rows`, and X H_f X^T is
        Y^T (T H_f T^T) Y on X = Y^T T (:meth:`_coordinates`), also where the
        differentials are dependent."""
        coords, (rows, omega, v) = self._coordinates(basis), self._energy_rows
        k_form = (v.conj() @ self.coupling.k @ v.swapaxes(-1, -2)).real
        on_rows = (v.conj() @ rows.swapaxes(-1, -2)).imag - omega * k_form
        return (mult.a0 * FOUR_PI) * (coords.swapaxes(-1, -2) @ on_rows @ coords)


@lru_cache(maxsize=None)
def _directions(n: int) -> np.ndarray:
    """The 2n real directions e_j, then i e_j, of C^n as rows."""
    v = np.concatenate([np.eye(n), 1j * np.eye(n)])
    v.setflags(write=False)
    return v


def _dphi_rows(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows T of Dphi for the kept directions, (k, 2n - 1, n^2).

    Dphi(v) = i M with M = v z^* + z v^*, whose coordinates are the diagonal
    and the upper entries of M.  M_jj is 2 Re z_j for v = e_j and 2 Im z_j
    for v = i e_j; for a pair a < b, M_ab is conj(z_b) for e_a, z_a for e_b,
    i conj(z_b) for i e_a and -i z_a for i e_b; every other coordinate is 0.
    So each is an entry of z, negated or doubled, exactly.  The kept rows
    are gathered into a new C-contiguous array: the products that read T
    change in their last bits with its layout."""
    k, n = z.shape
    a, b, x = _distance_pairs(n)
    y, j = x + 1, np.arange(n)
    re, im = z.real, z.imag
    rows = np.zeros((k, 2 * n, n * n))
    rows[:, j, j], rows[:, n + j, j] = 2.0 * re, 2.0 * im
    rows[:, a, x], rows[:, a, y] = re[:, b], -im[:, b]
    rows[:, b, x], rows[:, b, y] = re[:, a], im[:, a]
    rows[:, n + a, x], rows[:, n + a, y] = im[:, b], re[:, b]
    rows[:, n + b, x], rows[:, n + b, y] = im[:, a], -re[:, a]
    return rows[np.arange(k)[:, None], keep]


def _dphi_gram(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """T T^T for the rows T of Dphi along the kept directions, in closed form.

    The coordinates pair two Hermitian matrices as (tr(M N) + sum_j M_jj
    N_jj) / 2.  For M = v z^* + z v^* and N = w z^* + z w^* that is
    Re((z^* v)(z^* w)) + |z|^2 Re(v^* w) + 2 sum_j Re(v_j conj z_j) Re(w_j
    conj z_j).  For the directions e_j and i e_j the last sum has one term,
    at a shared j, and Re(v_j conj z_j) = Re(z^* v), so with x + i y = z^* v
    the Gram matrix is (x x^T) (1 + 2 [j = j']) - y y^T + |z|^2 I."""
    n = z.shape[-1]
    points = np.arange(len(z))[:, None]
    x = np.concatenate([z.real, z.imag], -1)[points, keep]
    y = np.concatenate([-z.imag, z.real], -1)[points, keep]
    j = keep % n
    gram = (x[:, :, None] * x[:, None, :]) * (1.0 + 2.0 * (j[:, :, None] == j[:, None, :]))
    gram -= y[:, :, None] * y[:, None, :]
    diagonal = np.arange(2 * n - 1)
    gram[:, diagonal, diagonal] += (np.abs(z) ** 2).sum(axis=-1)[:, None]
    return gram


def _z_table(z: np.ndarray) -> np.ndarray:
    """The (k, n^2, n) table Z with G z = g Z for every gradient g and its
    matrix G (:func:`hamiltonian.gradient_entries`): row m is G_m z for the
    matrix G_m of the m-th coordinate vector.  G_m is 2i e_j e_j^T for mu_j,
    and for the pair a < b it has G_ab = i, G_ba = i for x_ab and G_ab = -1,
    G_ba = 1 for y_ab; so row mu_j is 2i z_j e_j, row x_ab is
    i (z_b e_a + z_a e_b) and row y_ab is z_a e_b - z_b e_a."""
    k, n = z.shape
    a, b, x = _distance_pairs(n)
    j, iz = np.arange(n), 1j * z
    table = np.zeros((k, n * n, n), dtype=complex)
    table[:, j, j] = 2j * z
    table[:, x, a], table[:, x, b] = iz[:, b], iz[:, a]
    table[:, x + 1, a], table[:, x + 1, b] = -z[:, b], z[:, a]
    return table


def _kept(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point of a stack of z (k, n), the index c of the largest real part
    and the indices into :func:`_directions` of the 2n - 1 directions but
    i e_c."""
    n = z.shape[-1]
    c, drop = z.real.argmax(axis=-1), np.arange(2 * n - 1)
    return c, drop + (drop >= n + c[:, None])


def _constraint_multipliers(z: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The constraint coefficients (b, then (c, d) pairs) that cancel
    ``rest`` = 4 pi grad h + sum_j a_j grad C_j at M = z z^*, in O(n^3).

    The differential of the minor R_ij (rows i, i+1, columns j, j+1) at
    z z^* along a Hermitian Y is (A^T Y conj(A))_ij, where column i of A is
    z_{i+1} e_i - z_i e_{i+1}.  With G~ the Hermitian matrix of ``rest``
    (rest . u(iY) = Re tr(G~ Y)) and X = -conj(G~), the coefficients solve
    A W A^H = X: with P = (A^H A)^-1 A^H (A^H A is tridiagonal), W = P X P^H,
    and omega = conj(2 triu(W, 1) + diag(W)) holds b_i = omega_ii and
    c_ij + i d_ij = omega_ij.  As G~ = -(i/2) G with G the matrix form of
    ``rest`` (:func:`hamiltonian.gradient_entries`), conj(W) = (i/2) Y with
    Y = conj(P) G P^T, taken here."""
    n = z.shape[-1]
    i, j, _ = _distance_pairs(n - 1)
    step = np.arange(n - 1)
    a = np.zeros(z.shape + (n - 1,), dtype=complex)  # conj(A)
    a[:, step, step], a[:, step + 1, step] = z[:, 1:].conj(), -z[:, :-1].conj()
    a_h = a.conj().swapaxes(-1, -2)
    p = np.linalg.solve(a_h @ a, a_h)  # conj(P)
    y = p @ gradient_entries(rest, n) @ p.conj().swapaxes(-1, -2)
    out = np.empty((len(z), (n - 1) ** 2))
    out[:, : n - 1] = -0.5 * np.diagonal(y, axis1=-2, axis2=-1).imag
    out[:, n - 1 :: 2], out[:, n::2] = -y[:, i, j].imag, y[:, i, j].real
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _circulation_sets(circ: Circulations | Sequence[Circulations]) -> tuple[Circulations, ...]:
    return (circ,) if isinstance(circ, Circulations) else tuple(circ)


def local_model(
    mu0: MuMatrix | LocalModel, circ: Circulations | Sequence[Circulations]
) -> LocalModel:
    """mu0 itself when it is a model; else a new model at mu0 (one point, or
    a stack with one circulation set per point; one point is a stack of
    one)."""
    if isinstance(mu0, LocalModel):
        return mu0
    stack = mu0 if mu0.entries.ndim == 3 else MuMatrix(mu0.entries.reshape(-1, mu0.n, mu0.n))
    return LocalModel(stack, _circulation_sets(circ))


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
        a, b, c, d = (tuple(w[i].tolist()) for w in (self.a, self.b, self.c, self.d))
        residual, dim = self.residual[i].item(), self.solution_space_dim[i].item()
        return MultiplierSet(self.a0, a, b, c, d, residual, dim)
