"""Vortex dynamics: full ODE, relative coordinates, moment map, RK4 integration.

The right-hand sides of the reduced and the full system are built once per
circulation set (:func:`_right_hand_side`, one ``lru_cache`` entry per set
and system, on the last few sets), with the circulation-only constants
folded into constant matrices.  Both act on real state vectors: the
(re, im) pairs of the entries of mu, or of the positions.  Each field is
f(y) = core(y L) K, a constant gather L, a nonlinear core written once and a
constant scatter K (see :class:`_Field`).  The public
:func:`lie_poisson_vector_field` and :func:`full_vector_field` gather, run
the domain test and one core, and scatter.  The reduced core is real: it
computes D = G^T mu, with (dh/dmu) K^-1 = i G, and K maps D to X_h = i (D +
D^H).  The operator's ``run`` takes the RK4 steps of :func:`integrate`: each
stage input is one product of the previous core's output with (dt/2) K and
the state, and the reduced run folds the gather of the log arguments into
that product.  The stage inputs are checked once per block of steps.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .algebra import (
    CIRCULATION_CACHE_SIZE,
    Circulations,
    MuMatrix,
    Regime,
    build_coupling_matrix,
    flatten,
    flatten_stack,
    unflatten,
    unflatten_stack,
)
from .constraints import casimir_values, constraint_system
from .errors import Collision, DimensionMismatch, DomainError, EmptyTrajectory, InvalidArgument
from .hamiltonian import (
    COLLISION_TOL,
    FOUR_PI,
    LOG_FLOOR,
    VortexConfiguration,
    _distance_pairs,
    check_arguments,
    check_separation,
    full_hamiltonian,
    min_separation,
    reduced_system,
)


@dataclass(frozen=True)
class RelativeCoordinates:
    """Positions relative to the reference vortex (last, or second-to-last
    when the total circulation vanishes): one tuple, or a read-only stack of
    shape (samples, m)."""

    z: tuple[complex, ...] | np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=complex)
        nearest = np.minimum(np.abs(z).min(axis=-1, initial=np.inf), min_separation(z))
        check_separation(nearest, "relative-coordinate")
        z.setflags(write=False)
        object.__setattr__(self, "z", tuple(z.tolist()) if z.ndim == 1 else z)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.z, dtype=complex)


def relative_coordinates(cfg: VortexConfiguration) -> RelativeCoordinates:
    """z_i = q_i - q_ref with the regime-dependent reference vortex, for one
    configuration or each of a stack."""
    q = cfg.as_array()
    size = q.shape[-1]
    if cfg.circ.regime is Regime.NON_ZERO_TOTAL:
        ref, dropped = size - 1, [size - 1]
    else:
        ref, dropped = size - 2, [size - 2, size - 1]
    return RelativeCoordinates(np.delete(q, dropped, axis=-1) - q[..., ref, None])


def moment_map(z: RelativeCoordinates) -> MuMatrix:
    """mu = i z z^*, the rank-one shape matrix of a relative configuration
    (a stack of them for a stack of configurations)."""
    arr = z.as_array()
    return MuMatrix(1j * (arr[..., :, None] * arr[..., None, :].conj()))


def _lie_poisson_entries(m: np.ndarray, g: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    """X_h = A^H - A with A = mu (dh/dmu) K^-1, skew-Hermitian to the last bit;
    over the last two axes of a stack."""
    a = m @ g @ kinv
    return a.conj().swapaxes(-1, -2) - a


class Which(enum.Enum):
    FULL = "full"
    REDUCED = "reduced"


def _check_separations(conj_d: np.ndarray, size: np.ndarray | None = None) -> None:
    """The collision test of the rows of conj_d (its first axis; a row may be
    a stack), one after the other, with |d| written into ``size`` if given:
    Collision for the first row with two vortices within COLLISION_TOL (read
    at this call), with the row's index as its ``sample``.  A row with a NaN
    passes."""
    size = np.abs(conj_d, out=size)
    # min(), without its Python wrapper; then the least |d| of each row, NaN
    # for a row with a NaN
    if not size.item(size.argmin()) > COLLISION_TOL:
        nearest = size.reshape(len(size), -1).min(axis=1)
        first = (nearest <= COLLISION_TOL).argmax()
        if nearest[first] <= COLLISION_TOL:
            raise Collision(f"minimum vortex separation {nearest[first]:.3e}", sample=int(first))


def _check_log_arguments(s: np.ndarray) -> None:
    """The log-argument test of the rows of s (its first axis), one after
    the other: DomainError for the first row with a log argument at or below
    LOG_FLOOR (read at this call), with the row's index as its ``sample``.
    A row with a NaN passes."""
    # min(), without its Python wrapper; then the least argument of each row,
    # NaN for a row with a NaN, as a stack of one-argument rows
    if not s.item(s.argmin()) > LOG_FLOOR:
        check_arguments(s.min(axis=1)[:, None])


# The scales of the four cores of an RK4 step: the third core's output feeds
# a stage input a whole step dt from the state, the first two half a step
_CORE_SCALES = (1.0, 1.0, 2.0, 1.0)

# The steps of a block of a run, whose stage inputs are checked at once
_BLOCK_STEPS = 32


class _Field:
    """A memoised right-hand side f(y) = core(y L) K: a constant gather L of
    the state y (its (re, im) pairs), a nonlinear core, and a constant
    scatter K of the core's output.  It holds only constants of its
    circulation set, read-only.  ``stages(inputs, outputs, scales)`` binds
    one core to each input, output and scale: called without arguments,
    core k writes scales[k] times its value into outputs[k], with the scale
    folded into the core's first operation.  A call of the field (one state
    or a stack of states) gathers, runs the domain test, runs one core of
    scale 1 and scatters, in arrays of its own.

    ``run(samples, dt)`` takes the RK4 steps of one run.  A step of dt from
    x runs core k at its stage input y_k with the scale 1, 1, 2, 1, so that
    core k writes a_k = f_k, f_k, 2 f_k, f_k for f_k = core(y_k L), and

        y_1 = x,  y_{k+1} = x + a_k (dt/2) K (k = 1, 2, 3),
        x' = x + (dt/6 a_1 + dt/3 a_2 + dt/6 a_3 + dt/6 a_4) K.

    Twice a core's value is exact, bit for bit, so the scales round nothing,
    and a field that is exactly zero in some entries (at a symmetric
    equilibrium) leaves them exactly where they are, as the classical step
    does.  Each a_k is written with a trailing 1, and x is the row under a
    copy of (dt/2) K, so y_{k+1} is one product [a_k | 1] [(dt/2) K ; x].
    The step's end sums the four a_k with their weights (one product),
    scatters the sum with K and adds x once, as the classical combination
    does.  Each product reads one contiguous row or block, and its matrix
    is one of the field's, or (dt/2) times one with the row x below it, so a
    step does the arithmetic of a stage-by-stage step at every N.  The
    buffers of a run are allocated, and every call is bound to its arrays,
    once per run.

    The domain test runs once per block of up to _BLOCK_STEPS steps.  Each
    step copies the four rows the test reads (the pairs of conj(d), or the
    log arguments) into its row of a block buffer, and after the block one
    test runs over the block's rows in order.  The first row that fails
    names its step, with the error a stage-by-stage check would raise; that
    step and the steps after it in the block, which ran on its output with
    numpy's floating-point warnings off (:func:`integrate`), are not kept."""


class _FullField(_Field):
    """dq_i/dt = (i/2pi) sum_j G_j / conj(q_i - q_j) for one circulation set,
    as a sum over the pairs i < j, on x, the (re, im) pairs of the positions:
    the pairs of conj(d), d = q_i - q_j, are x times a constant (2N, 2 pairs)
    ``incidence`` matrix, the core takes their reciprocal, and the
    circulations are folded into a constant (2 pairs, 2N) ``coupling``
    matrix on the pairs of 1/conj(d), so that pair (i, j) adds (i/2pi) G_j /
    conj(d) to vortex i and -(i/2pi) G_i / conj(d) to vortex j."""

    def __init__(self, circ: Circulations):
        g = circ.as_array() / (2.0 * np.pi)
        i, j, _ = _distance_pairs(circ.N)
        pairs = np.arange(len(i))
        incidence = np.zeros((circ.N, 2, len(pairs), 2))
        incidence[i, 0, pairs, 0], incidence[j, 0, pairs, 0] = 1.0, -1.0
        incidence[i, 1, pairs, 1], incidence[j, 1, pairs, 1] = -1.0, 1.0
        self.incidence = incidence.reshape(2 * circ.N, 2 * len(pairs))
        # i c (re + i im) = -c im + i c re
        coupling = np.zeros((len(pairs), 2, circ.N, 2))
        for vortex, c in ((i, g[j]), (j, -g[i])):
            coupling[pairs, 1, vortex, 0], coupling[pairs, 0, vortex, 1] = -c, c
        self.coupling = coupling.reshape(2 * len(pairs), 2 * circ.N)
        for a in (self.incidence, self.coupling):
            a.setflags(write=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The velocities at the (contiguous) pairs x, one vector or a stack."""
        conj_d = x.dot(self.incidence).view(complex)
        _check_separations(conj_d[None])
        inverse = np.empty(conj_d.shape, dtype=complex)
        self.stages((conj_d,), (inverse,), (1.0,))[0]()
        return inverse.view(float).dot(self.coupling)

    @staticmethod
    def stages(
        inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray], scales: Sequence[float]
    ) -> list[Callable[[], None]]:
        """Cores from conj(d) to c / conj(d), complex arrays: one division
        with its arguments bound (numpy divides in one order for every c, so
        2 / conj(d) is exactly twice 1 / conj(d))."""
        return [
            partial(np.divide, np.array(c, dtype=complex), d, out)
            for d, out, c in zip(inputs, outputs, scales)
        ]

    def run(self, samples: np.ndarray, dt: float):
        """RK4 steps of dt from samples[0], the next state written into each
        next row of samples; None, or the index of the first row not written
        and the Collision of its step.  A stage gathers the pairs of its
        input, y_k I, into row k of one buffer of pairs, and a step copies
        the four rows into its row of a block buffer; the block is checked
        once (see :class:`_Field`).  The gather is a product of its own:
        folded into the stage input's, it would read C I, (2 pairs, 2 pairs)
        against the (2N, 2 pairs) of I."""
        incidence, coupling = self.incidence, self.coupling
        width, pair_width = incidence.shape
        # [(dt/2) C ; x] over the rows of the stage inputs x, y2, y3, y4
        rows = np.empty((pair_width + 4, width))
        np.multiply(coupling, dt / 2.0, out=rows[:pair_width])
        matrix, (x, y2, y3, y4) = rows[: pair_width + 1], rows[pair_width:]
        pairs = np.empty((4, pair_width))
        p1, p2, p3, p4 = pairs
        scaled = np.empty((4, pair_width + 1))
        scaled[:, pair_width] = 1.0
        core1, core2, core3, core4 = self.stages(
            pairs.view(complex), scaled[:, :pair_width].view(complex), _CORE_SCALES
        )
        into2, into3, into4 = scaled[0].dot, scaled[1].dot, scaled[2].dot
        gather1, gather2, gather3, gather4 = x.dot, y2.dot, y3.dot, y4.dot
        count = len(samples)
        per_block = min(count - 1, _BLOCK_STEPS)
        block = np.empty((per_block,) + pairs.shape)
        # the block's stage rows of conj(d), checked whole: past a short last
        # block they hold the rows of the block before, which passed
        conj_d = block.view(complex).reshape(4 * per_block, -1)
        check = partial(_check_separations, conj_d, np.empty(conj_d.shape))
        # the end's weights of a1, a2, a3 = 2 f3 and a4
        combine = np.array([dt / 6.0, dt / 3.0, dt / 6.0, dt / 6.0]).dot
        total, increment, add = np.empty(pair_width + 1), np.empty(width), np.add
        scatter = total[:pair_width].dot
        x[:] = samples[0]
        for start in range(1, count, per_block):
            stop = min(start + per_block, count)
            for s in range(start, stop):
                gather1(incidence, out=p1)
                core1()
                into2(matrix, out=y2)
                gather2(incidence, out=p2)
                core2()
                into3(matrix, out=y3)
                gather3(incidence, out=p3)
                core3()
                into4(matrix, out=y4)
                gather4(incidence, out=p4)
                core4()
                block[s - start] = pairs
                combine(scaled, out=total)
                scatter(coupling, out=increment)
                add(increment, x, out=x)
                samples[s] = x
            try:
                check()
            except Collision as exc:
                return start + exc.sample // 4, exc
        return None


class _ReducedField(_Field):
    """X_h of one circulation set on x, the (re, im) pairs of the entries of
    mu in row-major order (2n^2 values, one vector or a stack of them),
    through constant matrices.  h reads mu only through its diagonal and
    the real parts x_ij, so dh/dmu is i times a real symmetric matrix, and
    (dh/dmu) K^-1 = i G with G real.  For an exactly skew-Hermitian mu, X_h =
    A^H - A with A = i mu G is i (D + D^H) with D = G^T mu.  The log
    arguments are s = x ``forms``, with the forms F of
    :func:`reduced_system` gathered at the pairs; G^T = (1/s) ``rk``, where
    the real (P, n^2) rk folds the weights, the -1/(4pi) and the doubled
    diagonal of :func:`gradient_entries` and K^-1 into the forms scattered
    back to the coordinates, transposed; and the pairs of X_h are d'
    ``skew`` for the pairs d' of D, with skew a matrix of 0, +-1 and 2 (the
    diagonal).  Each entry of the forms and of the scattered forms is one
    exact product, so the folds do not depend on the order of any sum.
    ``skew_forms`` (skew times forms, of the shape of forms) maps the pairs
    of D of one stage to the log arguments of the next."""

    def __init__(self, circ: Circulations):
        sys = reduced_system(circ)
        n = circ.n
        size = 2 * n * n
        # flatten as a (2n^2, n^2) matrix of 0 and +-1 on the (re, im) pairs
        pick = flatten_stack(np.eye(size).view(complex).reshape(size, n, n))
        self.forms = sys._gather(pick)
        # row t is the form c_t times -w_t / 4pi: every entry is one product
        r = sys._scatter(np.diag(-sys.weights / FOUR_PI))
        r[:, :n] *= 2.0
        kinv = build_coupling_matrix(circ).k_inv
        # term t of (dh/dmu) K^-1, i G_t times 1/s_t: its real parts are 0,
        # and row t of rk is G_t^T
        ig = unflatten_stack(r, n) @ kinv
        self.rk = np.ascontiguousarray(ig.imag.swapaxes(-1, -2).reshape(len(r), n * n))
        # entry e = (i, j) of i (D + D^H) is (im d_t - im d_e) + i (re d_e +
        # re d_t) with t = (j, i)
        e = np.arange(n * n)
        t = e.reshape(n, n).T.ravel()
        skew = np.zeros((n * n, 2, n * n, 2))
        skew[t, 1, e, 0] += 1.0
        skew[e, 1, e, 0] -= 1.0
        skew[e, 0, e, 1] += 1.0
        skew[t, 0, e, 1] += 1.0
        self.skew = skew.reshape(size, size)
        self.skew_forms = self.skew @ self.forms
        self.n = n
        for a in (self.forms, self.rk, self.skew, self.skew_forms):
            a.setflags(write=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The pairs of X_h at the (contiguous) pairs x, one vector or a stack."""
        s = x.dot(self.forms)
        _check_log_arguments(s.reshape(-1, s.shape[-1]))
        d = np.empty(x.shape)
        self.stages(((x, s),), (d,), (1.0,))[0]()
        return d.dot(self.skew)

    def stages(
        self,
        inputs: Sequence[tuple[np.ndarray, np.ndarray]],
        outputs: Sequence[np.ndarray],
        scales: Sequence[float],
    ) -> list[Callable[[], None]]:
        """Cores from the pairs of mu with their log arguments s to the pairs
        of c D = ((c/s) rk) mu: c/s, then c G^T = (c/s) rk as one real
        product, then c G^T times the (n, 2n) pairs of mu as one real
        product (a 2-D ``dot``, or a matmul of a stack).  The buffers of c/s
        and of c G^T are shared by the cores."""
        n, rk = self.n, self.rk
        lead = inputs[0][0].shape[:-1]
        inverse = np.empty(inputs[0][1].shape)
        g = np.empty(lead + (n, n))
        stages = []
        for (y, s), out, c in zip(inputs, outputs, scales):

            def stage(
                divide=np.divide, c=np.array(c), s=s, inverse=inverse, scale=inverse.dot, rk=rk,
                g=g.reshape(lead + (n * n,)), product=g.dot if not lead else partial(np.matmul, g),
                m=y.reshape(lead + (n, 2 * n)), d=out.reshape(lead + (n, 2 * n)),
            ):
                divide(c, s, inverse)
                scale(rk, out=g)
                product(m, out=d)

            stages.append(stage)
        return stages

    def run(self, samples: np.ndarray, dt: float):
        """RK4 steps of dt from samples[0], the next state written into each
        next row of samples; None, or the index of the first row not written
        and the DomainError of its step.  The gather is folded into the
        products: [y_{k+1} | s_{k+1}] is [d_k | 1] times [(dt/2) skew, (dt/2)
        skew forms ; x, s_1], of the shape of [skew | forms], and a step
        starts with s_1 = x forms.  A step copies its four rows of s into its
        row of a block buffer; the block is checked once (see
        :class:`_Field`)."""
        forms, skew = self.forms, self.skew
        size, width = skew.shape[0], skew.shape[0] + forms.shape[1]
        # (dt/2) [skew, skew forms] and the row [x | s1] over the rows
        # [y_k | s_k] of the stage inputs
        rows = np.empty((size + 4, width))
        np.multiply(skew, dt / 2.0, out=rows[:size, :size])
        np.multiply(self.skew_forms, dt / 2.0, out=rows[:size, size:])
        matrix, inputs = rows[: size + 1], rows[size:]
        head, y2, y3, y4 = inputs
        x, s1 = head[:size], head[size:]
        stage_logs = inputs[:, size:]
        scaled = np.empty((4, size + 1))
        scaled[:, size] = 1.0
        core1, core2, core3, core4 = self.stages(
            list(zip(inputs[:, :size], stage_logs)), scaled[:, :size], _CORE_SCALES
        )
        into2, into3, into4 = scaled[0].dot, scaled[1].dot, scaled[2].dot
        gather = x.dot
        count = len(samples)
        per_block = min(count - 1, _BLOCK_STEPS)
        logs = np.empty((per_block,) + stage_logs.shape)
        # the block's stage rows of s, checked whole: past a short last block
        # they hold the rows of the block before, which passed
        check = partial(_check_log_arguments, logs.reshape(4 * per_block, -1))
        # the end's weights of a1, a2, a3 = 2 f3 and a4
        combine = np.array([dt / 6.0, dt / 3.0, dt / 6.0, dt / 6.0]).dot
        total, increment, add = np.empty(size + 1), np.empty(size), np.add
        scatter = total[:size].dot
        x[:] = samples[0]
        for start in range(1, count, per_block):
            stop = min(start + per_block, count)
            for s in range(start, stop):
                gather(forms, out=s1)
                core1()
                into2(matrix, out=y2)
                core2()
                into3(matrix, out=y3)
                core3()
                into4(matrix, out=y4)
                core4()
                logs[s - start] = stage_logs
                combine(scaled, out=total)
                scatter(skew, out=increment)
                add(increment, x, out=x)
                samples[s] = x
            try:
                check()
            except DomainError as exc:
                return start + exc.sample // 4, exc
        return None


@lru_cache(maxsize=2 * CIRCULATION_CACHE_SIZE)
def _right_hand_side(circ: Circulations, which: Which) -> _FullField | _ReducedField:
    """The RK4 right-hand side of one system on raw state arrays, built once
    per circulation set; the memo keeps both systems of the last few sets."""
    return _FullField(circ) if which is Which.FULL else _ReducedField(circ)


def full_vector_field(cfg: VortexConfiguration) -> np.ndarray:
    """Right-hand side of the point-vortex ODE, dq_i/dt."""
    return _right_hand_side(cfg.circ, Which.FULL)(cfg.as_array().view(float)).view(complex)


def lie_poisson_vector_field(mu: MuMatrix, circ: Circulations) -> MuMatrix:
    """X_h(mu) = -mu (dh/dmu) K^-1 + K^-1 (dh/dmu) mu, skew-Hermitian to the
    last bit, so not checked again.  It is computed as i (D + D^H) with D =
    G^T mu (see :class:`_ReducedField`), which is that field for an exactly
    skew-Hermitian mu; for a mu that is skew only to rounding, as
    :func:`moment_map` gives, the two differ by rounding."""
    if mu.n != circ.n:
        raise DimensionMismatch(f"mu is {mu.n}x{mu.n}, circulations give n={circ.n}")
    m = mu.entries
    x = m.view(float).reshape(m.shape[:-2] + (2 * mu.n * mu.n,))
    field = _right_hand_side(circ, Which.REDUCED)(x).view(complex).reshape(m.shape)
    return MuMatrix._skew_by_construction(field)


@dataclass
class Trajectory:
    """Fixed-step trajectory samples with per-sample invariant records."""

    which: Which
    times: np.ndarray
    states: np.ndarray              # (samples, dim); real coords or complex positions
    hamiltonian: np.ndarray
    casimirs: np.ndarray            # (samples, n)
    residual_max: np.ndarray        # sup-norm of the rank-one constraint residuals
    n: int
    aborted: bool = False
    abort_reason: str = ""

    def __len__(self) -> int:
        return len(self.times)


def _shapes_and_energy(samples: np.ndarray, circ: Circulations, which: Which):
    """The stack of shape matrices mu, their flattened coordinates and the
    Hamiltonian of a stack of states (entries of mu, or positions): a sample
    that collides or leaves the reduced Hamiltonian's domain raises.  The
    reduced samples are skew-Hermitian to the last bit (a step's end sums
    the same terms for entries (i, j) and (j, i), negated for the real
    parts), so they are not checked again; mu of the positions is, through
    :func:`moment_map`."""
    if which is Which.REDUCED:
        mu = MuMatrix._skew_by_construction(samples)
        coords = flatten(mu)
        return mu, coords, reduced_system(circ).value(coords)
    cfg = VortexConfiguration(samples, circ)
    mu = moment_map(relative_coordinates(cfg))
    return mu, flatten(mu), full_hamiltonian(cfg)


def integrate(
    initial: np.ndarray | VortexConfiguration,
    circ: Circulations,
    t_end: float,
    dt: float,
    which: Which = Which.REDUCED,
) -> Trajectory:
    """Classical RK4, with the invariants evaluated once over all samples.

    ``initial`` is a flattened shape vector for the reduced system or a
    :class:`VortexConfiguration` (or complex position array) for the full one;
    a configuration may seed either system.  Both systems are stepped on real
    vectors: the (re, im) pairs of the entries of mu (the initial vector is
    unflattened once), which stay skew-Hermitian to the last bit, or of the
    positions.  With the field f(y) = core(y L) K of the memoised operator,
    a step computes

        y1 = x,  y2 = x + (dt/2) f1 K,  y3 = x + (dt/2) f2 K,  y4 = x + dt f3 K,
        x' = x + ((dt/6) f1 + (dt/3) f2 + (dt/3) f3 + (dt/6) f4) K,

    with f_k = core(y_k L): four cores, each stage input one product of the
    previous core's output and x with (dt/2) K, and at the end one weighted
    sum of the cores' outputs, scattered with K and added to x (``run`` of
    the operator, see :class:`_Field`).  The stage inputs, the core outputs,
    the matrices and every array a core writes are allocated once per run,
    and each core and product is bound to its arrays there: a step looks up
    no method, allocates no array, and two threads may integrate one
    circulation set at once.  The stage inputs are checked once per block
    of steps: after a block, the collision or log-argument test runs over
    the rows of all its stage inputs in order and finds the first that
    fails, with the error a stage-by-stage check would raise.  The cores
    and products that read a failed stage's output, and the steps after it
    in its block, run with numpy's floating-point warnings off, and their
    samples are not kept.  The loop only steps, storing each state.
    Afterwards the reduced samples are flattened once, so ``states`` holds
    flattened coordinates, and the full ones are viewed as complex
    positions.  The Hamiltonian, the
    Casimirs C_1..C_n and the sup-norm of the rank-one residual are
    evaluated over the whole stack of samples, with the checks each sample
    needs: collision, the reduced Hamiltonian's log-argument floor, and a
    skew-Hermitian mu of the positions (the reduced samples are
    skew-Hermitian to the last bit).  A
    collision or domain error in a step, or in the check of a sample,
    truncates the trajectory before the first sample that fails and sets the
    abort flag; ``abort_reason`` names the error with its step and time.
    The run takes round(t_end / dt) steps, so the last sample is at
    round(t_end / dt) * dt: t_end = 1.0, dt = 0.3 ends at t = 3 dt = 0.9.
    An initial state that fails its check raises, and so do
    (InvalidArgument) a ``which`` that is not a :class:`Which` member, a
    t_end or dt that is not positive and finite, a t_end under half a step
    (no step to take), and a step count t_end / dt whose samples cannot be
    allocated.
    """
    if not isinstance(which, Which):
        raise InvalidArgument(f"which must be Which.REDUCED or Which.FULL, got {which!r}")
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise InvalidArgument(f"t_end and dt must be positive and finite, got {t_end}, {dt}")
    n = circ.n
    if isinstance(initial, VortexConfiguration):
        if initial.circ.N != circ.N:
            raise DimensionMismatch(
                f"configuration has {initial.circ.N} vortices, circulations give {circ.N}"
            )
        if which is Which.REDUCED:
            initial = flatten(moment_map(relative_coordinates(initial)))
        else:
            initial = initial.as_array()
    if which is Which.REDUCED:
        state, shape = np.array(initial, dtype=float), (n * n,)
    else:
        state, shape = np.array(initial, dtype=complex), (circ.N,)
    if state.shape != shape:
        raise DimensionMismatch(f"{which.value} state has shape {state.shape}, expected {shape}")
    if which is Which.REDUCED:
        state = unflatten(state, n).entries

    ratio = t_end / dt
    if ratio == np.inf:
        raise InvalidArgument(f"t_end / dt is {ratio} steps, beyond the float range")
    steps = int(round(ratio))
    if steps == 0:
        raise InvalidArgument(f"t_end = {t_end} is under half a step of dt = {dt}: 0 steps")
    try:
        samples = np.empty((steps + 1, 2 * state.size))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limits
        raise InvalidArgument(f"{steps} steps of dt = {dt} do not fit in memory ({exc})") from exc
    samples[0] = state.view(float).ravel()
    # a block of steps is checked after its last step: cores and products
    # that read a failed stage's output run silently until that check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        failure = _right_hand_side(circ, which).run(samples, dt)
    if failure is not None:  # (index of the first sample not kept, exception)
        samples = samples[: failure[0]]
    samples = samples.view(complex).reshape((len(samples),) + state.shape)

    # a check raises for the first sample of the stack that fails it; the
    # trajectory ends before that sample and the samples kept are checked
    # again, so the earliest failure of any check decides
    while True:
        try:
            mu, coords, ham = _shapes_and_energy(samples, circ, which)
            break
        except (Collision, DomainError) as exc:
            if exc.sample == 0:
                raise
            failure = (exc.sample, exc)
            samples = samples[: exc.sample]
    residuals = constraint_system(n).values(coords)
    reason = ""
    if failure is not None:
        step, exc = failure
        reason = f"{type(exc).__name__} at step {step} (t = {step * dt:.6g}): {exc}"
    return Trajectory(
        which=which,
        times=np.arange(len(samples)) * dt,
        states=coords if which is Which.REDUCED else samples,
        hamiltonian=ham,
        casimirs=casimir_values(mu, build_coupling_matrix(circ), range(1, n + 1)),
        residual_max=np.abs(residuals).max(axis=-1, initial=0.0),
        n=n,
        aborted=failure is not None,
        abort_reason=reason,
    )


@dataclass(frozen=True)
class DriftReport:
    """Max and final deviations of each monitored invariant from its start."""

    casimir_max: np.ndarray
    casimir_final: np.ndarray
    hamiltonian_max: float
    hamiltonian_final: float
    residual_max: float
    residual_final: float


def invariant_drift_report(traj: Trajectory) -> DriftReport:
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    cdrift = np.abs(traj.casimirs - traj.casimirs[0])
    hdrift = np.abs(traj.hamiltonian - traj.hamiltonian[0])
    return DriftReport(
        casimir_max=cdrift.max(axis=0),
        casimir_final=cdrift[-1],
        hamiltonian_max=float(hdrift.max()),
        hamiltonian_final=float(hdrift[-1]),
        residual_max=float(traj.residual_max.max()),
        residual_final=float(traj.residual_max[-1]),
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a reduced trajectory as CSV with round-trip decimal formatting.

    ``path`` may be a filesystem path or an open text stream.
    """
    if traj.which is not Which.REDUCED:
        raise ValueError("CSV export is defined for reduced trajectories")
    n = traj.n
    header = (
        ["t"]
        + [f"coord_{i}" for i in range(n * n)]
        + ["H"]
        + [f"C{j}" for j in range(1, n + 1)]
        + ["Rmax"]
    )

    def write(fh):
        fh.write(",".join(header) + "\n")
        for i in range(len(traj)):
            row = (
                [traj.times[i]]
                + list(traj.states[i])
                + [traj.hamiltonian[i]]
                + list(traj.casimirs[i])
                + [traj.residual_max[i]]
            )
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    if hasattr(path, "write"):
        write(path)
    else:
        with open(path, "w") as fh:
            write(fh)
