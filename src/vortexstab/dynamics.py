"""Vortex dynamics: full ODE, relative coordinates, moment map, RK4 integration.

The right-hand sides of the reduced and the full system are built once per
circulation set (:func:`_right_hand_side`, one ``lru_cache`` entry per set
and system, on the last few sets), with the circulation-only constants
folded into constant matrices.  Both act on real state vectors: the
(re, im) pairs of the entries of mu, or of the positions, so a stage makes
no coordinate gathers.  The memoised operators hold only those constants,
read-only; ``stages(inputs, outputs)`` allocates the buffers of one run (the
products, the reciprocals, the complex views of the stage inputs) and binds
one stage to each input, which writes each numpy call of the formula into
those buffers with ``out=`` (see :class:`_Field`).  The domain test
(collision, or the reduced Hamiltonian's log-argument floor) keeps one row
per stage input and runs once, in the last input's stage, over every row in
input order and before that stage's reciprocal.  The reduced stage takes
(1/s) Rk as one real product.  An RK4 step keeps its state and its four
stages as the rows of one buffer, and writes each stage input and the next
state as one product of a constant weight row with those rows.  The public
:func:`lie_poisson_vector_field` and :func:`full_vector_field` run the same
stage as a one-input run, with buffers of their own.
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


class _Field:
    """A memoised right-hand side: constant folds only.  ``stages(inputs,
    outputs)`` allocates the buffers of one run and returns one stage per
    input: called without arguments, stage k writes the field at inputs[k]
    (pairs, all of one shape) into outputs[k].  A stage's arrays and
    callables are its default arguments, bound when the run starts, and it
    does not branch; the last input's stage gathers through ``checked``,
    which tests the rows of all inputs in order, raising for the first that
    fails, before that stage's reciprocal.  So an RK4 step checks once, and
    a call (one state, as a one-input run) checks before it divides."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The field at the (contiguous) pairs x, one vector or a stack."""
        out = np.empty(x.shape)
        self.stages((x,), (out,))[0]()
        return out


class _FullField(_Field):
    """dq_i/dt = (i/2pi) sum_j G_j / conj(q_i - q_j) for one circulation set,
    as a sum over the pairs i < j, on x, the (re, im) pairs of the positions:
    the pairs of conj(d), d = q_i - q_j, are x times a constant (2N, 2 pairs)
    incidence matrix, and the circulations are folded into a constant
    (2 pairs, 2N) matrix on the pairs of 1/conj(d), so that pair (i, j) adds
    (i/2pi) G_j / conj(d) to vortex i and -(i/2pi) G_i / conj(d) to vortex j."""

    def __init__(self, circ: Circulations):
        g = circ.as_array() / (2.0 * np.pi)
        i, j, _ = _distance_pairs(circ.N)
        pairs = np.arange(len(i))
        incidence = np.zeros((circ.N, 2, len(pairs), 2))
        incidence[i, 0, pairs, 0], incidence[j, 0, pairs, 0] = 1.0, -1.0
        incidence[i, 1, pairs, 1], incidence[j, 1, pairs, 1] = -1.0, 1.0
        self._incidence = incidence.reshape(2 * circ.N, 2 * len(pairs))
        # i c (re + i im) = -c im + i c re
        coupling = np.zeros((len(pairs), 2, circ.N, 2))
        for vortex, c in ((i, g[j]), (j, -g[i])):
            coupling[pairs, 1, vortex, 0], coupling[pairs, 0, vortex, 1] = -c, c
        self._coupling = coupling.reshape(2 * len(pairs), 2 * circ.N)
        for a in (self._incidence, self._coupling):
            a.setflags(write=False)

    def stages(
        self, inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
    ) -> list[Callable[[], None]]:
        """Stages of the velocities at the positions.  The pairs of conj(d)
        keep one row per input; ``checked`` takes |d| of every row and
        raises Collision for the first row with two vortices within
        COLLISION_TOL (read at that call).  The rows of conj(d) and of |d|,
        and 1/conj(d), are buffers of this run."""
        incidence, coupling = self._incidence, self._coupling
        conj_pairs = np.empty((len(inputs),) + inputs[0].shape[:-1] + (incidence.shape[1],))
        conj_d = conj_pairs.view(complex)
        size = np.empty(conj_d.shape)
        inverse_pairs = np.empty(conj_pairs.shape[1:])
        inverse = inverse_pairs.view(complex)
        last = len(inputs) - 1
        dot = inputs[last].dot

        def checked(matrix, out):
            """The last input's gather, then the collision test of every row."""
            dot(matrix, out=out)
            np.abs(conj_d, out=size)
            # min(), without its Python wrapper; a NaN row is not a collision
            if not size.item(size.argmin()) > COLLISION_TOL:
                for row in size:
                    nearest = row.item(row.argmin())
                    if nearest <= COLLISION_TOL:
                        raise Collision(f"minimum vortex separation {nearest:.3e}")

        stages = []
        for k in range(len(inputs)):
            def stage(
                gather=inputs[k].dot if k < last else checked, pairs=conj_pairs[k],
                d=conj_d[k], out=outputs[k], incidence=incidence, coupling=coupling,
                reciprocal=np.reciprocal, inverse=inverse, scatter=inverse_pairs.dot,
            ):
                gather(incidence, out=pairs)
                reciprocal(d, out=inverse)
                scatter(coupling, out=out)

            stages.append(stage)
        return stages


class _ReducedField(_Field):
    """X_h of one circulation set on x, the (re, im) pairs of the entries of
    mu in row-major order (2n^2 values, one vector or a stack of them),
    through three constant matrices: the log arguments are s = x Fm, with
    Fm the linear forms F of :func:`reduced_system` gathered at the pairs;
    (dh/dmu) K^-1 = (1/s) Rk, where Rk folds the weights, the -1/(4pi) and
    the doubled diagonal of :func:`gradient_entries` and K^-1 into the forms
    scattered back to the coordinates; and the pairs of A^H - A are a' S for
    the pairs a' of A, with S a matrix of 0 and +-1.  Each entry of Fm and of
    the scattered forms is one exact product, so the folds do not depend on
    the order of any sum."""

    def __init__(self, circ: Circulations):
        sys = reduced_system(circ)
        n = circ.n
        size = 2 * n * n
        # flatten as a (2n^2, n^2) matrix of 0 and +-1 on the (re, im) pairs
        pick = flatten_stack(np.eye(size).view(complex).reshape(size, n, n))
        self._fm = sys._gather(pick)
        # row t is the form c_t times -w_t / 4pi: every entry is one product
        r = sys._scatter(np.diag(-sys.weights / FOUR_PI))
        r[:, :n] *= 2.0
        kinv = build_coupling_matrix(circ).k_inv
        self._rk = (unflatten_stack(r, n) @ kinv).reshape(len(r), n * n)
        # entry e = (i, j) of A^H - A is conj(a_t) - a_e with t = (j, i)
        e = np.arange(n * n)
        t = e.reshape(n, n).T.ravel()
        skew = np.zeros((n * n, 2, n * n, 2))
        skew[t, 0, e, 0] += 1.0
        skew[e, 0, e, 0] -= 1.0
        skew[t, 1, e, 1] -= 1.0
        skew[e, 1, e, 1] -= 1.0
        self._skew = skew.reshape(size, size)
        self._n = n
        for a in (self._fm, self._rk, self._skew):
            a.setflags(write=False)

    def stages(
        self, inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
    ) -> list[Callable[[], None]]:
        """Stages of the pairs of X_h = A^H - A, A = mu (dh/dmu) K^-1.  s
        keeps one row per input; ``checked`` raises DomainError for the
        first row with a log argument at or below LOG_FLOOR (read at that
        call).  (1/s) Rk is one real product with the (re, im) pairs of Rk.
        X_h is skew-Hermitian to the last bit: each of its pairs is a sum of
        two terms, or twice one.  The rows of s, 1/s, G = (1/s) Rk with its
        pairs and (n, n) view, A with its pairs, and the complex (n, n) view
        of each input are buffers of this run."""
        fm, rk, skew, n = self._fm, self._rk.view(float), self._skew, self._n
        lead = inputs[0].shape[:-1]
        s = np.empty((len(inputs),) + lead + fm.shape[1:])
        inverse = np.empty(s.shape[1:])
        g = np.empty(lead + (n * n,), dtype=complex)
        g_pairs, g_matrices = g.view(float), g.reshape(lead + (n, n))
        a = np.empty(lead + (n, n), dtype=complex)
        a_pairs = a.view(float).reshape(inputs[0].shape)
        last = len(inputs) - 1
        dot = inputs[last].dot

        def checked(matrix, out):
            """The last input's gather, then the log-argument test of every row."""
            dot(matrix, out=out)
            # min(), without its Python wrapper; a NaN row is not checked
            if not s.item(s.argmin()) > LOG_FLOOR:
                for row in s:
                    if row.item(row.argmin()) <= LOG_FLOOR:
                        check_arguments(row)

        stages = []
        for k in range(len(inputs)):
            # mu G as the 2-D dot of the input's (n, n) view, or a matmul of a stack
            m = inputs[k].view(complex).reshape(lead + (n, n))

            def stage(
                gather=inputs[k].dot if k < last else checked, row=s[k], out=outputs[k],
                product=m.dot if not lead else partial(np.matmul, m), fm=fm, rk=rk, skew=skew,
                reciprocal=np.reciprocal, inverse=inverse, scale=inverse.dot, g_pairs=g_pairs,
                g_matrices=g_matrices, a=a, mirror=a_pairs.dot,
            ):
                gather(fm, out=row)
                reciprocal(row, out=inverse)
                scale(rk, out=g_pairs)
                product(g_matrices, out=a)
                mirror(skew, out=out)

            stages.append(stage)
        return stages


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
    last bit, so not checked again."""
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
    reduced samples are skew-Hermitian to the last bit (RK4 adds skew rows
    with real weights), so they are not checked again; mu of the positions
    is, through :func:`moment_map`."""
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
    positions.  A step keeps its stages k1..k4 and the state x as the rows
    of one (5, D) buffer; each stage input, and the next state, is one
    product of a constant weight row with rows of this step, written into a
    buffer:

        (dt/2) k1 + x,   (dt/2) k2 + x,   dt k3 + x,
        (dt/6) k1 + (dt/3) k2 + (dt/3) k3 + (dt/6) k4 + x.

    The stage inputs and every array a stage writes are allocated once per
    run, and each stage is bound to its input and output there (``stages``
    of the memoised operator, which holds only constants), as the weight
    rows are to their ``dot``: a step looks up no method, allocates nothing,
    and two threads may integrate one circulation set at once.  A step is
    checked once, in its fourth stage, before that stage's reciprocal: the
    collision or log-argument test runs over the rows of all four stage
    inputs in order and raises for the first that fails, with the error a
    stage-by-stage check would raise; the stages that read a failed stage's
    output run with numpy's floating-point warnings off.  The loop only
    steps, storing each state.  Afterwards the reduced samples are flattened
    once, so ``states`` holds flattened coordinates, and the full ones are
    viewed as complex positions.  The Hamiltonian, the Casimirs C_1..C_n and
    the sup-norm of the rank-one residual are evaluated over the whole stack
    of samples, with the checks each sample needs: collision, the reduced
    Hamiltonian's log-argument floor, and a skew-Hermitian mu of the
    positions (the reduced samples are skew-Hermitian to the last bit).  A
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
    # rows 0..3 the stages of this step, row 4 the state: BLAS adds the rows
    # in order, so the increment is summed at its own scale and rounded once
    # at the state's, as in the classical combination.  The rows each product
    # reads are views taken once (numpy copies a strided pair before its
    # gemv, the one array a stage input makes); the stage inputs y2..y4 and
    # the stages' buffers are allocated once per run
    rows = np.empty((5, samples.shape[1]))
    k1, k2, k3, k4, x = rows
    x[:] = samples[0]
    y2, y3, y4 = np.empty((3, samples.shape[1]))
    s1, s2, s3, s4 = _right_hand_side(circ, which).stages((x, y2, y3, y4), (k1, k2, k3, k4))
    first, second, third = rows[0::4], rows[1::3], rows[2::2]
    to_half = np.array([dt / 2.0, 1.0]).dot
    to_whole = np.array([dt, 1.0]).dot
    combine = np.array([dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0, 1.0]).dot
    failure = None  # (index of the first sample not kept, exception)
    # the step is checked in its last stage: stages that read a failed
    # stage's output run silently until that check raises
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(steps):
            try:
                s1()
                to_half(first, out=y2)
                s2()
                to_half(second, out=y3)
                s3()
                to_whole(third, out=y4)
                s4()
            except (Collision, DomainError) as exc:
                failure = (s + 1, exc)
                samples = samples[: s + 1]
                break
            x[...] = combine(rows, out=samples[s + 1])
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
