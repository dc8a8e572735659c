"""The benchmark's three workloads: inputs, operations, warm-up and checks.

Each workload builds its inputs from the seed, runs whole rounds of the same
operations, and checks the outputs afterwards against the oracles in
``oracles.py`` and against properties that any correct version of the method
has.  Operations call ``vortexstab`` only through module attributes
(``report.analyze``, ``dynamics.integrate``, ...) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracles
from vortexstab import algebra, dynamics, hamiltonian, report, scenarios

CERTIFIED = "certified-stable"
UNSTABLE = "linearly-unstable"
INCONCLUSIVE = "inconclusive"
VERDICTS = (CERTIFIED, UNSTABLE, INCONCLUSIVE)


@dataclass
class Op:
    key: str
    kind: str
    args: tuple


@dataclass
class CheckResult:
    """Outcome of checking one round's outputs.

    ``failed`` holds the keys of operations that hit the fault a workload
    counts; ``problems`` lists every other violation, and any entry makes
    the run incorrect.
    """

    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)


class Workload:
    name = ""
    calibration = "interpreted"  # the kind of calibration kernel in run.py

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []

    def round_order(self) -> list[Op]:
        """The round's operations in a seeded order; every round runs each once."""
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError

    def coverage_ops(self) -> list[Op]:
        """Operations a traced run of another workload runs for this one's layers."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def signature(self, out):
        """What must repeat exactly when the same operation runs again."""
        raise NotImplementedError

    def check_first(self, op: Op, out, result: CheckResult) -> None:
        raise NotImplementedError

    def check(self, first: list[tuple[Op, object]], repeats: list[tuple[Op, object]]) -> CheckResult:
        """Full checks on each operation's first output; later runs of the same
        operation must repeat its signature exactly."""
        result = CheckResult()
        signatures = {}
        for op, out in first:
            signatures[op.key] = self.signature(out)
            self.check_first(op, out, result)
        for op, sig in repeats:
            if sig != signatures[op.key]:
                result.problems.append(f"{op.key}: output changed between rounds")
        self.check_round(first, result)
        return result

    def check_round(self, first, result: CheckResult) -> None:
        """Checks across the operations of a round; none by default."""


# --------------------------------------------------------------------------
# sweep-paper


SWEEP_STEP = 0.02
# (kind, lo, hi, stride): operation r of a family sweeps lo + (r + j*stride)*step,
# so every operation samples the whole range and all operations cost alike.
SWEEP_FAMILIES = (
    ("triangle-with-center", -5.0, 2.0, 27),
    ("square-with-center", -1.5, 3.0, 17),
)
# Proven verdict intervals of the paper's two families, and their boundaries.
PROVEN = {
    "triangle-with-center": {
        "boundaries": (-3.0, 0.0, 1.0),
        "certified": lambda g: g < -3.0 or 0.0 < g < 1.0,
        "unstable": lambda g: g > 1.0,
    },
    "square-with-center": {
        "boundaries": (-0.5, 0.0, 2.25),
        "certified": lambda g: 0.0 < g < 2.25,
        "unstable": lambda g: g < -0.5 or g > 2.25,
    },
}
BOUNDARY_MARGIN = 0.1


def sweep_grid(lo: float, hi: float, step: float = SWEEP_STEP) -> list[float]:
    count = int(round((hi - lo) / step)) + 1
    return [round(lo + k * step, 12) for k in range(count)]


class SweepPaper(Workload):
    name = "sweep-paper"

    def __init__(self, seed: int):
        super().__init__(seed)
        for kind, lo, hi, stride in SWEEP_FAMILIES:
            grid = sweep_grid(lo, hi)
            for r in range(stride):
                points = grid[r::stride]
                self.ops.append(
                    Op(
                        key=f"{kind}[{r}::{stride}]",
                        kind=kind,
                        args=(points[0], points[-1], round(stride * SWEEP_STEP, 12), tuple(points)),
                    )
                )

    def warm_up_ops(self):
        return [next(op for op in self.ops if op.kind == kind) for kind, *_ in SWEEP_FAMILIES]

    def coverage_ops(self):
        return list(self.ops)

    def run(self, op):
        lo, hi, step, _ = op.args
        return report.gamma_sweep(op.kind, lo, hi, step)

    def signature(self, table):
        return tuple((r.gamma, r.verdict, r.max_real_part, r.minors and tuple(r.minors))
                     for r in table.rows)

    def check_first(self, op, table, result):
        points = op.args[3]
        got = [r.gamma for r in table.rows]
        skipped = [s["gamma"] for s in table.skipped]
        if got != [g for g in points if g != 0.0] or skipped != [g for g in points if g == 0.0]:
            result.problems.append(f"{op.key}: grid {got} skipped {skipped}")
            return
        proven = PROVEN[op.kind]
        for row in table.rows:
            where = f"{op.kind} gamma={row.gamma}"
            if row.verdict not in VERDICTS:
                result.problems.append(f"{where}: {row.verdict} {row.note}")
                continue
            if all(abs(row.gamma - b) > BOUNDARY_MARGIN for b in proven["boundaries"]):
                if proven["certified"](row.gamma) and row.verdict != CERTIFIED:
                    result.problems.append(f"{where}: {row.verdict}, proven stable")
                if proven["unstable"](row.gamma) and row.verdict != UNSTABLE:
                    result.problems.append(f"{where}: {row.verdict}, proven unstable")
            scen = scenarios.build_scenario(op.kind, gamma=row.gamma)
            if spectrum_disagrees(scen, row.verdict, row.max_real_part, where, result):
                result.failed.add(op.key)
            if row.verdict == CERTIFIED:
                rep = report.analyze(scen)
                if rep.minors != row.minors:
                    result.problems.append(f"{where}: sweep minors differ from analyze")
                if not oracles.minors_agree(rep.minors, rep.restricted_hessian):
                    result.problems.append(f"{where}: minors differ from Cholesky pivots")


def spectrum_disagrees(scen, verdict, max_real_part, where, result) -> bool:
    """Oracle (a) against one verdict and its reported max Re lambda.

    Returns True for the counted fault: a ``linearly-unstable`` verdict whose
    instability the full-space spectrum does not resolve above round-off.
    Every other disagreement is recorded as a problem.
    """
    q = np.asarray(scen.positions, dtype=complex)
    max_re, scale = oracles.full_space_max_real_part(q, scen.circ.as_array())
    if abs(max_re - max_real_part) > oracles.UNSTABLE_SHARE * scale:
        result.problems.append(
            f"{where}: max Re {max_real_part:.3e} against full-space {max_re:.3e}"
        )
    oracle_unstable = oracles.unstable(max_re, scale)
    if verdict != UNSTABLE and oracle_unstable:
        result.problems.append(f"{where}: {verdict} but full-space max Re {max_re:.3e}")
    return verdict == UNSTABLE and not oracle_unstable


# --------------------------------------------------------------------------
# certify-large


CERTIFY_M = 20
CERTIFY_GAMMAS = (20.0, 25.0, 30.0, 35.0)
# Each copy must get the unscaled verdict: scaling positions by s and
# circulations by c only changes the units of length and time.
CERTIFY_COPIES = (("x1", 1.0, 1.0), ("pos*10", 10.0, 1.0), ("pos*10,circ*1e-2", 10.0, 1e-2))


class CertifyLarge(Workload):
    name = "certify-large"
    calibration = "dense"

    def __init__(self, seed: int):
        super().__init__(seed)
        for gamma in CERTIFY_GAMMAS:
            base = scenarios.build_scenario("polygon-with-center", gamma=gamma, m=CERTIFY_M)
            for label, pos_scale, circ_scale in CERTIFY_COPIES:
                if label == "x1":
                    scen = base
                else:
                    scen = scenarios.build_scenario(
                        "custom",
                        positions=tuple(pos_scale * p for p in base.positions),
                        circulations=tuple(circ_scale * g for g in base.circ.gammas),
                    )
                self.ops.append(Op(key=f"gamma={gamma:g} {label}", kind=label, args=(gamma, scen)))

    def warm_up_ops(self):
        return self.ops[:1]

    def coverage_ops(self):
        return self.ops[:1]

    def run(self, op):
        return report.analyze(op.args[1])

    def signature(self, rep):
        return (rep.verdict, rep.minors and tuple(rep.minors), max(re for re, _ in rep.spectrum))

    def check_first(self, op, rep, result):
        gamma, scen = op.args
        where = f"certify-large {op.key}"
        if op.kind == "x1" and rep.verdict != CERTIFIED:
            # expected value: regenerate with the README's analyze command
            result.problems.append(f"{where}: {rep.verdict}, expected {CERTIFIED}")
        max_re = max(re for re, _ in rep.spectrum)
        spectrum_disagrees(scen, rep.verdict, max_re, where, result)
        if rep.verdict == CERTIFIED and not oracles.minors_agree(rep.minors, rep.restricted_hessian):
            result.problems.append(f"{where}: minors differ from Cholesky pivots")

    def check_round(self, first, result):
        unscaled = {op.args[0]: rep.verdict for op, rep in first if op.kind == "x1"}
        for op, rep in first:
            if op.kind != "x1" and rep.verdict != unscaled[op.args[0]]:
                result.failed.add(op.key)


# --------------------------------------------------------------------------
# integrate


INTEGRATE_SIZES = (3, 4, 5)
INTEGRATE_PER_SIZE = 3
INTEGRATE_T_END = 0.5
INTEGRATE_DT = 1e-3
# RK4 at dt = 1e-3 over t = 0.5 keeps every invariant to ~1e-13 of its scale.
DRIFT_BOUND = 1e-9
ORACLE_GAP_BOUND = 1e-9


def random_configuration(rng, n_vortices: int):
    """Positions in [-1.5, 1.5]^2 at least 0.7 apart; |Gamma_i| in [0.3, 1.5]
    with random signs and |total| >= 0.2, as in the acceptance suite."""
    while True:
        q = rng.uniform(-1.5, 1.5, n_vortices) + 1j * rng.uniform(-1.5, 1.5, n_vortices)
        gaps = np.abs(q[:, None] - q[None, :])[np.triu_indices(n_vortices, 1)]
        g = rng.uniform(0.3, 1.5, n_vortices) * rng.choice([-1.0, 1.0], n_vortices)
        if gaps.min() >= 0.7 and abs(g.sum()) >= 0.2:
            return hamiltonian.VortexConfiguration(tuple(q), algebra.Circulations(tuple(g)))


class Integrate(Workload):
    name = "integrate"

    def __init__(self, seed: int):
        super().__init__(seed)
        for n_vortices in INTEGRATE_SIZES:
            for i in range(INTEGRATE_PER_SIZE):
                cfg = random_configuration(self.rng, n_vortices)
                self.ops.append(Op(key=f"N={n_vortices}#{i}", kind=f"N={n_vortices}", args=(cfg,)))

    def warm_up_ops(self):
        return [self.ops[i * INTEGRATE_PER_SIZE] for i in range(len(INTEGRATE_SIZES))]

    def coverage_ops(self):
        return list(self.ops)

    def run(self, op):
        cfg = op.args[0]
        reduced = dynamics.integrate(
            cfg, cfg.circ, INTEGRATE_T_END, INTEGRATE_DT, which=dynamics.Which.REDUCED
        )
        full = dynamics.integrate(
            cfg, cfg.circ, INTEGRATE_T_END, INTEGRATE_DT, which=dynamics.Which.FULL
        )
        return reduced, full

    def signature(self, out):
        reduced, full = out
        return (reduced.states[-1].tobytes(), full.states[-1].tobytes(), len(reduced), len(full))

    def check_first(self, op, out, result):
        reduced, full = out
        where = f"integrate {op.key}"
        if reduced.aborted or full.aborted:
            result.problems.append(f"{where}: aborted ({reduced.abort_reason}{full.abort_reason})")
            return
        cfg = op.args[0]
        steps = int(round(INTEGRATE_T_END / INTEGRATE_DT))
        if len(reduced) != steps + 1 or len(full) != steps + 1:
            result.problems.append(f"{where}: {len(reduced)}/{len(full)} samples")
        scale = float(np.abs(reduced.states[0]).max())
        drift = dynamics.invariant_drift_report(reduced)
        bounds = {
            "hamiltonian": (drift.hamiltonian_max, max(1.0, abs(reduced.hamiltonian[0]))),
            "casimirs": (
                float((drift.casimir_max / np.maximum(1.0, np.abs(reduced.casimirs[0]))).max()),
                1.0,
            ),
            "rank-one residual": (drift.residual_max, scale**2),
        }
        for label, (value, unit) in bounds.items():
            if not value <= DRIFT_BOUND * unit:
                result.problems.append(f"{where}: {label} drift {value:.3e}")
        q0 = np.asarray(cfg.positions, dtype=complex)
        q_end = oracles.dop853_positions(q0, cfg.circ.as_array(), INTEGRATE_T_END)
        mu_gap = np.abs(oracles.shape_matrix_coordinates(q_end) - reduced.states[-1]).max()
        q_gap = np.abs(q_end - full.states[-1]).max()
        if not mu_gap <= ORACLE_GAP_BOUND * scale:
            result.problems.append(f"{where}: reduced end state {mu_gap:.3e} from DOP853")
        if not q_gap <= ORACLE_GAP_BOUND * max(1.0, float(np.abs(q0).max())):
            result.problems.append(f"{where}: full end state {q_gap:.3e} from DOP853")


WORKLOADS = {w.name: w for w in (SweepPaper, CertifyLarge, Integrate)}
