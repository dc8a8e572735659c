"""Analysis orchestration and serialized reports.

Reports hold only JSON-native values (lists, floats, strings) so that a
serialize/parse round trip reproduces an equal object bit for bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .algebra import flatten
from .dynamics import integrate, invariant_drift_report
from .errors import (
    ExcludedParameter,
    InvalidArgument,
    NotAFixedPoint,
    UnsupportedScenario,
    VortexStabError,
)
from .scenarios import WITHOUT_CENTER, Scenario, build_scenario, scenario_fixed_point
from .stability import CertificateResult, energy_casimir_certificate, stack_size


@dataclass
class AnalysisReport:
    scenario_name: str
    positions: list[list[float]]
    circulations: list[float]
    free_parameter: float | None
    regime: str
    fixed_point: list[float]
    fixed_point_residual: float
    spectrum: list[list[float]]
    verdict: str
    reason: str
    multipliers: dict | None
    minors: list[float] | None
    restricted_hessian: list[list[float]] | None
    drift: dict | None = None
    version: str = __version__


# the run of the report's invariant drift summary
DRIFT_T_END, DRIFT_DT = 5.0, 1e-3


def analyze(scenario: Scenario, with_drift: bool = False) -> AnalysisReport:
    """Fixed point, spectrum, and stability certificate for a scenario; with
    ``with_drift``, the invariant drift of a reduced run to DRIFT_T_END at
    step DRIFT_DT."""
    mu0 = scenario_fixed_point(scenario)
    circ = scenario.circ
    try:
        res = energy_casimir_certificate(mu0, circ)
    except NotAFixedPoint as exc:
        raise NotAFixedPoint(
            f"scenario {scenario.name} is not a relative equilibrium ({exc})"
        ) from exc
    mult = None
    if res.multipliers is not None:
        mult = {
            "a0": res.multipliers.a0,
            "a": list(res.multipliers.a),
            "b": list(res.multipliers.b),
            "c": list(res.multipliers.c),
            "d": list(res.multipliers.d),
            "residual": res.multipliers.residual,
            "solution_space_dim": res.multipliers.solution_space_dim,
        }
    drift = None
    if with_drift:
        traj = integrate(flatten(mu0), circ, t_end=DRIFT_T_END, dt=DRIFT_DT)
        rep = invariant_drift_report(traj)
        drift = {
            "hamiltonian_max": rep.hamiltonian_max,
            "casimir_max": rep.casimir_max.tolist(),
            "residual_max": rep.residual_max,
            "t_end": DRIFT_T_END,
            "dt": DRIFT_DT,
        }
    return AnalysisReport(
        scenario_name=scenario.name,
        positions=[[p.real, p.imag] for p in scenario.positions],
        circulations=list(circ.gammas),
        free_parameter=scenario.free_parameter,
        regime=circ.regime.name,
        fixed_point=flatten(mu0).tolist(),
        fixed_point_residual=res.residual,
        spectrum=np.stack([res.spectrum.real, res.spectrum.imag], axis=-1).tolist(),
        verdict=res.verdict.value,
        reason=res.reason,
        multipliers=mult,
        minors=None if res.minors is None else list(res.minors),
        restricted_hessian=(
            None if res.restricted_hessian is None else res.restricted_hessian.tolist()
        ),
        drift=drift,
    )


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(asdict(report), indent=2)


def report_from_json(text: str) -> AnalysisReport:
    """The report a :func:`report_to_json` text holds; raises InvalidArgument
    for a report whose fields are not this version's (a 0.1.0 report holds
    the Casimir indices it was made with)."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InvalidArgument(f"a report is a JSON object, got {type(data).__name__}")
    names = {f.name for f in fields(AnalysisReport)}
    required = {f.name for f in fields(AnalysisReport) if f.default is MISSING}
    unexpected, missing = sorted(data.keys() - names), sorted(required - data.keys())
    if unexpected or missing:
        raise InvalidArgument(
            f"a report of version {data.get('version')!r} has fields other than "
            f"those of {__version__}: unexpected {unexpected}, missing {missing}"
        )
    return AnalysisReport(**data)


@dataclass
class SweepRow:
    gamma: float
    verdict: str
    max_real_part: float | None
    minors: list[float] | None
    note: str = ""


@dataclass
class SweepTable:
    kind: str
    rows: list[SweepRow]
    skipped: list[dict] = field(default_factory=list)


def _sweep_row(gamma: float, res: CertificateResult | VortexStabError) -> SweepRow:
    """The row of one point, with the values :func:`analyze` reports for it."""
    if isinstance(res, VortexStabError):
        return SweepRow(
            gamma=gamma,
            verdict="error",
            max_real_part=None,
            minors=None,
            note=f"{type(res).__name__}: {res}",
        )
    # an empty leaf spectrum (n = 1) has no growing direction
    max_re = float(res.spectrum.real.max()) if len(res.spectrum) else 0.0
    minors = None if res.minors is None else list(res.minors)
    return SweepRow(gamma=gamma, verdict=res.verdict.value, max_real_part=max_re, minors=minors)


# 100 times the largest gamma grid in use (10001 points): a mistyped step
# such as 1e-300 would otherwise build points until memory runs out
MAX_GRID_POINTS = 10**6


def gamma_grid(gamma_min: float, gamma_max: float, step: float) -> list[float]:
    """gamma_min + i*step for i = 0, 1, ... up to gamma_max (within 1e-12
    relative, and within a quarter step, so no point lies a step beyond
    it), each rounded to 12 decimals; empty when gamma_max < gamma_min.
    A step that is not positive and finite, a bound that is not finite, a
    grid of more than MAX_GRID_POINTS points, or a step so fine that two
    points are equal (below the 12 decimals, or the float spacing at large
    |gamma|) raises InvalidArgument."""
    if not 0.0 < step < np.inf:
        raise InvalidArgument(f"step must be positive and finite, got {step}")
    if not (np.isfinite(gamma_min) and np.isfinite(gamma_max)):
        raise InvalidArgument(f"range bounds must be finite, got {gamma_min}, {gamma_max}")
    stop = gamma_max + min(1e-12 * max(1.0, abs(gamma_max)), 0.25 * step)
    steps = (stop - gamma_min) // step  # a float, inf past the float range
    if steps >= MAX_GRID_POINTS:
        raise InvalidArgument(f"step {step} gives {steps + 1:.3g} points, over {MAX_GRID_POINTS}")
    points = (gamma_min + i * step for i in range(int(steps) + 2))
    grid = [round(g, 12) for g in points if g <= stop]
    # the points do not decrease, so equal points are neighbours
    repeated = next((a for a, b in zip(grid, grid[1:]) if a == b), None)
    if repeated is not None:
        raise InvalidArgument(f"step {step} gives two points equal to {repeated}: too fine a step")
    return grid


def gamma_sweep(
    kind: str,
    gamma_min: float,
    gamma_max: float,
    step: float,
    m: int | None = None,
) -> SweepTable:
    """Certificate verdict at each point of :func:`gamma_grid` for the center
    circulation.

    The points are grouped by shape dimension n and regime (a center of minus
    the vertex count makes the total circulation zero), and the fixed points,
    the coupling matrices and the certificate are each built once per stack
    of up to ``stack_size(n)`` consecutive points of a group; beyond the
    rows, memory therefore does not grow with the length of the grid.
    Excluded parameter values (gamma = 0) are skipped and recorded aside.  A
    point that fails (a collision, a singular coupling matrix, a point that
    is not a fixed point, ...) appears inline as a row with verdict
    ``error``, and the rest of its stack goes on.  A kind without a center
    raises UnsupportedScenario, and a grid without points (gamma_max <
    gamma_min) raises InvalidArgument.
    """
    rows: list[SweepRow | None] = []
    skipped = []
    groups: dict[tuple, list[tuple[int, Scenario]]] = {}

    def certify(members: list) -> None:
        while members:
            try:
                stack = scenario_fixed_point([scen for _, scen in members])
                break
            except VortexStabError as exc:
                # a point that collides is set aside; the rest stay one stack
                i, scen = members.pop(exc.sample)
                rows[i] = _sweep_row(scen.free_parameter, exc)
        if members:
            circs = [scen.circ for _, scen in members]
            results = energy_casimir_certificate(stack, circs)
            for (i, scen), res in zip(members, results):
                rows[i] = _sweep_row(scen.free_parameter, res)
        members.clear()

    grid = gamma_grid(gamma_min, gamma_max, step)
    if not grid:
        raise InvalidArgument(f"empty range: from {gamma_min} is above to {gamma_max}")
    if kind in WITHOUT_CENTER:
        raise UnsupportedScenario(f"{kind} has no center circulation to sweep")
    for gamma in grid:
        try:
            scen = build_scenario(kind, gamma=gamma, m=m)
        except ExcludedParameter as exc:
            skipped.append({"gamma": gamma, "note": str(exc)})
            continue
        rows.append(None)
        n = scen.circ.n
        members = groups.setdefault((n, scen.circ.regime), [])
        members.append((len(rows) - 1, scen))
        if len(members) == stack_size(n):
            certify(members)
    for members in groups.values():
        certify(members)
    return SweepTable(kind=kind, rows=rows, skipped=skipped)


SWEEP_CSV_HEADER = ["gamma", "verdict", "max_real_part", "minors", "note"]


def sweep_to_csv(table: SweepTable) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in table.rows:
        writer.writerow(
            [
                repr(row.gamma),
                row.verdict,
                "" if row.max_real_part is None else repr(row.max_real_part),
                "" if row.minors is None else ";".join(repr(m) for m in row.minors),
                row.note,
            ]
        )
    return buf.getvalue()

