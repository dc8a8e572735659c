"""Built-in vortex configurations: regular polygons with an optional center.

Vertices sit on the unit circle at e^{2 pi i k / m}, counter-clockwise, with
unit circulation each; the center vortex comes last and carries the free
parameter gamma.  Choosing gamma equal to minus the vertex count switches the
total circulation to zero and with it the reduction regime; gamma = 0 is
rejected because every vortex must have nonzero circulation.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import Circulations, MuMatrix
from .dynamics import moment_map, relative_coordinates
from .errors import DimensionMismatch, ExcludedParameter, InvalidArgument, UnsupportedScenario
from .hamiltonian import VortexConfiguration

KINDS = (
    "equilateral3",
    "triangle-with-center",
    "square-with-center",
    "polygon-with-center",
    "custom",
)


@dataclass(frozen=True)
class Scenario:
    name: str
    positions: tuple[complex, ...]
    circ: Circulations
    free_parameter: float | None = None

    @property
    def configuration(self) -> VortexConfiguration:
        return VortexConfiguration(self.positions, self.circ)


@lru_cache(maxsize=None)
def _polygon_vertices(m: int) -> tuple[complex, ...]:
    """The m vertices e^{2 pi i k / m}, computed once per m (a sweep builds
    one scenario per grid point)."""
    return tuple([complex(np.exp(2j * np.pi * k / m)) for k in range(m)])


def _circulations(gammas: tuple[float, ...]) -> Circulations:
    try:
        return Circulations(gammas)
    except ValueError as exc:
        raise ExcludedParameter(str(exc)) from exc


def build_scenario(
    kind: str,
    gamma: float | None = None,
    m: int | None = None,
    circulations: tuple[float, ...] | None = None,
    positions: tuple[complex, ...] | None = None,
) -> Scenario:
    """Construct one of the named configurations or a custom one."""
    if kind == "equilateral3":
        circs = circulations if circulations is not None else (1.0, 1.0, 1.0)
        if len(circs) != 3:
            raise UnsupportedScenario("equilateral3 takes exactly 3 circulations")
        return Scenario(
            name=kind,
            positions=_polygon_vertices(3),
            circ=_circulations(circs),
        )
    if kind == "triangle-with-center":
        return _polygon_with_center(kind, 3, gamma)
    if kind == "square-with-center":
        return _polygon_with_center(kind, 4, gamma)
    if kind == "polygon-with-center":
        try:
            m = None if m is None else operator.index(m)
        except TypeError:
            raise InvalidArgument(f"the vertex count m must be an integer, got {m!r}") from None
        if m is None or m < 2:
            raise UnsupportedScenario("polygon-with-center needs m >= 2")
        return _polygon_with_center(f"{kind}-{m}", m, gamma)
    if kind == "custom":
        if positions is None or circulations is None:
            raise UnsupportedScenario("custom needs explicit positions and circulations")
        if len(positions) != len(circulations):
            raise UnsupportedScenario("positions and circulations must have equal length")
        points = tuple([complex(p) for p in positions])
        if not all(map(cmath.isfinite, points)):
            raise InvalidArgument(f"positions must be finite, got {points}")
        return Scenario(
            name=kind,
            positions=points,
            circ=_circulations(circulations),
        )
    raise UnsupportedScenario(f"unknown scenario kind {kind!r} (choose from {KINDS})")


def _polygon_with_center(name: str, m: int, gamma: float | None) -> Scenario:
    if gamma is None:
        raise UnsupportedScenario(f"{name} needs a gamma value for the center vortex")
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise InvalidArgument(f"center circulation gamma must be finite, got {gamma}")
    if gamma == 0.0:
        raise ExcludedParameter("center circulation gamma = 0 is excluded")
    return Scenario(
        name=name,
        positions=_polygon_vertices(m) + (0j,),
        circ=_circulations((1.0,) * m + (gamma,)),
        free_parameter=gamma,
    )


def scenario_fixed_point(scenario: Scenario | Sequence[Scenario]) -> MuMatrix:
    """Reduced-space point mu0 = J(z) of the scenario geometry, or the stack
    of them (leading axis k) for a sequence of k scenarios that share N and
    the regime.

    One scenario is a stack of one.  The collision checks of the
    configurations and of their relative coordinates, and the skew check of
    mu0, run once over the stack and raise for its first scenario that fails
    them (the error's ``sample``); scenarios that differ in N or the regime
    raise DimensionMismatch.
    """
    scens = [scenario] if isinstance(scenario, Scenario) else list(scenario)
    first = scens[0].circ
    size = len(first.gammas)
    if any([len(s.circ.gammas) != size or s.circ.regime is not first.regime for s in scens]):
        raise DimensionMismatch("the scenarios of a stack must share N and the regime")
    # the reference vortex depends on N and the regime only, so one
    # circulation set serves the whole stack of positions
    cfg = VortexConfiguration(np.array([s.positions for s in scens]), first)
    mu0 = moment_map(relative_coordinates(cfg))
    return MuMatrix(mu0.entries[0]) if isinstance(scenario, Scenario) else mu0
