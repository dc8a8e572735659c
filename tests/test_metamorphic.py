"""The verdict depends only on the physics: metamorphic properties.

A rotation and translation of the plane, a change of the unit of length or
of circulation, a global sign flip of the circulations (time reversal) and a
relabelling of the vortices each map a relative equilibrium to one with the
same stability, so ``analyze`` must return the same verdict.  The cases are
the paper's families on all three verdict paths and a ring of seven; each
transformed copy is analysed as a custom configuration.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexstab.report import analyze
from vortexstab.scenarios import build_scenario

CASES = (
    [("triangle-with-center", gamma, None) for gamma in (-4.0, -2.0, 0.5, 2.0)]
    + [("square-with-center", gamma, None) for gamma in (-1.0, 1.0, 3.0)]
    + [("polygon-with-center", 20.0, 7)]
)
EXAMPLES = 50


@lru_cache(maxsize=None)
def base(case):
    return build_scenario(case[0], gamma=case[1], m=case[2])


@lru_cache(maxsize=None)
def base_verdict(case):
    return analyze(base(case)).verdict


def verdict_of(positions, circulations):
    scen = build_scenario("custom", positions=tuple(positions), circulations=tuple(circulations))
    return analyze(scen).verdict


def transformed_verdict(case, angle=0.0, shift=0.0, length=1.0, strength=1.0, order=None):
    """The verdict of the case rotated by ``angle``, scaled by ``length``,
    translated by ``shift`` (in units of the scaled configuration), with the
    circulations times ``strength`` and the vortices in ``order``."""
    scen = base(case)
    q = length * np.exp(1j * angle) * np.asarray(scen.positions) + length * shift
    g = strength * scen.circ.as_array()
    if order is not None:
        q, g = q[list(order)], g[list(order)]
    return verdict_of(q, g)


cases = st.sampled_from(CASES)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    cases,
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.complex_numbers(max_magnitude=10.0),
)
def test_rotation_and_translation(case, angle, shift):
    assert transformed_verdict(case, angle=angle, shift=shift) == base_verdict(case)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases, st.floats(min_value=-5.0, max_value=5.0))
@example(CASES[0], -5.0)
@example(CASES[5], 5.0)
def test_position_scaling(case, exponent):
    assert transformed_verdict(case, length=10.0**exponent) == base_verdict(case)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases, st.floats(min_value=-6.0, max_value=6.0))
@example(CASES[0], -6.0)
@example(CASES[5], 6.0)
def test_circulation_scaling(case, exponent):
    assert transformed_verdict(case, strength=10.0**exponent) == base_verdict(case)


@settings(max_examples=len(CASES), deadline=None)
@given(cases)
def test_global_sign_flip(case):
    assert transformed_verdict(case, strength=-1.0) == base_verdict(case)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_relabelling(data):
    case = data.draw(cases)
    order = data.draw(st.permutations(range(len(base(case).positions))))
    assert transformed_verdict(case, order=order) == base_verdict(case)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_all_at_once(data):
    case = data.draw(cases)
    order = data.draw(st.permutations(range(len(base(case).positions))))
    kwargs = dict(
        angle=data.draw(st.floats(min_value=0.0, max_value=2 * np.pi)),
        shift=data.draw(st.complex_numbers(max_magnitude=10.0)),
        length=10.0 ** data.draw(st.floats(min_value=-5.0, max_value=5.0)),
        strength=data.draw(st.sampled_from([-1.0, 1.0]))
        * 10.0 ** data.draw(st.floats(min_value=-6.0, max_value=6.0)),
        order=order,
    )
    assert transformed_verdict(case, **kwargs) == base_verdict(case)
