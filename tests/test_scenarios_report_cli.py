import gc
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vortexstab import report
from vortexstab.algebra import Regime
from vortexstab.cli import main, make_parser
from vortexstab.errors import (
    ExcludedParameter,
    InvalidArgument,
    NotAFixedPoint,
    UnsupportedScenario,
)
from vortexstab.report import (
    SWEEP_CSV_HEADER,
    analyze,
    gamma_grid,
    gamma_sweep,
    report_from_json,
    report_to_json,
    sweep_to_csv,
)
from vortexstab.scenarios import KINDS, build_scenario, scenario_fixed_point
from vortexstab.stability import is_fixed_point, linearize, spectrum

CUSTOM = {"positions": (0.5, -0.5, 1j), "circulations": (1.0, 1.0, 2.0)}


class TestBuildScenario:
    def test_equilateral3(self):
        scen = build_scenario("equilateral3", circulations=(1.0, 1.0, 1.0))
        pos = np.asarray(scen.positions)
        d = np.abs(pos[:, None] - pos[None, :])[np.triu_indices(3, 1)]
        np.testing.assert_allclose(d, d[0], atol=1e-12)

    def test_triangle_with_center(self):
        scen = build_scenario("triangle-with-center", gamma=0.7)
        assert len(scen.positions) == 4
        assert scen.circ.gammas[-1] == pytest.approx(0.7)
        assert abs(scen.positions[-1]) < 1e-14

    def test_polygon_with_center(self):
        scen = build_scenario("polygon-with-center", gamma=1.0, m=5)
        assert len(scen.positions) == 6
        np.testing.assert_allclose(np.abs(np.asarray(scen.positions[:-1])), 1.0)
        assert build_scenario("polygon-with-center", gamma=1.0, m=np.int64(5)) == scen

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.nan, np.inf, "4"])
    def test_a_vertex_count_that_is_not_an_integer_is_invalid(self, bad):
        with pytest.raises(InvalidArgument, match="integer"):
            build_scenario("polygon-with-center", gamma=1.0, m=bad)
        with pytest.raises(InvalidArgument, match="integer"):
            gamma_sweep("polygon-with-center", 0.5, 1.0, 0.5, m=bad)

    @pytest.mark.parametrize("small", [None, 1, 0, -3])
    def test_a_vertex_count_under_two_is_unsupported(self, small):
        with pytest.raises(UnsupportedScenario, match="m >= 2"):
            build_scenario("polygon-with-center", gamma=1.0, m=small)

    def test_gamma_zero_excluded(self):
        with pytest.raises(ExcludedParameter):
            build_scenario("triangle-with-center", gamma=0.0)

    def test_gamma_minus_m_switches_regime(self):
        scen = build_scenario("triangle-with-center", gamma=-3.0)
        assert scen.circ.regime is Regime.ZERO_TOTAL
        assert scen.circ.n == 2

    def test_custom(self):
        scen = build_scenario(
            "custom",
            positions=(0.5, -0.5, 1j),
            circulations=(1.0, 1.0, 2.0),
        )
        assert scen.circ.n == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_circulations_are_excluded(self, bad):
        with pytest.raises(ExcludedParameter, match="finite"):
            build_scenario("custom", positions=(0.5, -0.5, 1j), circulations=(1.0, bad, 1.0))
        with pytest.raises(ExcludedParameter, match="finite"):
            build_scenario("equilateral3", circulations=(1.0, bad, 1.0))

    @pytest.mark.parametrize(
        "bad", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0)]
    )
    def test_non_finite_custom_positions_are_invalid(self, bad):
        with pytest.raises(InvalidArgument, match="finite"):
            build_scenario("custom", positions=(0.5, bad, 1j), circulations=(1.0, 1.0, 2.0))

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedScenario):
            build_scenario("pentagram")

    @pytest.mark.parametrize(
        "kind,kwargs,option",
        [
            ("equilateral3", {}, "m"),
            ("triangle-with-center", {"gamma": 1.0}, "m"),
            ("square-with-center", {"gamma": 1.0}, "m"),
            ("custom", CUSTOM, "m"),
            ("equilateral3", {}, "gamma"),
            ("custom", CUSTOM, "gamma"),
            ("triangle-with-center", {"gamma": 1.0}, "circulations"),
            ("triangle-with-center", {"gamma": 1.0}, "positions"),
            ("square-with-center", {"gamma": 1.0}, "circulations"),
            ("square-with-center", {"gamma": 1.0}, "positions"),
            ("polygon-with-center", {"gamma": 1.0, "m": 5}, "circulations"),
            ("polygon-with-center", {"gamma": 1.0, "m": 5}, "positions"),
            ("equilateral3", {}, "positions"),
        ],
    )
    def test_an_option_the_kind_does_not_take_is_invalid(self, kind, kwargs, option):
        # only polygon-with-center has a vertex count, the kinds without a
        # center have no gamma, and only custom takes positions; the
        # centered kinds fix their circulations
        build_scenario(kind, **kwargs)
        with pytest.raises(InvalidArgument) as got:
            build_scenario(kind, **kwargs, **{option: 9})
        assert str(got.value) == f"{kind} does not take {option} (got 9)"

    def test_a_centered_kind_does_not_drop_given_circulations_or_positions(self):
        # these once built the unit square with unit circulations and the
        # unit triangle, silently
        with pytest.raises(InvalidArgument, match="does not take circulations"):
            build_scenario(
                "square-with-center",
                gamma=1.0,
                circulations=(5.0, 5.0, 5.0),
                positions=(0j, 1, 2j),
            )
        with pytest.raises(InvalidArgument, match="does not take positions"):
            build_scenario("square-with-center", gamma=1.0, positions=(0j, 1, 2j))
        with pytest.raises(InvalidArgument, match="equilateral3 does not take positions"):
            build_scenario("equilateral3", circulations=(1.0, 2.0, 3.0), positions=(0j, 1, 2j))
        # equilateral3 keeps taking its circulations
        scen = build_scenario("equilateral3", circulations=(1.0, 2.0, 3.0))
        assert scen.circ.gammas == (1.0, 2.0, 3.0)

    def test_center_scenarios_are_fixed_points(self):
        for kind, kwargs in [
            ("triangle-with-center", {"gamma": 1.2}),
            ("square-with-center", {"gamma": -0.8}),
            ("polygon-with-center", {"gamma": 2.0, "m": 6}),
        ]:
            scen = build_scenario(kind, **kwargs)
            assert is_fixed_point(scenario_fixed_point(scen), scen.circ).ok

    def test_kinds_listing(self):
        assert "custom" in KINDS and "square-with-center" in KINDS

    @pytest.mark.parametrize("kind", ["triangle-with-center", "square-with-center"])
    def test_fixed_point_stack_equals_one_point_calls(self, kind):
        scens = [build_scenario(kind, gamma=g) for g in (-2.5, -0.7, 0.5, 1.3, 8.0)]
        stack = scenario_fixed_point(scens)
        one = np.stack([scenario_fixed_point(s).entries for s in scens])
        assert stack.entries.shape == one.shape
        np.testing.assert_array_equal(stack.entries, one)

    def test_custom_fixed_point_stack_equals_one_point_calls(self):
        rng = np.random.default_rng(4)
        scens = [
            build_scenario(
                "custom",
                positions=tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)),
                circulations=tuple(rng.uniform(0.5, 2.0, 5)),
            )
            for _ in range(6)
        ]
        one = np.stack([scenario_fixed_point(s).entries for s in scens])
        np.testing.assert_array_equal(scenario_fixed_point(tuple(scens)).entries, one)

    @pytest.mark.parametrize("onto", [1, 3], ids=["vertex", "center"])
    def test_fixed_point_stack_names_its_colliding_member(self, onto):
        from vortexstab.errors import Collision

        scens = [build_scenario("triangle-with-center", gamma=g) for g in (0.5, 0.7, 0.9)]
        # vertex 0 of member 2 moved to within 1e-12 of vortex `onto`
        base = scens[2].positions
        positions = (base[onto] + 1e-12,) + base[1:]
        gammas = scens[2].circ.gammas
        scens[2] = build_scenario("custom", positions=positions, circulations=gammas)
        with pytest.raises(Collision) as exc:
            scenario_fixed_point(scens)
        assert exc.value.sample == 2

    @pytest.mark.parametrize(
        "gammas",
        [("triangle-with-center", -3.0), ("square-with-center", 0.5)],
        ids=["regime", "N"],
    )
    def test_fixed_point_stack_members_must_share_n_and_regime(self, gammas):
        from vortexstab.errors import DimensionMismatch

        kind, gamma = gammas
        scens = [build_scenario("triangle-with-center", gamma=0.5)]
        scens.append(build_scenario(kind, gamma=gamma))
        with pytest.raises(DimensionMismatch):
            scenario_fixed_point(scens)


class TestReport:
    def test_json_round_trip_lossless(self):
        scen = build_scenario("triangle-with-center", gamma=0.5)
        rep = analyze(scen)
        back = report_from_json(report_to_json(rep))
        assert back == rep

    def test_a_report_of_other_fields_raises_invalid_argument(self):
        # a 0.1.0 report carries the Casimir indices it was made with
        data = asdict(analyze(build_scenario("triangle-with-center", gamma=0.5)))
        data.pop("minors")
        data.update(casimir_subset=[1], version="0.1.0")
        with pytest.raises(InvalidArgument) as exc:
            report_from_json(json.dumps(data))
        message = str(exc.value)
        assert "'0.1.0'" in message
        assert "unexpected ['casimir_subset']" in message and "missing ['minors']" in message

    def test_a_report_that_is_not_an_object_raises_invalid_argument(self):
        with pytest.raises(InvalidArgument, match="a report is a JSON object, got list"):
            report_from_json("[]")

    def test_report_fields(self):
        scen = build_scenario("square-with-center", gamma=1.0)
        rep = analyze(scen, with_drift=True)
        assert rep.verdict == "certified-stable"
        assert rep.regime == "NON_ZERO_TOTAL"
        assert rep.fixed_point_residual < 1e-9
        # the leaf spectrum: 2n - 2 = 6 of the 16 eigenvalues of the full
        # linearization, each within round-off of one of them
        assert len(rep.spectrum) == 6
        full = spectrum(linearize(scenario_fixed_point(scen), scen.circ))
        tol = 1e-10 * np.abs(full).max()
        for re, im in rep.spectrum:
            assert np.abs(full - complex(re, im)).min() <= tol
        assert rep.drift is not None and rep.drift["hamiltonian_max"] < 1e-8

    def test_report_keys_are_the_documented_fields(self):
        fields = {
            "scenario_name", "positions", "circulations", "free_parameter", "regime",
            "fixed_point", "fixed_point_residual", "spectrum", "verdict",
            "reason", "multipliers", "minors", "restricted_hessian", "drift", "version",
        }
        rep = analyze(build_scenario("triangle-with-center", gamma=0.5))
        assert set(asdict(rep)) == fields
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert all(f"`{name}`" in readme for name in fields)

    def test_analyze_deterministic(self):
        scen = build_scenario("triangle-with-center", gamma=-1.0)
        assert report_to_json(analyze(scen)) == report_to_json(analyze(scen))

    def test_analyze_rejects_non_equilibrium(self):
        scen = build_scenario(
            "custom",
            positions=(0.0, 1.0, 2.5 + 1j),
            circulations=(1.0, 1.0, 1.0),
        )
        with pytest.raises(NotAFixedPoint):
            analyze(scen)

    def test_sweep_excludes_zero_and_counts_rows(self):
        table = gamma_sweep("triangle-with-center", -0.5, 0.5, 0.25)
        assert any(s["gamma"] == 0.0 for s in table.skipped)
        assert [r.gamma for r in table.rows] == [-0.5, -0.25, 0.25, 0.5]

    def test_sweep_csv_layout(self):
        table = gamma_sweep("square-with-center", 1.0, 1.5, 0.5)
        lines = sweep_to_csv(table).strip().splitlines()
        assert lines[0].split(",") == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(table.rows)

    def test_sweep_grid_is_indexed_not_accumulated(self):
        grid = gamma_grid(0, 100, 0.01)
        assert len(grid) == 10001
        assert grid[2111] == 21.11
        assert grid[-1] == 100.0
        assert gamma_grid(1.0, 0.0, 0.5) == []

    def test_sweep_grid_rejects_bad_arguments(self):
        for args in ((1.0, 2.0, 0.0), (1.0, 2.0, -0.5), (1.0, 2.0, np.inf), (1.0, 2.0, np.nan),
                     (np.nan, 2.0, 0.5), (1.0, np.inf, 0.5)):
            with pytest.raises(InvalidArgument):
                gamma_grid(*args)
        with pytest.raises(InvalidArgument, match="empty range"):
            gamma_sweep("square-with-center", 2.0, 1.0, 0.5)

    def test_sweep_grid_rejects_too_many_points_from_the_count(self, monkeypatch):
        # 1e300 or an overflowing count of points is rejected before any
        # point is built, and the bound counts points, not steps
        for step in (1e-300, 5e-324, 1e-6):
            with pytest.raises(InvalidArgument, match="over 1000000"):
                gamma_grid(0.0, 1.0, step)
        monkeypatch.setattr(report, "MAX_GRID_POINTS", 10)
        assert len(gamma_grid(0.0, 9.0, 1.0)) == 10
        with pytest.raises(InvalidArgument, match="over 10$"):
            gamma_grid(0.0, 10.0, 1.0)

    @pytest.mark.parametrize(
        "lo,hi,step,repeated",
        [
            (-1e-16, 3e-16, 1e-16, "-0.0"),
            (0.0, 1e-11, 4e-13, "0.0"),
            (1e5, 1e5 + 1e-10, 1e-12, "100000.0"),
        ],
        ids=["below-12-decimals", "rounded-together", "below-float-spacing"],
    )
    def test_sweep_grid_rejects_a_step_that_repeats_a_point(self, lo, hi, step, repeated):
        # -1e-16 and 0.0 round to -0.0 and 0.0, which are equal; 0.0 and
        # 4e-13 both round to 0.0; at |gamma| = 1e5 the float spacing is
        # 1.5e-11, so 1e5 + 1e-12 is 1e5
        detail = f"step {step} gives two points equal to {repeated}: too fine a step"
        with pytest.raises(InvalidArgument) as got:
            gamma_grid(lo, hi, step)
        assert str(got.value) == detail
        with pytest.raises(InvalidArgument) as got:
            gamma_sweep("triangle-with-center", lo, hi, step)
        assert str(got.value) == detail
        assert gamma_grid(0.0, 1e-10, 1e-11) == [round(i * 1e-11, 12) for i in range(11)]

    def test_sweep_grid_ends_at_gamma_max_for_a_step_at_its_tolerance(self):
        # the end tolerance 1e-12 * max(1, |gamma_max|) is absolute below
        # |gamma_max| = 1; capped at a quarter step, it admits no point a
        # step beyond gamma_max when the step is at or below it
        assert gamma_grid(0.0, 1e-11, 1e-12) == [round(i * 1e-12, 12) for i in range(11)]
        assert gamma_grid(0.0, 1e-11, 1.5e-12)[-1] == round(6 * 1.5e-12, 12)
        assert gamma_grid(0.0, 2.5e-12, 1e-12) == [0.0, 1e-12, 2e-12]
        # the rounding the tolerance is for: 0.1 + 2 * 0.1 is 0.30000000000000004
        assert gamma_grid(0.1, 0.3, 0.1) == [0.1, 0.2, 0.3]

    def test_sweep_grid_keeps_the_benchmark_grids(self, monkeypatch):
        # every sweep-paper operation of the benchmark sweeps its points
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        ops = workloads.SweepPaper(0).ops
        assert len(ops) == sum(stride for *_, stride in workloads.SWEEP_FAMILIES)
        for op in ops:
            lo, hi, step, points = op.args
            assert gamma_grid(lo, hi, step) == list(points), op.key

    def test_empty_sweep_header_only(self):
        table = gamma_sweep("triangle-with-center", 0.0, 0.0, 1.0)
        assert list(table.rows) == []
        assert sweep_to_csv(table).strip() == ",".join(SWEEP_CSV_HEADER)


class TestSweepStack:
    """gamma_sweep certifies each (n, regime) group of its grid as one stack."""

    @pytest.mark.parametrize(
        "kind,lo,hi,step,m",
        [
            ("triangle-with-center", -5.0, 2.0, 0.02, None),
            ("square-with-center", -1.5, 3.0, 0.02, None),
        ]
        + [("polygon-with-center", -5.0, 40.0, 1.25, m) for m in (5, 6, 7, 8)],
    )
    def test_rows_equal_a_fresh_analyze(self, kind, lo, hi, step, m):
        # verdicts and minors bit for bit; max Re lambda within 1e-12 relative
        table = gamma_sweep(kind, lo, hi, step, m=m)
        assert table.rows
        for row in table.rows:
            rep = analyze(build_scenario(kind, gamma=row.gamma, m=m))
            max_re = max((re for re, _ in rep.spectrum), default=0.0)
            assert (row.verdict, row.minors) == (rep.verdict, rep.minors), row.gamma
            assert abs(row.max_real_part - max_re) <= 1e-12 * max(1.0, abs(max_re))

    def test_zero_total_point_is_its_own_group(self):
        # gamma = -3 makes the triangle's total circulation zero: n = 2 there
        table = gamma_sweep("triangle-with-center", -3.5, -2.5, 0.5)
        assert [r.gamma for r in table.rows] == [-3.5, -3.0, -2.5]
        assert [r.verdict for r in table.rows] == [
            analyze(build_scenario("triangle-with-center", gamma=g)).verdict
            for g in (-3.5, -3.0, -2.5)
        ]

    def test_long_sweep_leaves_circulation_caches_bounded(self):
        from vortexstab.algebra import CIRCULATION_CACHE_SIZE, _one_coupling
        from vortexstab.hamiltonian import reduced_system
        from vortexstab.localmodel import LocalModel

        table = gamma_sweep("square-with-center", -1.5, 2.5, 0.002)
        assert len(table.rows) == 2000 and len(table.skipped) == 1
        assert _one_coupling.cache_info().currsize <= CIRCULATION_CACHE_SIZE
        assert reduced_system.cache_info().currsize <= CIRCULATION_CACHE_SIZE
        # no certificate's model outlives the sweep
        gc.collect()
        assert not any(isinstance(obj, LocalModel) for obj in gc.get_objects())

    def test_sweep_memory_is_one_stack_whatever_the_grid(self):
        # n = 12: stacks of stack_size(12) = 12 points, each holding arrays of
        # n^4 entries per point; 96 points take eight stacks
        import tracemalloc

        from vortexstab.stability import stack_size

        assert stack_size(12) == 12

        def peak(lo, hi):
            tracemalloc.start()
            table = gamma_sweep("polygon-with-center", lo, hi, 0.5, m=12)
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(table.rows) == round((hi - lo) / 0.5) + 1
            return top

        gamma_sweep("polygon-with-center", 50.0, 55.5, 0.5, m=12)  # fills the lru caches
        whole = peak(1.0, 48.5)
        slices = [peak(1.0 + 6 * j, 6.5 + 6 * j) for j in range(8)]
        # the 84 extra rows take about 0.1 MB; certified as one stack the
        # whole grid peaks at 7.5 times its largest slice
        assert whole <= max(slices) + 0.5e6

    def test_later_stages_take_the_undecided_points_only(self, monkeypatch):
        from vortexstab import stability
        from vortexstab.algebra import MuMatrix

        sizes = {"solve_multiplier_system": [], "restricted_hessian": []}
        for name, calls in sizes.items():
            stage = getattr(stability, name)

            def spy(mu0, *args, stage=stage, calls=calls, **kwargs):
                calls.append(len(mu0.circs))
                return stage(mu0, *args, **kwargs)

            monkeypatch.setattr(stability, name, spy)
        # gamma = 3 is linearly unstable, 0.5 and 1 are certified with a0 = +1
        scens = [build_scenario("square-with-center", gamma=g) for g in (0.5, 3.0, 1.0)]
        mus = MuMatrix(np.stack([scenario_fixed_point(s).entries for s in scens]))
        results = stability.energy_casimir_certificate(mus, [s.circ for s in scens])
        assert [r.verdict.value for r in results] == [
            "certified-stable", "linearly-unstable", "certified-stable"
        ]
        assert sizes == {"solve_multiplier_system": [2], "restricted_hessian": [2]}

    def test_failing_points_leave_the_rest_one_stack(self, monkeypatch):
        # a point that is not a fixed point is masked out: the field's log
        # arguments are gathered once; a point outside the Hamiltonian's
        # domain fails their check, and they are gathered once more without it
        from vortexstab.algebra import MuMatrix
        from vortexstab.errors import DomainError
        from vortexstab.hamiltonian import ReducedHamiltonian
        from vortexstab.stability import energy_casimir_certificate

        shapes = []
        arguments = ReducedHamiltonian.arguments

        def counted(self, u):
            shapes.append(u.shape)
            return arguments(self, u)

        monkeypatch.setattr(ReducedHamiltonian, "arguments", counted)
        scens = [build_scenario("square-with-center", gamma=g) for g in (0.5, 1.0, 3.0)]
        mus = [scenario_fixed_point(s).entries for s in scens]
        z = np.array([1.0, 1.0, 0.3 + 0.7j, -0.5])  # vortices 1 and 2 coincide
        moved = build_scenario(
            "custom",
            positions=(1.01,) + scens[1].positions[1:],
            circulations=scens[1].circ.gammas,
        )
        stack = MuMatrix(np.stack(mus + [scenario_fixed_point(moved).entries]))
        results = energy_casimir_certificate(stack, [s.circ for s in scens] + [scens[1].circ])
        assert isinstance(results[3], NotAFixedPoint)
        assert shapes == [(4, 16)]
        shapes.clear()
        stack = MuMatrix(np.stack(mus[:2] + [1j * np.outer(z.conj(), z)] + mus[2:]))
        results = energy_casimir_certificate(stack, [s.circ for s in scens] + [scens[2].circ])
        assert isinstance(results[2], DomainError)
        assert shapes == [(4, 16), (3, 16)]
        assert [r.verdict.value for r in results[:2] + results[3:]] == [
            "certified-stable", "certified-stable", "linearly-unstable"
        ]

    def test_failing_point_becomes_an_error_row(self):
        from vortexstab.algebra import MuMatrix
        from vortexstab.errors import NotAFixedPoint
        from vortexstab.stability import energy_casimir_certificate

        scens = [build_scenario("square-with-center", gamma=g) for g in (0.5, 1.0, 3.0)]
        mus = [scenario_fixed_point(s).entries for s in scens]
        moved = build_scenario(
            "custom",
            positions=(1.01,) + scens[1].positions[1:],
            circulations=scens[1].circ.gammas,
        )
        mus[1] = scenario_fixed_point(moved).entries  # not a relative equilibrium
        results = energy_casimir_certificate(MuMatrix(np.stack(mus)), [s.circ for s in scens])
        assert isinstance(results[1], NotAFixedPoint)
        for i in (0, 2):
            alone = energy_casimir_certificate(MuMatrix(mus[i]), scens[i].circ)
            assert results[i].verdict is alone.verdict
            assert results[i].minors == alone.minors


class TestSweepBuilds:
    """gamma_sweep builds the fixed points and coupling matrices of a stack at
    once, and sets a point that fails aside."""

    def test_one_fixed_point_and_coupling_call_per_stack(self, monkeypatch):
        # both are wrapped wherever a module binds them, as a tracer does
        from vortexstab import algebra, scenarios

        sizes = {"scenario_fixed_point": [], "build_coupling_matrix": []}
        modules = [m for name, m in sys.modules.items() if name.startswith("vortexstab")]
        for owner, name in (
            (scenarios, "scenario_fixed_point"), (algebra, "build_coupling_matrix")
        ):
            fn = getattr(owner, name)

            def spy(arg, fn=fn, log=sizes[name]):
                log.append(len(arg) if isinstance(arg, (list, tuple)) else 1)
                return fn(arg)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
        # 13 points: gamma = -4 is a zero-total stack of one (n = 3), the
        # other 12 one stack of n = 4
        table = gamma_sweep("square-with-center", -4.4, -2.0, 0.2)
        assert len(table.rows) == 13
        assert {name: sorted(calls) for name, calls in sizes.items()} == {
            "scenario_fixed_point": [1, 12],
            "build_coupling_matrix": [1, 12],
        }

    def test_one_point_analyze_reads_the_coupling_memo(self):
        # a one-point certificate asks for the coupling matrices of a stack
        # of one set, which reads the one-set memo: K is not built again
        from vortexstab.algebra import _one_coupling, build_coupling_matrix
        from vortexstab.localmodel import local_model

        scen = build_scenario("square-with-center", gamma=0.37)
        mu0 = scenario_fixed_point(scen)
        couplings, counts = [], []
        for _ in range(2):
            before = _one_coupling.cache_info()
            analyze(scen)
            after = _one_coupling.cache_info()
            counts.append((after.hits - before.hits, after.misses - before.misses))
            couplings.append(local_model(mu0, scen.circ).coupling)
        assert counts[1][0] >= 1 and counts[1][1] == 0
        first, second = couplings
        for a, b in ((first.k, second.k), (first.k_inv, second.k_inv)):
            assert a.shape == (1, 4, 4) and not a.flags.writeable
            np.testing.assert_array_equal(a, b)
            assert np.shares_memory(a, b)
        single = build_coupling_matrix(scen.circ)
        np.testing.assert_array_equal(first.k[0], single.k)
        np.testing.assert_array_equal(first.k_inv[0], single.k_inv)

    def test_failing_points_become_error_rows(self, monkeypatch):
        # gamma = 0.7 collides (vertex 0 on vertex 1) and gamma = 0.9 has a
        # coupling matrix without an inverse; both share the others' stack
        from vortexstab import report
        from vortexstab.algebra import Circulations
        from vortexstab.scenarios import Scenario

        def build(kind, gamma=None, m=None):
            scen = build_scenario(kind, gamma=gamma, m=m)
            if gamma == 0.7:
                moved = (scen.positions[1] + 1e-12,) + scen.positions[1:]
                return Scenario(scen.name, moved, scen.circ, gamma)
            if gamma == 0.9:
                singular = Circulations((1.0, 1.0, 1.0, 1e-17))
                return Scenario(scen.name, scen.positions, singular, gamma)
            return scen

        monkeypatch.setattr(report, "build_scenario", build)
        table = gamma_sweep("triangle-with-center", 0.3, 1.1, 0.2)
        assert [r.gamma for r in table.rows] == [0.3, 0.5, 0.7, 0.9, 1.1]
        assert table.rows[2].verdict == table.rows[3].verdict == "error"
        assert table.rows[2].note.startswith("Collision: minimum vortex separation")
        assert table.rows[3].note.startswith("SingularCoupling: ")
        for row in table.rows[:2] + table.rows[4:]:
            rep = analyze(build_scenario("triangle-with-center", gamma=row.gamma))
            assert (row.verdict, row.minors) == (rep.verdict, rep.minors)


class TestVersion:
    def test_version_is_the_project_version(self):
        import tomllib

        import vortexstab

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert vortexstab.__version__ == declared
        assert analyze(build_scenario("triangle-with-center", gamma=0.5)).version == declared

    def test_import_leaves_out_package_metadata(self):
        code = "import sys, vortexstab; print('importlib.metadata' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


class TestCli:
    def test_parser_subcommands(self):
        parser = make_parser()
        ns = parser.parse_args(
            ["analyze", "--scenario", "triangle-with-center", "--gamma", "0.5"]
        )
        assert ns.command == "analyze"

    def test_analyze_has_no_seed_option(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(
                ["analyze", "--scenario", "triangle-with-center", "--seed", "1"]
            )

    def test_analyze_exit_ok(self, capsys):
        code = main(["analyze", "--scenario", "triangle-with-center", "--gamma", "0.5"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "certified-stable"

    def test_analyze_unstable_still_exit_ok(self, capsys):
        code = main(["analyze", "--scenario", "square-with-center", "--gamma", "3.0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "linearly-unstable"

    def test_analyze_dependent_differentials_exit_ok(self, capsys):
        # just below zero total the differentials read dependent: an answer, not an error
        code = main(["analyze", "--scenario", "triangle-with-center", "--gamma", "-3.000000001"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "inconclusive" and len(rep["spectrum"]) == 9
        assert rep["reason"] == "differentials not independent (rank 4 < 5); full n^2 spectrum"

    def test_invalid_gamma_exit_2(self, capsys):
        code = main(["analyze", "--scenario", "triangle-with-center", "--gamma", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid scenario: ")
        for gamma in ("nan", "inf"):
            code = main(["analyze", "--scenario", "triangle-with-center", "--gamma", gamma])
            assert code == 2
            expected = f"invalid input: center circulation gamma must be finite, got {gamma}"
            assert capsys.readouterr().err.startswith(expected)

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--scenario", "square-with-center", "--gamma", "1"],
            ["sweep", "--scenario", "square-with-center", "--from", "1", "--to", "2", "--step", "1"],
        ],
        ids=["analyze", "sweep"],
    )
    def test_casimirs_option_is_gone_exit_2(self, command, capsys):
        # C_1 is the certificate's one Casimir: no command takes a choice of them
        with pytest.raises(SystemExit) as exc:
            main(command + ["--casimirs", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --casimirs 1" in capsys.readouterr().err

    def test_sweep_of_a_kind_without_a_center_exit_2(self, capsys):
        with pytest.raises(UnsupportedScenario):
            gamma_sweep("equilateral3", 1.0, 2.0, 0.5)
        args = ["sweep", "--scenario", "equilateral3", "--from", "1", "--to", "2", "--step", "0.5"]
        assert main(args) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "args,detail",
        [
            (["--scenario", "square-with-center", "--m", "9", "--gamma", "1"],
             "square-with-center does not take m (got 9)"),
            (["--scenario", "equilateral3", "--gamma", "5"], "equilateral3 does not take gamma (got 5.0)"),
            (["--scenario", "triangle-with-center", "--gamma", "1", "--config", "cfg.json"],
             "--config is for the custom scenario, not triangle-with-center"),
        ],
        ids=["m", "gamma", "config"],
    )
    def test_an_option_the_kind_does_not_take_exit_2(self, args, detail, capsys):
        # rejected before the config is read: cfg.json need not exist
        for command in (["analyze"], ["integrate", "--t-end", "0.1", "--dt", "0.01"]):
            assert main(command + args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"invalid input: {detail}\n"

    def test_sweep_of_a_kind_given_a_vertex_count_exit_2(self, capsys):
        args = ["sweep", "--scenario", "square-with-center", "--from", "1", "--to", "2"]
        assert main(args + ["--step", "0.5", "--m", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invalid input: square-with-center does not take m (got 4)\n"

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_sweep_step_not_positive_exit_2(self, step, capsys):
        args = ["sweep", "--scenario", "square-with-center", "--from", "1", "--to", "2"]
        assert main(args + ["--step", step]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: step must be positive and finite")

    def test_sweep_of_too_many_points_exit_2(self, capsys):
        args = ["sweep", "--scenario", "triangle-with-center", "--from", "0", "--to", "1"]
        assert main(args + ["--step", "1e-300"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: step 1e-300 gives 1e+300 points, over 1000000")

    def test_sweep_of_repeated_points_exit_2(self, capsys):
        args = ["sweep", "--scenario", "triangle-with-center", "--from=-1e-16", "--to", "3e-16"]
        assert main(args + ["--step", "1e-16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invalid input: step 1e-16 gives two points equal to -0.0: too fine a step\n"

    def test_sweep_empty_range_exit_2(self, capsys):
        args = ["sweep", "--scenario", "square-with-center", "--from", "2", "--to", "1"]
        assert main(args + ["--step", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: empty range")

    @pytest.mark.parametrize(
        "positions",
        [[["a", 0], [1, 0], [0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
        ids=["string-coordinate", "three-coordinates"],
    )
    def test_malformed_custom_config_exit_2(self, positions, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"positions": positions, "circulations": [1.0, 1.0, 1.0]}))
        assert main(["analyze", "--scenario", "custom", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: positions must be [x, y] pairs")

    @pytest.mark.parametrize("times", [("1", "0"), ("-1", "0.1")], ids=["dt-0", "t-end-negative"])
    def test_integrate_time_not_positive_exit_2(self, times, capsys):
        args = ["integrate", "--scenario", "triangle-with-center", "--gamma", "0.5"]
        assert main(args + ["--t-end", times[0], "--dt", times[1]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: t_end and dt must be positive and finite")

    def test_integrate_under_half_a_step_exit_2(self, capsys):
        # round(0.1 / 0.3) = 0 steps: no trajectory, not a one-row CSV
        args = ["integrate", "--scenario", "triangle-with-center", "--gamma", "0.5"]
        assert main(args + ["--t-end", "0.1", "--dt", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: t_end = 0.1 is under half a step of dt = 0.3")

    @pytest.mark.parametrize("perturb", ["nan", "inf"])
    def test_integrate_perturb_not_finite_exit_2(self, perturb, capsys):
        args = ["integrate", "--scenario", "triangle-with-center", "--gamma", "0.5"]
        assert main(args + ["--t-end", "1", "--dt", "0.1", "--perturb", perturb]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"invalid input: --perturb must be finite, got {perturb}")

    @pytest.mark.parametrize(
        "times", [("1e12", "1e-3"), ("1e300", "1e-10")], ids=["beyond-memory", "beyond-float"]
    )
    def test_integrate_too_many_steps_exit_2(self, times, capsys):
        args = ["integrate", "--scenario", "triangle-with-center", "--gamma", "0.5"]
        assert main(args + ["--t-end", times[0], "--dt", times[1]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid input: ") and " steps" in err

    @pytest.mark.parametrize("where", ["directory", "missing"])
    def test_unreadable_config_exit_2(self, where, tmp_path, capsys):
        path = tmp_path if where == "directory" else tmp_path / "no-such.json"
        assert main(["analyze", "--scenario", "custom", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: cannot read config {path}")

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--scenario", "triangle-with-center", "--gamma", "0.5"],
            ["sweep", "--scenario", "triangle-with-center", "--from", "0.5", "--to", "0.5",
             "--step", "0.1"],
            ["integrate", "--scenario", "triangle-with-center", "--gamma", "0.5",
             "--t-end", "0.01", "--dt", "0.01"],
        ],
        ids=["analyze", "sweep", "integrate"],
    )
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exit_2(self, command, where, tmp_path, capsys):
        path = tmp_path if where == "directory" else tmp_path / "no-such" / "out"
        assert main(command + ["--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"invalid input: cannot write {path}")

    def test_value_error_of_a_computation_is_not_invalid_input(self, monkeypatch):
        # only the typed input errors exit 2; a ValueError raised while the
        # certificate runs is a fault and propagates
        def failing(*args, **kwargs):
            raise ValueError("restricted Hessian asymmetric")

        monkeypatch.setattr("vortexstab.cli.analyze", failing)
        with pytest.raises(ValueError, match="restricted Hessian asymmetric"):
            main(["analyze", "--scenario", "triangle-with-center", "--gamma", "0.5"])

    def test_check_has_no_suite_option(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["check", "--suite", "reference"])

    def test_unknown_scenario_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--scenario", "hexagon"])
        assert exc.value.code == 2

    def test_custom_non_equilibrium_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "positions": [[0.0, 0.0], [1.0, 0.0], [2.5, 1.0]],
                    "circulations": [1.0, 1.0, 1.0],
                }
            )
        )
        assert main(["analyze", "--scenario", "custom", "--config", str(cfg)]) == 2

    def test_readme_custom_config_certified(self, tmp_path, capsys):
        # the custom config shown in README.md
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"positions": [[1.0, 0.0], [-0.5, 0.8660254037844386], '
            '[-0.5, -0.8660254037844386]],\n "circulations": [1.0, 1.0, 1.0]}'
        )
        assert main(["analyze", "--scenario", "custom", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "certified-stable"

    def test_large_circulations_exit_documented_code(self, tmp_path, capsys):
        # square-with-center gamma = 1 with every circulation x1e4: the reduced
        # field must stay skew-Hermitian at this scale
        scen = build_scenario("square-with-center", gamma=1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "positions": [[p.real, p.imag] for p in scen.positions],
                    "circulations": [1e4 * g for g in scen.circ.gammas],
                }
            )
        )
        code = main(["analyze", "--scenario", "custom", "--config", str(cfg)])
        assert code in (0, 2, 3)
        if code == 0:
            assert json.loads(capsys.readouterr().out)["verdict"] in (
                "certified-stable",
                "linearly-unstable",
                "inconclusive",
            )

    def test_missing_config_exit_2(self):
        assert main(["analyze", "--scenario", "custom", "--config", "/no/such.json"]) == 2

    def test_analyze_out_file(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            [
                "analyze",
                "--scenario",
                "square-with-center",
                "--gamma",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["scenario_name"].startswith("square")

    def test_analyze_byte_identical(self, tmp_path):
        args = ["analyze", "--scenario", "triangle-with-center", "--gamma", "-1.0"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_out_holds_the_printed_report(self, tmp_path, capsys):
        args = ["analyze", "--scenario", "triangle-with-center", "--gamma", "-1.0"]
        out = tmp_path / "report.json"
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() + "\n" == printed

    def test_sweep_csv(self, capsys):
        code = main(
            [
                "sweep",
                "--scenario",
                "triangle-with-center",
                "--from",
                "0.2",
                "--to",
                "0.6",
                "--step",
                "0.2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == SWEEP_CSV_HEADER
        assert len(lines) == 4

    def test_integrate_csv(self, capsys):
        code = main(
            [
                "integrate",
                "--scenario",
                "triangle-with-center",
                "--gamma",
                "0.5",
                "--t-end",
                "0.1",
                "--dt",
                "0.01",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,coord_0")
        assert len(lines) == 12

    def test_entry_point_installed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "vortexstab.cli", "--help"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout
