import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vortexstab.algebra import Regime
from vortexstab.cli import main, make_parser
from vortexstab.errors import ExcludedParameter, NotAFixedPoint, UnsupportedScenario
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

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedScenario):
            build_scenario("pentagram")

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


class TestReport:
    def test_json_round_trip_lossless(self):
        scen = build_scenario("triangle-with-center", gamma=0.5)
        rep = analyze(scen)
        back = report_from_json(report_to_json(rep))
        assert back == rep

    def test_report_fields(self):
        scen = build_scenario("square-with-center", gamma=1.0)
        rep = analyze(scen, with_drift=True, drift_t_end=1.0)
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
            "casimir_subset", "fixed_point", "fixed_point_residual", "spectrum", "verdict",
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

    def test_empty_sweep_header_only(self):
        table = gamma_sweep("triangle-with-center", 0.0, 0.0, 1.0)
        assert list(table.rows) == []
        assert sweep_to_csv(table).strip() == ",".join(SWEEP_CSV_HEADER)


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

    def test_invalid_gamma_exit_2(self, capsys):
        code = main(["analyze", "--scenario", "triangle-with-center", "--gamma", "0"])
        assert code == 2

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
        proc = subprocess.run(
            [sys.executable, "-m", "vortexstab.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout
