"""Command line interface.

Subcommands: ``analyze`` (one scenario, JSON report), ``sweep`` (verdicts over
a gamma grid, CSV), ``integrate`` (reduced trajectory, CSV), and ``check``
(reference-value acceptance suite).  Exit codes: 0 means the computation
completed (whatever the verdict), 2 means the scenario or another input was
invalid (a step or time that is not positive and finite, a ``--gamma`` or
``--perturb`` that is not finite, an empty sweep range, a malformed custom
config, a ``--m``, ``--gamma`` or ``--config`` that the scenario kind does
not take), and 3 means an internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import flatten
from .dynamics import Which, integrate, trajectory_to_csv
from .errors import (
    ExcludedParameter,
    InvalidArgument,
    NotAFixedPoint,
    UnsupportedScenario,
    VortexStabError,
)
from .report import analyze, gamma_sweep, report_to_json, sweep_to_csv
from .scenarios import KINDS, build_scenario, scenario_fixed_point

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 2
EXIT_NUMERICAL_FAILURE = 3


def _finite_numbers(value, length: int | None = None) -> bool:
    """Whether a JSON value is a list of finite numbers (of the given length)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        return False
    try:
        return all(not isinstance(v, bool) and math.isfinite(v) for v in value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False


def _load_custom_config(path: str) -> dict:
    """Positions and circulations of a custom config file, raising
    InvalidArgument for a file that does not have their layout."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read config {path}: {exc}") from exc
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise InvalidArgument("a custom config is a JSON object with positions and circulations")
    positions, circulations = cfg.get("positions"), cfg.get("circulations")
    if not (isinstance(positions, list) and all(_finite_numbers(p, 2) for p in positions)):
        raise InvalidArgument(f"positions must be [x, y] pairs of finite numbers: {positions!r}")
    if not _finite_numbers(circulations):
        raise InvalidArgument(f"circulations must be finite numbers: {circulations!r}")
    return {
        "positions": tuple(complex(x, y) for x, y in positions),
        "circulations": tuple(circulations),
    }


def _write(path: str, write) -> None:
    """Open ``path`` for writing and hand the stream to ``write``, raising
    InvalidArgument when the file cannot be written."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc}") from exc


def _build(args) -> object:
    kwargs = {}
    if args.scenario == "custom":
        if not getattr(args, "config", None):
            raise UnsupportedScenario("custom scenarios need --config")
        kwargs.update(_load_custom_config(args.config))
    elif getattr(args, "config", None) is not None:
        raise InvalidArgument(f"--config is for the custom scenario, not {args.scenario}")
    return build_scenario(
        args.scenario,
        gamma=getattr(args, "gamma", None),
        m=getattr(args, "m", None),
        **kwargs,
    )


def _cmd_analyze(args) -> int:
    scenario = _build(args)
    report = analyze(scenario, with_drift=args.drift)
    text = report_to_json(report)
    if args.out:
        _write(args.out, lambda fh: fh.write(text))
    else:
        print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    table = gamma_sweep(
        args.scenario,
        getattr(args, "from"),
        args.to,
        args.step,
        m=getattr(args, "m", None),
    )
    text = sweep_to_csv(table)
    if args.out:
        _write(args.out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)
    for skip in table.skipped:
        print(f"skipped gamma={skip['gamma']}: {skip['note']}", file=sys.stderr)
    return EXIT_OK


def _cmd_integrate(args) -> int:
    if not math.isfinite(args.perturb):
        raise InvalidArgument(f"--perturb must be finite, got {args.perturb}")
    scenario = _build(args)
    mu0 = scenario_fixed_point(scenario)
    state = flatten(mu0)
    if args.perturb:
        # perturb in z-space so the state stays exactly rank one
        from .dynamics import RelativeCoordinates, moment_map, relative_coordinates

        rng = np.random.default_rng(args.seed)
        z = relative_coordinates(scenario.configuration).as_array()
        noise = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
        z = z + args.perturb * noise / np.linalg.norm(noise)
        state = flatten(moment_map(RelativeCoordinates(tuple(z))))
    traj = integrate(state, scenario.circ, t_end=args.t_end, dt=args.dt, which=Which.REDUCED)
    if traj.aborted:
        print(f"trajectory aborted: {traj.abort_reason}", file=sys.stderr)
    if args.out:
        _write(args.out, lambda fh: trajectory_to_csv(traj, fh))
    else:
        trajectory_to_csv(traj, sys.stdout)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .criteria import run_all

    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}  [{r.detail}]")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL_FAILURE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexstab",
        description="Stability certification for point-vortex relative equilibria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", required=True, choices=KINDS)
        p.add_argument("--gamma", type=float, default=None,
                       help="circulation of the center vortex")
        p.add_argument("--m", type=int, default=None,
                       help="vertex count for polygon-with-center")
        p.add_argument("--config", default=None,
                       help="JSON file with positions/circulations for custom")

    p = sub.add_parser("analyze", help="analyze one scenario and emit a JSON report")
    add_scenario_args(p)
    p.add_argument("--drift", action="store_true", help="include an invariant drift summary")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="sweep the center circulation and emit a CSV table")
    p.add_argument("--scenario", required=True, choices=KINDS)
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("integrate", help="integrate the reduced dynamics and emit CSV")
    add_scenario_args(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="size of a random rank-one-preserving perturbation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("check", help="run the reference-value acceptance suite")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgument as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except (ExcludedParameter, UnsupportedScenario, NotAFixedPoint, json.JSONDecodeError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except (VortexStabError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
