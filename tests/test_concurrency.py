"""Certificates run at once in several threads: the library keeps no
module-level state that one call writes and another reads."""

import ast
import dataclasses
import enum
import functools
import importlib
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from vortexstab.algebra import Circulations
from vortexstab.dynamics import Which
from vortexstab.report import gamma_sweep, sweep_to_csv

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vortexstab").glob("*.py"))
FAMILIES = (("triangle-with-center", -5.0, 2.0), ("square-with-center", -1.5, 3.0))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_rebinds_a_global(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name} has global statements at lines {lines}"


def test_concurrent_sweeps_equal_serial_ones():
    def sweep(kind, lo, hi):
        return sweep_to_csv(gamma_sweep(kind, lo, hi, 0.05))

    serial = [sweep(*family) for family in FAMILIES]
    start = threading.Barrier(len(FAMILIES))

    def together(family):
        start.wait()
        return sweep(*family)

    with ThreadPoolExecutor(max_workers=len(FAMILIES)) as pool:
        for _ in range(3):
            assert list(pool.map(together, FAMILIES)) == serial


NONZERO_TOTAL, ZERO_TOTAL = Circulations((1.0, 2.0, 3.0)), Circulations((1.0, 2.0, -3.5, 0.5))
# representative keys of every memo of the package, by module and name
MEMO_KEYS = {
    "algebra.pair_indices": [(3,)],
    "algebra.coordinate_basis": [(3,)],
    "algebra._gathers": [(3,)],
    "algebra._one_coupling": [(NONZERO_TOTAL,), (ZERO_TOTAL,)],
    "hamiltonian._distance_pairs": [(4,)],
    "hamiltonian._vertex_columns": [(3, False), (3, True)],
    "hamiltonian.reduced_system": [(NONZERO_TOTAL,), (ZERO_TOTAL,)],
    "constraints.constraint_system": [(3,)],
    "constraints._upper_triangle": [(3,)],
    "dynamics._right_hand_side": [(NONZERO_TOTAL, which) for which in Which],
    "localmodel._directions": [(3,)],
    "localmodel._slot_plans": [(1,), (3,)],
    "scenarios._polygon_vertices": [(3,)],
    "criteria._paired_runs": [()],
}
IMMUTABLE = (str, bytes, int, float, complex, type(None), enum.Enum, np.generic)


def memos():
    """Every lru_cache a module of the package defines, by module and name."""
    for path in SOURCES:
        module = importlib.import_module(f"vortexstab.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                yield f"{path.stem}.{name}", value


def writable_parts(value, where):
    """The places under ``value`` that a caller could write: writable arrays,
    and containers other than tuples and frozen dataclasses; the attributes
    of other objects are followed, their cached properties evaluated."""
    if isinstance(value, np.ndarray):
        return [where] if value.flags.writeable else []
    if isinstance(value, IMMUTABLE):
        return []
    if isinstance(value, tuple):
        parts = enumerate(value)
    elif dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        parts = vars(value).items()
    elif isinstance(value, (list, dict, set, bytearray)) or dataclasses.is_dataclass(value):
        return [where]
    else:
        kinds = vars(type(value)).items()
        cached = [k for k, kind in kinds if isinstance(kind, functools.cached_property)]
        parts = [(name, getattr(value, name)) for name in [*vars(value), *cached]]
    return [p for key, part in parts for p in writable_parts(part, f"{where}.{key}")]


def test_every_memo_has_a_representative_key():
    assert sorted(name for name, _ in memos()) == sorted(MEMO_KEYS)


@pytest.mark.parametrize("name", sorted(MEMO_KEYS))
def test_memos_hand_out_read_only_values(name):
    memo = dict(memos())[name]
    for key in MEMO_KEYS[name]:
        assert writable_parts(memo(*key), f"{name}{key}") == []
