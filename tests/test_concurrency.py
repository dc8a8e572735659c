"""Certificates run at once in several threads: the library keeps no
module-level state that one call writes and another reads."""

import ast
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

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
