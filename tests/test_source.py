"""Lint of the package source with ``ast`` alone: no unused import, no
private definition that the package never names, and no line longer than
100 characters."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vortexstab").glob("*.py"))
MAX_LINE = 100


def imported_names(tree):
    """The names an import statement of the module binds, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it does not use: {unused}"


def test_every_private_definition_is_referenced():
    # a reference is a name, an attribute, an imported name or a string
    # constant: LocalModel.take names the cached properties it slices by string
    defined, referenced = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unused = [d for d in defined if d[1] not in referenced]
    assert unused == [], f"private definitions that nothing in the package names: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text().splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name} has lines over {MAX_LINE} characters: {long}"


# decompositions the certificate does without: its ranks come from one QR of
# a 1 x (2n - 1) block and its multipliers in closed form
FORBIDDEN_LINALG = {"pinv", "svd", "lstsq", "det", "inv", "matrix_rank"}


def dotted_name(node):
    """a.b.c for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def resolved_names(tree):
    """Each name, attribute chain or import of the module as the dotted name
    it stands for, with its line: every name the module binds to a module
    is resolved, so an alias or a from-import does not hide a use."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield f"{node.module}.{alias.name}", node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node)
            if name is not None:
                head, _, rest = name.partition(".")
                yield ".".join(filter(None, [modules.get(head, head), rest])), node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_pseudo_inverse_svd_or_lstsq(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for full, line in resolved_names(tree):
        module, _, attr = full.rpartition(".")
        if module == "numpy.linalg" and attr in FORBIDDEN_LINALG:
            found.append((full, line))
    assert found == [], f"{path.name} names numpy.linalg routines it must not: {found}"


def private_numpy_uses(source):
    """The uses of a private part of numpy (a module or name with a leading
    underscore, such as numpy.linalg._umath_linalg or numpy._core) that a
    module's source makes, by import or attribute, with their lines."""
    found = set()
    for full, line in resolved_names(ast.parse(source)):
        parts = full.split(".")
        if parts[0] == "numpy" and any(
            p.startswith("_") and not p.endswith("__") for p in parts[1:]
        ):
            found.add((full, line))
    return sorted(found, key=lambda use: use[1])


def test_the_numpy_lint_sees_each_way_in():
    source = """
import numpy as np
import numpy._core
from numpy.linalg import _umath_linalg
from numpy import linalg as la
from numpy._core import multiarray
np.linalg._umath_linalg.inv
la._linalg.solve
np.__version__, np.linalg.solve
"""
    assert sorted({line for _, line in private_numpy_uses(source)}) == [3, 4, 6, 7, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_numpy_module_is_used(path):
    # the runtime takes numpy >= 1.24 and nothing else: numpy's private
    # modules and their names move between its releases, so the package
    # goes through the public functions, wrappers and all
    uses = private_numpy_uses(path.read_text())
    assert uses == [], f"{path.name} uses private parts of numpy: {uses}"
