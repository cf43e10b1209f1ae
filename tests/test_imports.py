"""Every module of the package reads what it imports."""

import ast
import pathlib

from curvehedge import curves as curves_module

#: modules whose imports are the package's names for its users
RE_EXPORTS = {"__init__.py"}


def _unused_imports(tree) -> list:
    """(line, name) for every name that ``tree`` imports and never reads,
    as a name or as the base of an attribute; ``__future__`` imports are
    compiler directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    package = pathlib.Path(curves_module.__file__).parent
    offences = {}
    for path in sorted(package.glob("*.py")):
        if path.name in RE_EXPORTS:
            continue
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            offences[path.name] = found
    assert offences == {}


def test_import_guard_sees_every_form():
    snippet = """
from __future__ import annotations
import math
import numpy as np
import os.path
from .curves import CashFlow, present_value as pv
from .errors import DomainError
def f(x) -> CashFlow:
    return np.exp(x) + os.sep
"""
    assert _unused_imports(ast.parse(snippet)) == [(3, "math"), (6, "pv"), (7, "DomainError")]
