"""The method table: one entry per kind, and the only place that tells kinds apart."""

import ast
import json
import pathlib

import numpy as np
import pytest

import curvehedge
from curvehedge import MethodSpec, extrapolate, hedge, ufr_sensitivity
from curvehedge.cli import main
from curvehedge.errors import DomainError
from curvehedge.io import read_cash_flow, read_curve
from curvehedge.methods import ALL_KINDS, METHODS, PLAN_FIRST_ORDER, PLAN_INFEASIBLE, PLAN_PERFECT

SAMPLE = pathlib.Path(__file__).resolve().parents[1] / "sample_data"

#: a spec of each kind on the sample data, its plan kind (None: no plan) and
#: whether it has a UFR sensitivity
CASES = {
    "M1": ('{"kind":"M1","tau":10,"ufr":0.042}', PLAN_PERFECT, True),
    "M2": ('{"kind":"M2","tau":10}', PLAN_FIRST_ORDER, True),
    "M3": ('{"kind":"M3","tau":10,"ufr":0.042}', PLAN_PERFECT, True),
    "M4": ('{"kind":"M4","tau":10}', PLAN_INFEASIBLE, False),
    "M5_SFSA": ('{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}', PLAN_FIRST_ORDER, True),
    "M6_SW_continuous": ('{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":0.1}', PLAN_INFEASIBLE, True),
    "M6_SW_discrete": ('{"kind":"M6_SW_discrete","tau":10,"ufr":0.042,"alpha":0.1}', None, False),
}


def test_one_entry_per_kind():
    assert set(CASES) == set(ALL_KINDS) == set(METHODS)
    assert len({type(method) for method in METHODS.values()}) == len(ALL_KINDS)
    assert all(METHODS[kind].kind == kind for kind in ALL_KINDS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_entry_facts(kind, capsys):
    """Each entry's plan and UFR sensitivity are the documented per-method results."""
    method_json, plan_kind, has_ufr = CASES[kind]
    spec = MethodSpec.from_json(json.loads(method_json))
    assert spec.method is METHODS[kind] and spec.method.plan_kind == plan_kind
    curve, flow = read_curve(str(SAMPLE / "curve.csv")), read_cash_flow(str(SAMPLE / "liabilities.csv"))
    if plan_kind is None:
        with pytest.raises(DomainError, match="no hedge construction"):
            hedge(extrapolate(curve, spec), flow)
        for command in ("hedge", "verify", "sensitivity"):
            code = main([
                command,
                "--curve", str(SAMPLE / "curve.csv"),
                "--liabilities", str(SAMPLE / "liabilities.csv"),
                "--method", method_json,
                "--shifts", "2",
            ])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", command
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert hedge(extrapolate(curve, spec), flow).kind == plan_kind
    if has_ufr:
        assert np.isfinite(ufr_sensitivity(extrapolate(curve, spec), flow).S)
    else:
        assert spec.method.no_ufr
        with pytest.raises(DomainError, match=spec.method.no_ufr):
            ufr_sensitivity(extrapolate(curve, spec), flow)


#: the names of the kind constants and of the kind lists the layers once kept
KIND_NAMES = {
    "M1", "M2", "M3", "M4", "M5_SFSA", "M6_SW_CONTINUOUS", "M6_SW_DISCRETE",
    "ALL_KINDS", "_UFR_KINDS", "_SW_KINDS", "UNHEDGEABLE_KINDS",
}


def _names_a_kind(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(element) for element in node.elts)
    if isinstance(node, ast.Name):
        return node.id in KIND_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in KIND_NAMES
    return isinstance(node, ast.Constant) and node.value in ALL_KINDS


def kind_comparisons(package: pathlib.Path) -> list:
    """Every comparison with a kind constant, a kind name or a kind list in
    the package's modules other than the table, as ``module:line``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "methods.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(map(_names_a_kind, [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_table_tells_kinds_apart():
    """A fact that depends on the kind is an attribute or a method of its
    table entry, not a comparison in another layer."""
    assert kind_comparisons(pathlib.Path(curvehedge.__file__).parent) == []


def _builds_or_prices(node) -> bool:
    """Whether ``node`` imports from the extrapolation module or calls
    ``DiscountedFlow``."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or "", *(alias.name for alias in node.names if node.module is None)]
        return any(name.rpartition(".")[2] == "extrapolation" for name in names)
    if isinstance(node, ast.Import):
        return any(alias.name.rpartition(".")[2] == "extrapolation" for alias in node.names)
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == "DiscountedFlow"
    return False


def test_the_table_builds_no_curve_and_runs_no_pass():
    """An entry reads the rows of its caller's one pass: the table imports
    nothing from the extrapolation module, not even inside a function, and
    constructs no DiscountedFlow."""
    source = pathlib.Path(curvehedge.__file__).parent / "methods.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if _builds_or_prices(node)] == []


def test_guard_sees_deferred_imports_and_passes():
    snippet = """
def f():
    from .extrapolation import extrapolate
    from . import extrapolation
    import curvehedge.extrapolation
    return curves.DiscountedFlow(flow, curve), DiscountedFlow(flow, curve)
"""
    assert sum(map(_builds_or_prices, ast.walk(ast.parse(snippet)))) == 5


def _sample():
    return read_curve(str(SAMPLE / "curve.csv")), read_cash_flow(str(SAMPLE / "liabilities.csv"))


def test_discrete_fit_is_not_glued():
    """The discrete Smith-Wilson kind has no glued curve; ``extrapolate`` fits it."""
    curve, _ = _sample()
    spec = MethodSpec.from_json(json.loads(CASES["M6_SW_discrete"][0]))
    with pytest.raises(DomainError, match=r"extrapolate\(\)"):
        curvehedge.ExtrapolatedCurve(curve, spec)


def test_discrete_fit_has_no_variation():
    curve, flow = _sample()
    spec = MethodSpec.from_json(json.loads(CASES["M6_SW_discrete"][0]))
    shift = curvehedge.shift_suite(1, 7)[0]
    with pytest.raises(DomainError, match="directional formulas"):
        curvehedge.method_variation_pv(extrapolate(curve, spec), shift, flow)


@pytest.mark.parametrize("kind", ["M1", "M2", "M3", "M4", "M5_SFSA"])
def test_only_smith_wilson_is_defective(kind):
    """On a market whose forward at tau is far above the ufr, the
    Smith-Wilson curve is defective and no other kind is."""
    market = curvehedge.ForwardCurve.from_forwards([0.0, 5.0, 30.0], [0.10, 0.30, 0.30])
    steep = {"ufr": 0.042} if METHODS[kind].takes_ufr else {}
    if kind == "M5_SFSA":
        steep["kappa"] = 20.0
    assert extrapolate(market, MethodSpec(kind, tau=10.0, **steep)).is_defective is False
    sw = MethodSpec("M6_SW_continuous", tau=10.0, ufr=0.042, alpha=0.1)
    assert extrapolate(market, sw).is_defective is True
