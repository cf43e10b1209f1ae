"""Golden outputs: 24 CLI calls on the bundled sample data, recorded once.

``tests/golden/sample_matrix.json`` holds the exit code and the parsed
``--format json`` output of every call in :data:`CALLS`. Values must
agree to 1e-10 relative. ``verify`` checks are compared by name and
PASS/FAIL only, because their bounds carry finite-difference noise, and
the residual fields are not compared at all, for the same reason.

The file is rewritten only when an output change is intended, from the
repository root:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_golden; test_golden.regenerate()"
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from curvehedge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "sample_matrix.json"
CURVE = ROOT / "sample_data" / "curve.csv"
LIABILITIES = ROOT / "sample_data" / "liabilities.csv"

REL_TOL = 1e-10

#: fields that are residuals of two noisy estimates, not results
SKIPPED_FIELDS = frozenset(("max_first_order_residual", "rel_residual"))

SPECS = {
    "M1": {"kind": "M1", "tau": 10.0, "ufr": 0.042},
    "M2": {"kind": "M2", "tau": 10.0},
    "M3": {"kind": "M3", "tau": 10.0, "ufr": 0.042},
    "M4": {"kind": "M4", "tau": 10.0},
    "M5_SFSA": {"kind": "M5_SFSA", "tau": 10.0, "ufr": 0.042, "kappa": 20.0},
    "M6_SW_continuous": {"kind": "M6_SW_continuous", "tau": 10.0, "ufr": 0.042, "alpha": 0.1},
    "M6_SW_discrete": {"kind": "M6_SW_discrete", "tau": 10.0, "ufr": 0.042, "alpha": 0.1},
}
CLOSED_FORM_KINDS = ("M1", "M2", "M3", "M4", "M5_SFSA", "M6_SW_continuous")
UFR_KINDS = ("M1", "M2", "M3", "M5_SFSA", "M6_SW_continuous")


def _calls():
    calls = {}
    for kind, spec in SPECS.items():
        method = ["--method", json.dumps(spec), "--format", "json"]
        curve = ["--curve", str(CURVE)]
        liabilities = curve + ["--liabilities", str(LIABILITIES)] + method
        suite = ["--shifts", "3", "--seed", "7"]
        calls[f"extrapolate/{kind}"] = ["extrapolate"] + curve + method + ["--step", "5"]
        if kind in CLOSED_FORM_KINDS:
            calls[f"hedge/{kind}"] = ["hedge"] + liabilities + suite
            calls[f"verify/{kind}"] = ["verify"] + liabilities + suite
        if kind in UFR_KINDS:
            calls[f"sensitivity/{kind}"] = ["sensitivity"] + liabilities + suite
    return calls


CALLS = _calls()


def run_call(argv):
    """Exit code and parsed stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "output": json.loads(out.getvalue())}


def regenerate():
    """Rewrite the golden file from the current code."""
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    records = {name: run_call(argv) for name, argv in CALLS.items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


def _compare(got, want, path):
    """Paths where ``got`` differs from ``want`` beyond the golden tolerance."""
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return [
            diff
            for key in sorted(want)
            if key not in SKIPPED_FIELDS
            for diff in _compare(got[key], want[key], f"{path}.{key}")
        ]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        close = abs(got - want) <= REL_TOL * max(abs(got), abs(want))
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _verify_verdicts(output):
    return output["ok"], [(c["name"], c["ok"]) for c in output["checks"]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_call(golden):
    assert sorted(golden) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_matches_golden(golden, name):
    got = run_call(CALLS[name])
    want = golden[name]
    assert got["exit"] == want["exit"]
    if name.startswith("verify/"):
        assert _verify_verdicts(got["output"]) == _verify_verdicts(want["output"])
    else:
        assert _compare(got["output"], want["output"], name) == []
