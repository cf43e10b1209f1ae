"""Byte-exact golden outputs of the dense sampling and scanning calls.

``tests/golden/extrapolate_sha256.json`` holds, for every call in
:data:`CALLS`, the exit code and the SHA-256 of its standard output. The
calls are ``extrapolate --step 0.05`` on the bundled sample data for the
seven kinds and the two calibrated Smith-Wilson specs, each in json, csv
and table; the same for two defective discrete Smith-Wilson fits (exit
2), one of which has nonpositive discount factors, so its undefined
yields and forwards render as ``null`` or ``nan``;
``scan-arbitrage --step 0.002`` for the seven kinds, the two calibrated
Smith-Wilson specs and a defective continuous Smith-Wilson spec, whose
forwards turn negative and whose discount factor turns nonpositive, and
for the two defective discrete fits;
and ``hedge`` and ``verify`` with ``--shifts 3 --seed 7`` for the six
closed-form kinds on the bundled sample data, in json and table, plus
``hedge`` in csv, and in json for ``M2`` and ``M5_SFSA`` with an
``offset`` of 0.001, whose market curve is shifted by a constant before
it is extrapolated and perturbed; and ``verify --format json`` with
``--shifts 20 --seed 7`` for ``M2``, ``M5_SFSA`` and
``M6_SW_continuous``, whose many eps-ladders pin the stacked pricing of
each shift; and ``sensitivity`` in json and table for ``M1``, ``M2``,
``M3``, ``M5_SFSA`` and ``M6_SW_continuous`` on the bundled sample data,
and for three continuous Smith-Wilson specs whose ufr lies below f(tau):
two without a lower bound and the defective one (exit 2).
Unlike ``test_golden.py`` these compare bytes, so a change to number
formatting, row order or whitespace fails them.

The file is rewritten only when an output change is intended, from the
repository root:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_golden_bytes; test_golden_bytes.regenerate()"
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from curvehedge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "extrapolate_sha256.json"
CURVE = ROOT / "sample_data" / "curve.csv"
LIABILITIES = ROOT / "sample_data" / "liabilities.csv"
#: defective discrete Smith-Wilson fits: one bond at 10 years with a zero
#: yield (negative forwards, as in ``test_io_cli.py``'s
#: ``test_defective_discrete_fit_exits_2``), and a steep curve whose
#: discount factor turns negative (undefined yields and forwards)
DEFECTIVE_CURVES = {
    "bond": ROOT / "tests" / "golden" / "bond_curve.csv",
    "steep": ROOT / "tests" / "golden" / "steep_curve.csv",
}

SPECS = {
    "M1": {"kind": "M1", "tau": 10.0, "ufr": 0.042},
    "M2": {"kind": "M2", "tau": 10.0},
    "M3": {"kind": "M3", "tau": 10.0, "ufr": 0.042},
    "M4": {"kind": "M4", "tau": 10.0},
    "M5_SFSA": {"kind": "M5_SFSA", "tau": 10.0, "ufr": 0.042, "kappa": 20.0},
    "M6_SW_continuous": {"kind": "M6_SW_continuous", "tau": 10.0, "ufr": 0.042, "alpha": 0.1},
    "M6_SW_discrete": {"kind": "M6_SW_discrete", "tau": 10.0, "ufr": 0.042, "alpha": 0.1},
    "M6_SW_continuous+calibrated": {
        "kind": "M6_SW_continuous", "tau": 10.0, "ufr": 0.042, "kappa": 20.0, "epsilon": 1e-4,
    },
    "M6_SW_discrete+calibrated": {
        "kind": "M6_SW_discrete", "tau": 10.0, "ufr": 0.042, "kappa": 20.0, "epsilon": 1e-4,
    },
}
#: a continuous Smith-Wilson spec whose discount factor turns negative on
#: the sample data: a slow alpha and a UFR well below f(tau) = 0.0322
DEFECTIVE_CONTINUOUS = {"kind": "M6_SW_continuous", "tau": 10.0, "ufr": 0.005, "alpha": 0.01}
FORMATS = ("json", "csv", "table")
CLOSED_FORM_KINDS = ("M1", "M2", "M3", "M4", "M5_SFSA", "M6_SW_continuous")
#: output formats of the liability commands, by command
LIABILITY_FORMATS = {"hedge": ("json", "table", "csv"), "verify": ("json", "table")}
#: kinds whose liability commands also run with a constant offset
OFFSET_KINDS = ("M2", "M5_SFSA")
#: kinds whose ``verify`` also runs on a suite of 20 shifts
LONG_VERIFY_KINDS = ("M2", "M5_SFSA", "M6_SW_continuous")
#: kinds whose ``sensitivity`` runs on the sample data
SENSITIVITY_KINDS = ("M1", "M2", "M3", "M5_SFSA", "M6_SW_continuous")
#: continuous Smith-Wilson specs with a ufr below f(tau) = 0.0322, whose
#: ``sensitivity`` reports no lower bound, or, for the defective spec,
#: whose discount factor is negative at the flow's last time, exits 2
BELOW_F_TAU = {
    "M6_SW_continuous+negative-ufr": {"kind": "M6_SW_continuous", "tau": 10.0, "ufr": -0.0066, "alpha": 0.042},
    "M6_SW_continuous+slow": {"kind": "M6_SW_continuous", "tau": 10.0, "ufr": 0.0259, "alpha": 0.007},
    "M6_SW_continuous+defective": DEFECTIVE_CONTINUOUS,
}


def _calls():
    calls = {}
    for name, spec in SPECS.items():
        method = ["--curve", str(CURVE), "--method", json.dumps(spec)]
        for fmt in FORMATS:
            calls[f"extrapolate-{fmt}/{name}"] = (
                ["extrapolate"] + method + ["--step", "0.05", "--format", fmt]
            )
    for name, spec in dict(SPECS, **{"M6_SW_continuous+defective": DEFECTIVE_CONTINUOUS}).items():
        calls[f"scan-arbitrage/{name}"] = [
            "scan-arbitrage", "--curve", str(CURVE), "--method", json.dumps(spec),
            "--step", "0.002", "--format", "json",
        ]
    for name, curve in DEFECTIVE_CURVES.items():
        method = ["--curve", str(curve), "--method", json.dumps(SPECS["M6_SW_discrete"])]
        for fmt in FORMATS:
            calls[f"extrapolate-{fmt}/defective-{name}"] = (
                ["extrapolate"] + method + ["--step", "0.05", "--scan-step", "0.01", "--format", fmt]
            )
        calls[f"scan-arbitrage/defective-{name}"] = (
            ["scan-arbitrage"] + method + ["--step", "0.002", "--format", "json"]
        )
    for kind in CLOSED_FORM_KINDS:
        liabilities = [
            "--curve", str(CURVE), "--liabilities", str(LIABILITIES),
            "--method", json.dumps(SPECS[kind]), "--shifts", "3", "--seed", "7",
        ]
        for command, formats in LIABILITY_FORMATS.items():
            for fmt in formats:
                calls[f"{command}-{fmt}/{kind}"] = [command] + liabilities + ["--format", fmt]
    for kind in OFFSET_KINDS:
        spec = dict(SPECS[kind], offset=0.001)
        for command in LIABILITY_FORMATS:
            calls[f"{command}-json/{kind}+offset"] = [
                command, "--curve", str(CURVE), "--liabilities", str(LIABILITIES),
                "--method", json.dumps(spec), "--shifts", "3", "--seed", "7", "--format", "json",
            ]
    for kind in LONG_VERIFY_KINDS:
        calls[f"verify-json-20/{kind}"] = [
            "verify", "--curve", str(CURVE), "--liabilities", str(LIABILITIES),
            "--method", json.dumps(SPECS[kind]), "--shifts", "20", "--seed", "7", "--format", "json",
        ]
    for name, spec in dict({kind: SPECS[kind] for kind in SENSITIVITY_KINDS}, **BELOW_F_TAU).items():
        for fmt in ("json", "table"):
            calls[f"sensitivity-{fmt}/{name}"] = [
                "sensitivity", "--curve", str(CURVE), "--liabilities", str(LIABILITIES),
                "--method", json.dumps(spec), "--format", fmt,
            ]
    return calls


CALLS = _calls()


def run_call(argv):
    """Exit code and SHA-256 of the standard output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def regenerate():
    """Rewrite the golden file from the current code."""
    records = {name: run_call(argv) for name, argv in CALLS.items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_call(golden):
    assert sorted(golden) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_matches_golden_bytes(golden, name):
    assert run_call(CALLS[name]) == golden[name]
