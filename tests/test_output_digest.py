"""``tools/output_digest.py``'s report of how far a ``close`` output moved."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digest  # noqa: E402


def test_largest_change_names_its_path():
    want = {"plan": {"densities": [{"rate": 1.0}, {"rate": 2.0}], "kind": "x"}, "ok": True, "n": 3}
    got = {"plan": {"densities": [{"rate": 1.0 + 2e-16}, {"rate": 2.0 - 4e-15}], "kind": "x"}, "ok": True, "n": 3}
    assert output_digest.largest_change(got, want) == (abs(2.0 - 4e-15 - 2.0) / 2.0, "plan.densities[1].rate")


def test_no_change_reads_zero():
    record = {"rows": [[0.0, -1.5], [2.0, None]], "flag": False}
    assert output_digest.largest_change(record, record)[0] == 0.0
