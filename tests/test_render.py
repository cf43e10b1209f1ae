"""Column-wise rendering of sample tables against the per-row forms it replaced.

``extrapolate`` used to build one list per sample row and one dict per
JSON row, with ``np.float64`` cells; :func:`_per_row_payload` and
:func:`_per_cell_csv` keep those forms as the reference. The column-wise
renderers must match them byte for byte on every float, including NaN,
infinities, -0.0, subnormals and the extremes of the range.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehedge.io import Columns, render_csv, render_json, render_table

HEADERS = ("t", "zero_yield", "forward", "discount")
SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308)

finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]), st.floats(allow_nan=False, allow_infinity=False))
anything = st.one_of(st.sampled_from(SPECIALS), st.floats())
rows_strategy = st.lists(st.tuples(finite, anything, anything, anything), min_size=1, max_size=40)


def _cell(x):
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _rows(columns):
    """The sample rows as ``extrapolate`` built them: float t, np.float64 values."""
    ts, zbar, fbar, dbar = columns
    return [[float(t), z, f, d] for t, z, f, d in zip(ts, zbar, fbar, dbar)]


def _per_row_payload(columns, method, defects):
    clean = lambda x: float(x) if np.isfinite(x) else None
    return {
        "method": method,
        "samples": [
            {h: (clean(v) if h != "t" else v) for h, v in zip(HEADERS, row)}
            for row in _rows(columns)
        ],
        "defects": defects,
    }


def _per_cell_csv(headers, rows):
    out = [",".join(headers)]
    for row in rows:
        out.append(",".join(_cell(x) for x in row))
    return "\n".join(out) + "\n"


def _columns(rows):
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


METHOD = {"kind": "M6_SW_discrete", "tau": 10.0, "ufr": 0.042, "alpha": 0.1, "offset": -0.0}
DEFECTS = [{"kind": "negative_forward", "start": 10.25, "end": 200.0}]


def _check(columns, defects):
    payload = {"method": METHOD, "samples": Columns(HEADERS, columns), "defects": defects}
    want = json.dumps(_per_row_payload(columns, METHOD, defects), sort_keys=True, indent=2) + "\n"
    assert render_json(payload) == want
    table = Columns(HEADERS, columns)
    assert render_csv(HEADERS, table) == _per_cell_csv(HEADERS, _rows(columns))
    assert render_table(HEADERS, table) == render_table(HEADERS, _rows(columns))


@settings(max_examples=150)
@given(rows=rows_strategy, clean=st.booleans())
def test_column_wise_equals_per_row(rows, clean):
    _check(_columns(rows), [] if clean else DEFECTS)


def test_many_rows_with_every_special_value():
    rng = np.random.default_rng(11)
    n = 4001
    ts = np.arange(n) * 0.05
    zbar = rng.normal(0.03, 0.01, n)
    values = [zbar, zbar + rng.normal(0.0, 0.01, n), np.exp(-zbar * ts)]
    for col in values:
        where = rng.choice(n, size=400, replace=False)
        col[where] = rng.choice(SPECIALS, size=where.size)
    _check((ts, *values), DEFECTS)


# a small pool, so that a cell often repeats the one before it
pooled = st.sampled_from(SPECIALS + (0.042, 0.042 + 2**-57))


@settings(max_examples=150)
@given(rows=st.lists(st.tuples(finite, pooled, pooled, pooled), min_size=1, max_size=40))
def test_runs_of_equal_cells(rows):
    _check(_columns(rows), DEFECTS)


def test_runs_keep_signed_zeros_and_nan_bits_apart():
    """Runs are of cells equal bit for bit: 0.0 and -0.0, or two NaNs of
    different bits, are not one run, and every non-finite cell is null."""
    other_nan = np.array([0x7FF8000000000001]).view(float)[0]
    col = np.array(
        [0.0, 0.0, -0.0, -0.0, np.nan, other_nan, np.nan, 0.042, 0.042, 0.042, -0.0, np.inf, np.inf]
    )
    _check((np.arange(col.size) * 0.05, col, col[::-1].copy(), np.full(col.size, 0.042)), [])


def test_one_row():
    _check(tuple(np.array([x]) for x in (0.0, np.nan, -0.0, 1e308)), [])


def test_payload_without_columns_is_plain_json():
    payload = {"b": [1, 2.5, None], "a": {"y": "s", "x": float("nan")}}
    assert render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_ragged_rows_render_per_cell():
    rows = [["lump", 12.0, 0.75], ["density", 12.0, 14.0, 0.012345678912345]]
    assert render_csv(["kind", "a", "b", "c"], rows) == (
        "kind,a,b,c\nlump,12,0.75\ndensity,12,14,0.01234567891\n"
    )
