"""File formats: curves and cash flows as CSV or JSON, report rendering.

Curve CSV has a header ``t,zero_yield`` or ``t,forward`` with times
ascending; cash-flow CSV rows are ``lump,t,amount`` or
``density,a,b,rate``. The JSON equivalents use the same field names,
either as a list of row objects or (for curves) a columnar object.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .curves import CashFlow, ForwardCurve
from .errors import CurveHedgeError, InputFormatError
from .extrapolation import MethodSpec, is_number


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputFormatError("no such file", path=path)
    except OSError as exc:
        raise InputFormatError(exc.strerror or str(exc), path=path)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=path)


def _parse_json(text, path, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad {what}: {exc}", path=path)


def _floats(fields, path, line):
    try:
        return [float(x) for x in fields]
    except ValueError as exc:
        raise InputFormatError(str(exc), path=path, line=line)


def read_curve(path) -> ForwardCurve:
    """Load a curve from a ``.csv`` or ``.json`` file."""
    text = _read_text(path)
    if str(path).lower().endswith(".json"):
        mode, times, values = _curve_json_columns(_parse_json(text, path, "curve JSON"), path)
    else:
        mode, times, values = _curve_csv_columns(text, path)
    try:
        if mode == "zero_yield":
            return ForwardCurve.from_zero_yields(times, values)
        return ForwardCurve.from_forwards(times, values)
    except CurveHedgeError as exc:
        raise InputFormatError(str(exc), path=path)


def _curve_csv_columns(text, path):
    """The value column's name, the times and the values of a curve CSV."""
    rows = list(csv.reader(_io.StringIO(text)))
    rows = [r for r in rows if r and any(x.strip() for x in r)]
    if not rows:
        raise InputFormatError("empty curve file", path=path)
    header = [h.strip().lower() for h in rows[0]]
    if header == ["t", "zero_yield"]:
        mode = "zero_yield"
    elif header == ["t", "forward"]:
        mode = "forward"
    else:
        raise InputFormatError(
            "curve header must be 't,zero_yield' or 't,forward'", path=path, line=1
        )
    times, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise InputFormatError(f"expected 2 fields, got {len(row)}", path=path, line=i)
        t, v = _floats(row, path, i)
        times.append(t)
        values.append(v)
    return mode, times, values


def _curve_json_columns(data, path):
    """The value column's name, the times and the values of parsed curve JSON."""
    if isinstance(data, dict):
        times = data.get("t")
        if times is None:
            raise InputFormatError("curve object needs a 't' column", path=path)
        for mode in ("zero_yield", "forward"):
            if mode in data:
                values = data[mode]
                break
        else:
            raise InputFormatError("curve needs 'zero_yield' or 'forward' values", path=path)
    elif isinstance(data, list):
        if not data:
            raise InputFormatError("empty curve list", path=path)
        if not all(isinstance(row, dict) for row in data):
            raise InputFormatError("curve rows must be objects", path=path)
        mode = "zero_yield" if "zero_yield" in data[0] else "forward"
        try:
            times = [row["t"] for row in data]
            values = [row[mode] for row in data]
        except KeyError as exc:
            raise InputFormatError(f"bad curve row: {exc}", path=path)
    else:
        raise InputFormatError("curve JSON must be a list or an object", path=path)
    if not all(isinstance(col, list) and all(map(is_number, col)) for col in (times, values)):
        raise InputFormatError("curve times and values must be lists of numbers", path=path)
    return mode, times, values


def read_cash_flow(path) -> CashFlow:
    """Load a cash flow from a ``.csv`` or ``.json`` file."""
    text = _read_text(path)
    lumps, densities = [], []
    if str(path).lower().endswith(".json"):
        data = _parse_json(text, path, "cash-flow JSON")
        if not isinstance(data, list):
            raise InputFormatError("cash-flow JSON must be a list", path=path)
        for row in data:
            if not isinstance(row, dict):
                raise InputFormatError("cash-flow rows must be objects", path=path)
            if {"t", "amount"} <= set(row):
                fields, target = (row["t"], row["amount"]), lumps
            elif {"a", "b", "rate"} <= set(row):
                fields, target = (row["a"], row["b"], row["rate"]), densities
            else:
                raise InputFormatError(
                    "row needs fields (t, amount) or (a, b, rate)", path=path
                )
            if not all(map(is_number, fields)):
                raise InputFormatError(f"cash-flow fields must be numbers, got {fields}", path=path)
            target.append(fields)
    else:
        rows = list(csv.reader(_io.StringIO(text)))
        for i, row in enumerate(rows, start=1):
            if not row or not any(x.strip() for x in row):
                continue
            kind = row[0].strip().lower()
            if kind == "lump":
                if len(row) != 3:
                    raise InputFormatError("lump rows are 'lump,t,amount'", path=path, line=i)
                lumps.append(tuple(_floats(row[1:], path, i)))
            elif kind == "density":
                if len(row) != 4:
                    raise InputFormatError("density rows are 'density,a,b,rate'", path=path, line=i)
                densities.append(tuple(_floats(row[1:], path, i)))
            else:
                raise InputFormatError(f"unknown row kind {row[0]!r}", path=path, line=i)
    try:
        return CashFlow(lumps=tuple(lumps), densities=tuple(densities))
    except CurveHedgeError as exc:
        raise InputFormatError(str(exc), path=path)


def method_from_arg(arg: str) -> MethodSpec:
    """Parse a method spec from inline JSON or from '@path'."""
    if arg.startswith("@"):
        text = _read_text(arg[1:])
        path = arg[1:]
    else:
        text, path = arg, None
    data = _parse_json(text, path, "method JSON")
    if not isinstance(data, dict):
        raise InputFormatError("method JSON must be an object", path=path)
    return MethodSpec.from_json(data)


# ---- output rendering -------------------------------------------------------


class Columns:
    """A table of float columns under their headers, kept column-wise.

    Iterating yields its rows as tuples of floats, so every renderer
    takes it as ``rows``; :func:`render_json` and :func:`render_csv`
    format it column-wise, without building per-row objects.
    """

    __slots__ = ("headers", "arrays")

    def __init__(self, headers, arrays):
        self.headers = tuple(headers)
        self.arrays = tuple(np.asarray(a, dtype=float) for a in arrays)

    def __iter__(self):
        return zip(*(a.tolist() for a in self.arrays))


def render_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline.

    A :class:`Columns` value of the top-level object is written as the
    list of its rows as objects, with ``null`` for non-finite cells.
    """
    if not (isinstance(payload, dict) and any(isinstance(v, Columns) for v in payload.values())):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    items = [
        f"  {json.dumps(key)}: "
        + (_json_rows(value) if isinstance(value, Columns)
           else json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
        for key, value in sorted(payload.items())
    ]
    return "{\n" + ",\n".join(items) + "\n}\n"


def _json_rows(table) -> str:
    """``table`` as ``json.dumps`` writes its list of row objects one level deep."""
    # float.__str__ is float.__repr__, which json writes for a finite float
    cells = [a.tolist() for a in table.arrays]
    if not cells[0]:
        return "[]"
    for j, i in zip(*(idx.tolist() for idx in np.nonzero(~np.isfinite(table.arrays)))):
        cells[j][i] = "null"
    keys = sorted(range(len(table.headers)), key=table.headers.__getitem__)
    fields = ",\n".join(
        f"      {json.dumps(table.headers[j]).replace('%', '%%')}: %s" for j in keys
    )
    template = "    {\n" + fields + "\n    }"
    rows = map(template.__mod__, zip(*(cells[j] for j in keys)))
    return "[\n" + ",\n".join(rows) + "\n  ]"


def render_csv(headers, rows) -> str:
    if isinstance(rows, Columns):
        # "%.10g" is the format of _cell
        template = ",".join(["%.10g"] * len(headers))
        lines = map(template.__mod__, rows)
    else:
        lines = (",".join(_cell(x) for x in row) for row in rows)
    return "\n".join([",".join(headers), *lines]) + "\n"


def render_table(headers, rows) -> str:
    cells = [[_cell(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)
