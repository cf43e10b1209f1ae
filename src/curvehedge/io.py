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

from .curves import CashFlow, ForwardCurve
from .errors import CurveHedgeError, InputFormatError
from .extrapolation import MethodSpec, is_number


def _read_text(path) -> str:
    p = Path(path)
    if not p.exists():
        raise InputFormatError("no such file", path=path)
    return p.read_text()


def _floats(fields, path, line):
    try:
        return [float(x) for x in fields]
    except ValueError as exc:
        raise InputFormatError(str(exc), path=path, line=line)


def read_curve(path) -> ForwardCurve:
    """Load a curve from a ``.csv`` or ``.json`` file."""
    text = _read_text(path)
    if str(path).lower().endswith(".json"):
        return _curve_from_json(json.loads(text), path)
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
    try:
        if mode == "zero_yield":
            return ForwardCurve.from_zero_yields(times, values)
        return ForwardCurve.from_forwards(times, values)
    except CurveHedgeError as exc:
        raise InputFormatError(str(exc), path=path)


def _curve_from_json(data, path) -> ForwardCurve:
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
    try:
        if mode == "zero_yield":
            return ForwardCurve.from_zero_yields(times, values)
        return ForwardCurve.from_forwards(times, values)
    except CurveHedgeError as exc:
        raise InputFormatError(str(exc), path=path)


def read_cash_flow(path) -> CashFlow:
    """Load a cash flow from a ``.csv`` or ``.json`` file."""
    text = _read_text(path)
    if str(path).lower().endswith(".json"):
        data = json.loads(text)
        if not isinstance(data, list):
            raise InputFormatError("cash-flow JSON must be a list", path=path)
        lumps, densities = [], []
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
        try:
            return CashFlow(lumps=tuple(lumps), densities=tuple(densities))
        except CurveHedgeError as exc:
            raise InputFormatError(str(exc), path=path)
    rows = list(csv.reader(_io.StringIO(text)))
    lumps, densities = [], []
    for i, row in enumerate(rows, start=1):
        if not row or not any(x.strip() for x in row):
            continue
        kind = row[0].strip().lower()
        if kind == "lump":
            if len(row) != 3:
                raise InputFormatError("lump rows are 'lump,t,amount'", path=path, line=i)
            t, amount = _floats(row[1:], path, i)
            lumps.append((t, amount))
        elif kind == "density":
            if len(row) != 4:
                raise InputFormatError("density rows are 'density,a,b,rate'", path=path, line=i)
            a, b, rate = _floats(row[1:], path, i)
            densities.append((a, b, rate))
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad method JSON: {exc}", path=path)
    if not isinstance(data, dict):
        raise InputFormatError("method JSON must be an object", path=path)
    return MethodSpec.from_json(data)


# ---- output rendering -------------------------------------------------------


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(headers, rows) -> str:
    out = [",".join(headers)]
    for row in rows:
        out.append(",".join(_cell(x) for x in row))
    return "\n".join(out) + "\n"


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
