"""The three benchmark workloads as lists of CLI operations, and the gate.

An operation is one ``curvehedge.cli.main(argv)`` call. One *cycle* of a
workload is its operation list run once; a run repeats whole cycles. The
gate checks every output: against the stored reference for the default
seed, and against the paper's invariants for every seed.

Why each workload exists (see README.md for the metric map):

- ``verify-matrix``: ``hedge`` then ``verify`` for the six closed-form
  methods. Hundreds of shallow (depth-0) integrals on freshly built
  shifted and extrapolated curves, so quadrature breadth, small-array
  curve evaluation and curve construction dominate.
- ``ufr-sensitivity``: ``sensitivity`` for the five methods with a UFR.
  The same quadrature layer used at depth: the finite-difference oracle
  bisects deep on liabilities with density segments.
- ``curve-sampling``: ``extrapolate`` (json and csv) and
  ``scan-arbitrage`` for all seven kinds plus the calibrated Smith-Wilson
  specs. No quadrature at all; bulk evaluation, calibration, the
  discrete Smith-Wilson fit and rendering dominate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

WORKLOADS = ("verify-matrix", "ufr-sensitivity", "curve-sampling")
DEFAULT_SEED = 0

VERIFY_KINDS = ("M1", "M2", "M3", "M4", "M5_SFSA", "M6_SW_continuous")
SENSITIVITY_KINDS = ("M1", "M2", "M3", "M5_SFSA", "M6_SW_continuous")
ALL_KINDS = VERIFY_KINDS + ("M6_SW_discrete",)
CALIBRATED_KINDS = ("M6_SW_continuous", "M6_SW_discrete")

#: dense sampling step for ``extrapolate`` and fine step for ``scan-arbitrage``
SAMPLE_STEP = 0.05
SCAN_STEP = 0.002
HORIZON = 200.0

#: relative agreement with the stored reference
REL_TOL = 1e-10
#: CSV cells carry 10 significant digits, so their own resolution is 5e-10
CSV_REL_TOL = 1e-9
#: the CLI's default bound on the first-order hedge residual, relative to
#: max(1, liability value), and the oracle agreement the tests ask for
FIRST_ORDER_RESIDUAL_REL = 1e-8
ORACLE_REL_TOL = 1e-6
#: every this many samples of an extrapolated curve go into the reference
REFERENCE_STRIDE = 80

#: density segments of the fixed deep cases of ``ufr-sensitivity``; the
#: oracle's bisection depth on these is 10^2-10^3 panels per integral
DEEP_DENSITIES = ((25.0, 33.0, 0.05), (30.0, 38.0, 0.05))

_EXPECTED_PLAN = {
    "M1": "perfect", "M3": "perfect", "M2": "first_order", "M5_SFSA": "first_order",
    "M4": "infeasible", "M6_SW_continuous": "infeasible",
}


@dataclass
class Op:
    """One CLI call of a cycle and what its output must satisfy."""

    name: str
    command: str
    kind: str
    fmt: str
    case: gen.Case
    argv: list


def _spec_arg(case, kind, calibrate=False):
    return json.dumps(case.spec(kind, calibrate), sort_keys=True)


def _liability_op(command, kind, case, fmt="json"):
    argv = [
        command, "--curve", case.files["curve"], "--liabilities", case.files["liabilities"],
        "--method", _spec_arg(case, kind), "--shifts", str(case.shifts),
        "--seed", str(case.shift_seed), "--format", fmt,
    ]
    return Op(f"{command}/{kind}/{case.name}", command, kind, fmt, case, argv)


def _curve_ops(case, kind, calibrate):
    tag = f"{kind}{'+calibrated' if calibrate else ''}/{case.name}"
    spec = _spec_arg(case, kind, calibrate)
    ops = []
    for fmt in ("json", "csv"):
        argv = ["extrapolate", "--curve", case.files["curve"], "--method", spec,
                "--step", repr(SAMPLE_STEP), "--format", fmt]
        ops.append(Op(f"extrapolate-{fmt}/{tag}", "extrapolate", kind, fmt, case, argv))
    argv = ["scan-arbitrage", "--curve", case.files["curve"], "--method", spec,
            "--step", repr(SCAN_STEP), "--format", "json"]
    ops.append(Op(f"scan-arbitrage/{tag}", "scan-arbitrage", kind, "json", case, argv))
    return ops


def _deep_cases():
    """Sample curve and lumps with one density far beyond tau, fixed.

    The oracle's panel count on a density segment is chaotic in the
    inputs (from tens to 10^5 panels), so seeding these would make the
    run's cost depend on the seed more than on the code. They are fixed;
    the seed varies the lumps-only cases around them.
    """
    cases = []
    for i, dens in enumerate(DEEP_DENSITIES):
        case = gen.sample_case()
        case.name = f"deep{i}"
        case.alpha = 0.2
        case.densities = [dens]
        cases.append(case)
    return cases


def build(workload: str, seed: int, directory: Path):
    """Generate and write the inputs of ``workload`` for ``seed``; return (cases, ops)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify-matrix":
        cases = [gen.sample_case()] + [gen.generated_case(rng, i) for i in range(3)]
    elif workload == "ufr-sensitivity":
        seeded = [gen.generated_case(rng, i, density_years=0.0) for i in range(4)]
        cases = _deep_cases() + seeded
    elif workload == "curve-sampling":
        cases = [gen.sample_case(), gen.generated_case(rng, 1)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for case in cases:
        case.write(directory)

    ops = []
    for case in cases:
        if workload == "verify-matrix":
            for kind in VERIFY_KINDS:
                ops.append(_liability_op("hedge", kind, case))
                ops.append(_liability_op("verify", kind, case))
        elif workload == "ufr-sensitivity":
            for kind in SENSITIVITY_KINDS:
                ops.append(_liability_op("sensitivity", kind, case))
        else:
            for kind in ALL_KINDS:
                ops += _curve_ops(case, kind, calibrate=False)
            for kind in CALIBRATED_KINDS:
                ops += _curve_ops(case, kind, calibrate=True)
    return cases, ops


# ---- the gate ----------------------------------------------------------------


def _csv_rows(text):
    lines = text.strip().splitlines()
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def parse(op: Op, stdout: str):
    """The comparable record of an operation's output, and its sample rows.

    Verify check values are roundoff-level residuals and are left out,
    and so is the bound of ``remainder_decay`` checks, which is itself a
    remainder ratio. Rows are the full samples of ``extrapolate``, else None.
    """
    if op.command == "extrapolate":
        if op.fmt == "csv":
            rows = _csv_rows(stdout)
            return {"n": len(rows), "rows": rows[::REFERENCE_STRIDE]}, rows
        data = json.loads(stdout)
        rows = [[s["t"], s["zero_yield"], s["forward"], s["discount"]] for s in data["samples"]]
        got = {"n": len(rows), "rows": rows[::REFERENCE_STRIDE],
               "defects": data["defects"], "method": data["method"]}
        return got, rows
    data = json.loads(stdout)
    if op.command == "verify":
        checks = [
            [c["name"], c["ok"]] + ([] if c["name"].startswith("remainder_decay") else [c["bound"]])
            for c in data["checks"]
        ]
        return {"ok": data["ok"], "checks": checks}, None
    return data, None


#: roundoff-level residuals that the reference comparison skips
_RESIDUALS = ("max_first_order_residual", "rel_residual")


def reference_record(got):
    """The part of a record that is compared with the stored reference."""
    return {k: v for k, v in got.items() if k not in _RESIDUALS}


def _compare(got, want, rel, floor, path="$"):
    """First difference between two JSON-like values, or None."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return f"{path}: {got!r} is not a number"
        if abs(got - want) <= rel * max(abs(got), abs(want)) + floor:
            return None
        return f"{path}: {got!r} differs from {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in sorted(want):
            diff = _compare(got[key], want[key], rel, floor, f"{path}.{key}")
            if diff:
                return diff
        return None
    if not isinstance(got, list) or len(got) != len(want):
        return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        diff = _compare(g, w, rel, floor, f"{path}[{i}]")
        if diff:
            return diff
    return None


def compare_reference(op: Op, got, want):
    """Compare with the stored reference: 1e-10 relative (CSV: its own 1e-9)."""
    got = reference_record(got)
    rel = CSV_REL_TOL if op.fmt == "csv" else REL_TOL
    if op.command == "hedge":
        # values are in present-value units; a perfect plan's convexity gap
        # is roundoff, so it is compared against the liability value's scale
        floor = REL_TOL * abs(want.get("liability_value") or want["plan"]["diagnostics"]["liability_value"])
    elif op.command == "sensitivity":
        floor = REL_TOL * max(abs(want["S"]), 1.0)
    else:
        floor = 0.0
    return _compare(got, want, rel, floor)


def _market_zero(case: gen.Case, t):
    """Zero yield of the market curve plus offset, computed here independently."""
    times = np.array([r[0] for r in case.curve_rows])
    vals = np.array([r[1] for r in case.curve_rows])
    t = np.asarray(t, dtype=float)
    if case.curve_header == "zero_yield":
        nodes = np.concatenate(([0.0], times))
        tz = np.concatenate(([0.0], times * vals))
        cum = np.interp(t, nodes, tz)
        z0 = tz[1] / nodes[1]
    else:
        if times[0] != 0.0:
            times = np.concatenate(([0.0], times))
            vals = np.concatenate(([vals[0]], vals))
        h = np.diff(times)
        cum_nodes = np.concatenate(([0.0], np.cumsum(0.5 * h * (vals[:-1] + vals[1:]))))
        idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(h) - 1)
        w = t - times[idx]
        slope = (vals[idx + 1] - vals[idx]) / h[idx]
        cum = cum_nodes[idx] + vals[idx] * w + 0.5 * slope * w * w
        z0 = vals[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(t > 0.0, cum / np.where(t > 0.0, t, 1.0), z0)
    return z + case.offset


def _check_market_match(op: Op, rows):
    """The extrapolated curve equals market + offset on [0, tau]."""
    arr = np.array(rows, dtype=float)
    t, z, d = arr[:, 0], arr[:, 1], arr[:, 3]
    tau = op.case.tau
    inside = t <= tau
    if op.kind == "M6_SW_discrete":
        # the discrete fit reproduces the market only at its nodes
        nodes = np.array([r[0] for r in op.case.curve_rows])
        nodes = nodes[nodes <= tau]
        inside &= np.isin(np.round(t, 9), np.round(nodes, 9))
        if not np.any(inside):
            return "no market node on the sample grid"
    ref_z = _market_zero(op.case, t[inside])
    ref_d = np.exp(-t[inside] * ref_z)
    rel = CSV_REL_TOL if op.fmt == "csv" else 1e-9
    dz = np.abs(z[inside] - ref_z)
    if np.any(dz > rel * np.abs(ref_z) + 1e-12):
        return f"zero yield off the market curve by {dz.max():.3e} on [0, tau]"
    dd = np.abs(d[inside] - ref_d)
    if np.any(dd > rel * ref_d):
        return f"discount factor off the market curve by {dd.max():.3e} on [0, tau]"
    return None


def invariant(op: Op, got) -> str | None:
    """The paper invariant the output must satisfy, for any seed."""
    if op.command == "verify":
        return None if got["ok"] else "verify reported a failed check"
    if op.command == "hedge":
        plan = got["plan"]
        if plan["kind"] != _EXPECTED_PLAN[op.kind]:
            return f"plan kind {plan['kind']} for {op.kind}"
        if plan["kind"] == "infeasible":
            lump = got["fra_overlay"]["bond_lump_at_tau"]
            value = plan["diagnostics"]["liability_value"]
            return None if abs(lump - value) <= REL_TOL * abs(value) else "bond lump != liability value"
        bound = FIRST_ORDER_RESIDUAL_REL * max(1.0, abs(got["liability_value"]))
        if not got["max_first_order_residual"] <= bound:
            return f"hedge residual {got['max_first_order_residual']:.3e} above {bound:.3e}"
        return None
    if op.command == "sensitivity":
        s = got["S"]
        if not math.isfinite(s):
            return "non-finite sensitivity"
        if not got["rel_residual"] < ORACLE_REL_TOL:
            return f"closed form and oracle differ by {got['rel_residual']:.3e}"
        if got["lower"] is not None:
            slack = REL_TOL * max(1.0, abs(s))
            if not got["lower"] - slack <= s <= got["upper"] + slack:
                return f"S={s} outside [{got['lower']}, {got['upper']}]"
        return None
    if op.command == "scan-arbitrage":
        return None if got["clean"] and not got["defects"] else "defects on a clean curve"
    return None


def check(op: Op, rc: int, stdout: str, reference) -> str | None:
    """Why the operation failed, or None. ``reference`` is the stored record or None."""
    if rc != 0:  # every operation of these workloads succeeds on correct code
        return f"exit code {rc}, expected 0"
    try:
        got, rows = parse(op, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if op.command == "extrapolate":
        expected_n = int(np.sum(np.arange(0.0, HORIZON + 0.5 * SAMPLE_STEP, SAMPLE_STEP) <= HORIZON))
        if got["n"] != expected_n:
            return f"{got['n']} samples, expected {expected_n}"
        if got.get("defects"):
            return "defects on a clean curve"
        problem = _check_market_match(op, rows)
    else:
        problem = invariant(op, got)
    if problem:
        return problem
    if reference is not None:
        return compare_reference(op, got, reference)
    return None
