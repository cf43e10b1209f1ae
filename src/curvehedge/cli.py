"""Command-line front end.

Subcommands: extrapolate, hedge, verify, sensitivity, scan-arbitrage.
Exit codes: 0 success or diagnosis, 1 I/O problems, 2 domain or method
errors, 3 verification tolerance breaches. Verification tolerances can
be overridden with a JSON map in the CURVEHEDGE_TOL_OVERRIDE
environment variable: every value a finite number >= 0, and
remainder_tail a whole number from 2 to 8 (the length of the epsilon
schedule).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .curves import DEFAULT_HORIZON
from .errors import CurveHedgeError, DomainError, InputFormatError
from .extrapolation import arbitrage_scan, extrapolate, is_number, resolve_alpha, sample_grid
from .hedging import UNHEDGEABLE_KINDS, hedge_summary, infeasibility_decomposition, verification_checks
from .io import (
    Columns,
    method_from_arg,
    read_cash_flow,
    read_curve,
    render_csv,
    render_json,
    render_table,
)
from .sensitivity import ufr_sensitivity
from .shifts import shift_suite
from .variation import EPS_SCHEDULE

TOLERANCES = {
    "variation_rel": 1e-6,
    "variation_abs": 1e-9,
    "perfect_gap_rel": 1e-9,
    "first_order_residual_rel": 1e-8,
    "remainder_tail": 4,
    "remainder_floor": 1e-9,
}

ENV_TOL = "CURVEHEDGE_TOL_OVERRIDE"

#: most samples one extrapolate or scan-arbitrage grid may hold: ten
#: times a 0.002-year scan over the default 200-year horizon
MAX_SAMPLES = 1_000_000


def _tolerances() -> dict:
    tols = dict(TOLERANCES)
    raw = os.environ.get(ENV_TOL)
    if raw:
        try:
            override = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad {ENV_TOL}: {exc}")
        if not isinstance(override, dict):
            raise InputFormatError(f"{ENV_TOL} must be a JSON object")
        unknown = set(override) - set(tols)
        if unknown:
            raise InputFormatError(f"unknown tolerance keys {sorted(unknown)}")
        for key, value in override.items():
            if not (is_number(value) and np.isfinite(value) and value >= 0):
                raise InputFormatError(
                    f"{ENV_TOL}: {key} must be a finite number >= 0, got {value!r}"
                )
        tail = override.get("remainder_tail", TOLERANCES["remainder_tail"])
        # a window of one ratio cannot fall, and a window of none is the whole schedule
        if tail != int(tail) or not 2 <= tail <= len(EPS_SCHEDULE):
            raise InputFormatError(
                f"{ENV_TOL}: remainder_tail must be a whole number from 2 to {len(EPS_SCHEDULE)}"
            )
        tols.update(override)
    return tols


def _check_step(step: float, horizon: float, option: str):
    """Reject a sampling step that is not positive or asks for too many samples."""
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"{option} must be finite and positive, got {step}")
    if not horizon / step < MAX_SAMPLES:
        raise DomainError(
            f"{option} {step} over horizon {horizon} exceeds {MAX_SAMPLES} samples"
        )


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sub, liabilities=False):
    sub.add_argument("--curve", required=True, help="curve file (csv or json)")
    if liabilities:
        sub.add_argument("--liabilities", required=True, help="cash-flow file (csv or json)")
    sub.add_argument("--method", required=True, help="method spec as JSON or @file")
    sub.add_argument("--shifts", type=int, default=20, help="size of the random shift suite")
    sub.add_argument("--seed", type=int, default=0, help="seed for the shift suite")
    sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)


def _load(args, liabilities=False):
    curve = read_curve(args.curve)
    spec = method_from_arg(args.method)
    resolved = resolve_alpha(curve, spec)
    flow = read_cash_flow(args.liabilities) if liabilities else None
    return curve, resolved, flow


def cmd_extrapolate(args) -> int:
    _check_step(args.step, args.horizon, "--step")
    _check_step(args.scan_step, args.horizon, "--scan-step")
    curve, spec, _ = _load(args)
    ec = extrapolate(curve, spec, args.horizon)
    ts = sample_grid(ec.horizon, args.step)
    samples = Columns(
        ("t", "zero_yield", "forward", "discount"),
        (ts, ec.zero_yield(ts), ec.forward_rate(ts), ec.discount_factor(ts)),
    )
    scan = arbitrage_scan(ec, args.scan_step)

    if args.format == "json":
        # defective curves have undefined yields in places; strict JSON
        # has no NaN, so render_json writes null there
        payload = {"method": spec.to_json(), "samples": samples, "defects": scan.to_json()}
        _emit(args, render_json(payload))
    elif args.format == "csv":
        _emit(args, render_csv(samples.headers, samples))
    else:
        text = render_table(samples.headers, samples)
        if scan.is_clean:
            text += "no defects found\n"
        else:
            for item in scan.to_json():
                text += f"defect {item['kind']} on [{item['start']}, {item['end']}]\n"
        _emit(args, text)
    if not scan.is_clean:
        print("defective curve: see scan report", file=sys.stderr)
        return 2
    return 0


def cmd_hedge(args) -> int:
    curve, spec, flow = _load(args, liabilities=True)
    if spec.kind in UNHEDGEABLE_KINDS:
        decomp = infeasibility_decomposition(spec, curve, flow, eps=args.fra_eps, horizon=args.horizon)
        payload = {"plan": decomp.plan.to_json(), "fra_overlay": decomp.to_json()}
        if args.format == "json":
            _emit(args, render_json(payload))
        else:
            lines = [
                f"kind: {decomp.plan.kind}",
                f"matched lump at tau: {decomp.bond_lump_at_tau:.10g}",
                f"unmatched forward coefficient: {decomp.forward_coefficient:.10g}",
                f"fra accrual eps: {decomp.fra.eps:.10g}",
                f"fra quantity: {decomp.fra_quantity:.10g}",
            ]
            _emit(args, "\n".join(lines) + "\n")
        return 0

    suite = shift_suite(args.shifts, args.seed, args.horizon)
    payload = hedge_summary(spec, curve, flow, suite, args.horizon)
    plan = payload["plan"]
    if args.format == "json":
        _emit(args, render_json(payload))
    elif args.format == "csv":
        rows = [["lump", l["t"], l["amount"]] for l in plan["lumps"]]
        rows += [["density", d["a"], d["b"], d["rate"]] for d in plan["densities"]]
        _emit(args, render_csv(["kind", "a", "b", "c"], rows))
    else:
        lines = [f"kind: {plan['kind']}"]
        for l in plan["lumps"]:
            lines.append(f"lump  t={l['t']:.10g}  amount={l['amount']:.10g}")
        for d in plan["densities"]:
            lines.append(f"density  [{d['a']:.10g}, {d['b']:.10g}]  rate={d['rate']:.10g}")
        lines += [
            f"total value: {payload['total_value']:.10g}",
            f"liability value: {payload['liability_value']:.10g}",
            f"leverage: {payload['leverage']:.10g}",
            f"max first-order residual over {args.shifts} shifts: {payload['max_first_order_residual']:.3e}",
            f"convexity gap (parallel unit shift): {payload['convexity_gap_parallel_unit']:.10g}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    curve, spec, flow = _load(args, liabilities=True)
    tols = _tolerances()
    suite = shift_suite(args.shifts, args.seed, args.horizon)
    corrupt = args.corrupt_analytic or 0.0
    checks = verification_checks(spec, curve, flow, suite, tols, args.horizon, corrupt)

    lines = []
    failed = None
    for name, ok, value, bound in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} value={value:.3e} bound={bound:.3e}")
        if not ok and failed is None:
            failed = name
    if args.format == "json":
        payload = {
            "checks": [
                {"name": n, "ok": ok, "value": v, "bound": b} for n, ok, v, b in checks
            ],
            "ok": failed is None,
        }
        _emit(args, render_json(payload))
    else:
        _emit(args, "\n".join(lines) + "\n")
    if failed is not None:
        print(f"verification failed: {failed}", file=sys.stderr)
        return 3
    return 0


def cmd_sensitivity(args) -> int:
    curve, spec, flow = _load(args, liabilities=True)
    report = ufr_sensitivity(spec, curve, flow, args.horizon)
    if args.format == "json":
        _emit(args, render_json(report.to_json()))
    else:
        data = report.to_json()
        lines = [f"method: {data['method']}", f"S: {data['S']:.10g}"]
        if data["lower"] is not None:
            lines.append(f"bounds: [{data['lower']:.10g}, {data['upper']:.10g}]")
        lines.append(f"oracle: {data['oracle']:.10g}")
        lines.append(f"rel residual: {data['rel_residual']:.3e}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_scan(args) -> int:
    _check_step(args.step, args.horizon, "--step")
    curve, spec, _ = _load(args)
    ec = extrapolate(curve, spec, args.horizon)
    scan = arbitrage_scan(ec, args.step)
    if args.format == "json":
        _emit(args, render_json({"defects": scan.to_json(), "clean": scan.is_clean}))
    else:
        if scan.is_clean:
            _emit(args, "no defects found\n")
        else:
            lines = [
                f"defect {d['kind']} on [{d['start']}, {d['end']}]" for d in scan.to_json()
            ]
            _emit(args, "\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="curvehedge",
        description="extrapolated yield curves, hedges and sensitivities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extrapolate", help="sample an extrapolated curve")
    _add_common(p)
    p.add_argument("--step", type=float, default=1.0, help="sampling step in years")
    p.add_argument("--scan-step", type=float, default=0.25, help="defect scan step")
    p.set_defaults(handler="cmd_extrapolate")

    p = sub.add_parser("hedge", help="build and check a hedge plan")
    _add_common(p, liabilities=True)
    p.add_argument("--fra-eps", type=float, default=1.0, help="FRA accrual window")
    p.set_defaults(handler="cmd_hedge")

    p = sub.add_parser("verify", help="run analytic-vs-numeric verification checks")
    _add_common(p, liabilities=True)
    p.add_argument("--corrupt-analytic", type=float, default=None, help=argparse.SUPPRESS)
    p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("sensitivity", help="sensitivity to the ultimate forward rate")
    _add_common(p, liabilities=True)
    p.set_defaults(handler="cmd_sensitivity")

    p = sub.add_parser("scan-arbitrage", help="scan a curve for arbitrage defects")
    _add_common(p)
    p.add_argument("--step", type=float, default=0.25, help="scan step in years")
    p.set_defaults(handler="cmd_scan")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, because the parser outlives any
    # wrapper later put on the module's command functions
    handler = globals()[args.handler]
    try:
        return handler(args)
    except (InputFormatError, OSError) as exc:
        # OSError: the --out file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CurveHedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
