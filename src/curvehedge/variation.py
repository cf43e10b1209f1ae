"""First- and second-order directional variations of curve functionals.

The central object is the one-sided directional derivative of a
functional F of the market curve along a shift Delta-z,

    dF[z | Dz] = lim_{e -> 0+} (F[z + e*Dz] - F[z]) / e,

which is positively homogeneous in the shift but not necessarily linear
(see :func:`clamp_variation` for a standard nonlinear example). Every
closed-form expression here has a numeric twin built from one-sided
difference quotients on a halving epsilon schedule with two levels of
Richardson extrapolation; reports carry both values and their residual,
never swallowing a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CashFlow, CurveShift, ForwardCurve, present_value, stieltjes_integral
from .errors import DefectiveCurveError, DomainError, EvaluationError
from .extrapolation import (
    DEFAULT_HORIZON,
    M1,
    M2,
    M3,
    M4,
    M5_SFSA,
    M6_SW_CONTINUOUS,
    M6_SW_DISCRETE,
    ExtrapolatedCurve,
    MethodSpec,
    extrapolate,
    sw_factor,
)

#: one-sided difference-quotient schedule: 1e-2 halved seven times
EPS_SCHEDULE = tuple(1e-2 * 0.5**k for k in range(8))

#: absolute tolerance for the equality case split of the clamp example
CLAMP_EQ_TOL = 1e-12


@dataclass(frozen=True)
class VariationReport:
    """Analytic and finite-difference values of a variation, side by side.

    ``numeric`` is the Richardson-extrapolated limit of the raw
    ``quotients``; ``residual`` is |analytic - numeric| when an analytic
    value is attached. ``additivity_defect`` (when computed) is the
    numeric value of dF[z|Dz] + dF[z|-Dz], a witness of nonlinearity
    when it fails to vanish.
    """

    numeric: float
    eps_schedule: tuple
    quotients: tuple
    extrapolated: tuple
    analytic: float | None = None
    residual: float | None = None
    additivity_defect: float | None = None

    def to_json(self) -> dict:
        return {
            "analytic": self.analytic,
            "numeric": self.numeric,
            "residual": self.residual,
            "eps_schedule": list(self.eps_schedule),
        }


def _richardson(quotients):
    """Richardson table for an error expansion in integer powers of eps.

    ``quotients`` has one row per eps along axis 0; any further axes hold
    independent tables. Successive columns cancel the eps, eps^2 and
    eps^3 terms (halving schedule, so the elimination factors are 2, 4,
    8). Returns the stability-picked estimate and the final column; the
    pick minimizes the successive difference, guarding against roundoff
    blowup at the smallest steps.
    """
    col = np.asarray(quotients, dtype=float)
    for factor in (2.0, 4.0, 8.0):
        if len(col) < 2:
            break
        col = (factor * col[1:] - col[:-1]) / (factor - 1.0)
    if len(col) == 1:
        return col[0], col
    picks = np.argmin(np.abs(np.diff(col, axis=0)), axis=0) + 1
    return np.take_along_axis(col, np.expand_dims(picks, 0), axis=0)[0], col


def _eval_functional(functional, curve, eps):
    value = functional(curve)
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"functional returned {value} at eps={eps}", eps=eps)
    return value


def numeric_variation(
    functional,
    z: ForwardCurve,
    shift: CurveShift,
    order: int = 1,
    analytic: float | None = None,
    check_additivity: bool = False,
    ray: dict | None = None,
) -> VariationReport:
    """Finite-difference estimate of the first or second variation of ``functional``.

    Order 1 uses one-sided quotients (F[z + e*Dz] - F[z]) / e, with e
    running over ``EPS_SCHEDULE``; order 2
    the centered-in-epsilon second difference along the ray,
    (F[z + 2e*Dz] - 2 F[z + e*Dz] + F[z]) / e^2, still one-sided in sign
    consistent with the e -> 0+ limit.

    ``ray`` holds the curves z + e*Dz by e: those it has are used, the
    ones built here are added, so a caller can revalue something else on
    the very curves F was evaluated on.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")

    f0 = _eval_functional(functional, z, 0.0)
    ray = {} if ray is None else ray
    cache = {}

    def at(e):
        if e not in cache:
            if e not in ray:
                ray[e] = z.shifted(shift, e)
            cache[e] = _eval_functional(functional, ray[e], e)
        return cache[e]

    if order == 1:
        quotients = tuple((at(e) - f0) / e for e in EPS_SCHEDULE)
    else:
        quotients = tuple((at(2 * e) - 2.0 * at(e) + f0) / (e * e) for e in EPS_SCHEDULE)

    numeric, extrapolated = _richardson(quotients)
    numeric = float(numeric)
    residual = None if analytic is None else abs(analytic - numeric)

    defect = None
    if check_additivity:
        mirrored = numeric_variation(functional, z, shift.negated(), order=order)
        defect = numeric + mirrored.numeric

    return VariationReport(
        numeric=numeric,
        eps_schedule=EPS_SCHEDULE,
        quotients=quotients,
        extrapolated=tuple(extrapolated),
        analytic=analytic,
        residual=residual,
        additivity_defect=defect,
    )


# ---- closed forms for plain discounting ------------------------------------


def variation_discount(curve, shift: CurveShift, t: float) -> float:
    """First variation of the discount factor: -t * Dz(t) * D(t)."""
    return -t * shift.delta_z(t) * float(curve.discount_factor(t))


def variation_pv(curve, shift: CurveShift, flow: CashFlow) -> float:
    """First variation of a present value: -int t * Dz(t) dC*(t)."""
    return -stieltjes_integral(
        curve,
        flow,
        lambda t: t * shift.delta_z(t),
        breakpoints=shift.breakpoints_between(0.0, curve.horizon),
    )


# ---- per-method variation of the glued curve --------------------------------


def sw_variation_coefficient(t, tau: float, alpha: float, ufr: float, f_tau: float):
    """Coefficient of Delta-f(tau) in the Smith-Wilson first variation.

    c(t) = [(1 - e^{-alpha (t-tau)}) / (alpha t)] / [1 + (ufr - f_tau)(1 - e^{-alpha (t-tau)}) / alpha]
    """
    t = np.asarray(t, dtype=float)
    phi = (1.0 - np.exp(-alpha * (t - tau))) / alpha
    out = phi / (t * sw_factor(t - tau, ufr - f_tau, alpha))
    return float(out) if out.ndim == 0 else out


def method_variation(spec: MethodSpec, z: ForwardCurve, shift: CurveShift, t):
    """Analytic first variation of the extrapolated yield at time t.

    Below tau the glued curve is the market curve, so the variation is
    the shift itself. Above tau each method exposes its own dependence on
    the curve: none at all (M1), the last zero yield (M2, M3), the last
    forward (M4, M6), or a running average of the shift (M5).
    """
    if spec.kind == M6_SW_DISCRETE:
        raise DomainError(
            "directional formulas cover the continuous Smith-Wilson version; "
            "the discrete fit reproduces its inputs exactly instead"
        )
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    tau = spec.tau
    if np.any(arr < 0.0):
        raise DomainError("negative time")

    out = np.empty_like(arr)
    below = arr <= tau
    if np.any(below):
        out[below] = shift.delta_z(arr[below])
    above = ~below
    if np.any(above):
        te = arr[above]
        kind = spec.kind
        dz_tau = shift.delta_z(tau)
        if kind == M1:
            out[above] = 0.0
        elif kind == M2:
            out[above] = dz_tau
        elif kind == M3:
            out[above] = (tau / te) * dz_tau
        elif kind == M4:
            df_tau = shift.delta_f_at_boundary(tau)
            out[above] = (tau / te) * dz_tau + (1.0 - tau / te) * df_tau
        elif kind == M5_SFSA:
            kappa = spec.kappa
            span = kappa - tau
            clipped = np.minimum(te, kappa)
            integral = shift.time_weighted_cumulative(clipped) - shift.time_weighted_cumulative(tau)
            blend = np.where(te <= kappa, (kappa - te) / span * shift.delta_z(clipped), 0.0)
            out[above] = blend + integral / (te * span)
        else:  # M6 continuous, alpha held fixed
            f_tau = spec.market(z).forward_rate(tau, side="left")
            if np.any(sw_factor(te - tau, spec.ufr - f_tau, spec.alpha) <= 0.0):
                raise DefectiveCurveError(
                    "Smith-Wilson discount factor is nonpositive at the requested time; "
                    "the variation is undefined there"
                )
            df_tau = shift.delta_f_at_boundary(tau)
            c = sw_variation_coefficient(te, tau, spec.alpha, spec.ufr, f_tau)
            out[above] = (tau / te) * dz_tau + c * df_tau
    return float(out[0]) if scalar else out.reshape(np.shape(t))


def method_variation_pv(
    spec: MethodSpec,
    z: ForwardCurve,
    shift: CurveShift,
    flow: CashFlow,
    horizon: float = DEFAULT_HORIZON,
    curve: ExtrapolatedCurve | None = None,
) -> float:
    """Analytic first variation of the liability present value.

    By the chain rule this is -int t * dzbar(t) dL*(t) with dL* the
    flow discounted by the extrapolated curve. The weight splits at the
    shift's nodes; dL* adds the curve's, tau and kappa among them.
    """
    if curve is None:
        curve = extrapolate(z, spec, horizon)

    def weight(t):
        return np.asarray(t, dtype=float) * method_variation(spec, z, shift, t)

    return -stieltjes_integral(curve, flow, weight, shift.breakpoints_between(0.0, curve.horizon))


def method_variation_report(
    spec: MethodSpec,
    z: ForwardCurve,
    shift: CurveShift,
    flow: CashFlow,
    horizon: float = DEFAULT_HORIZON,
    check_additivity: bool = False,
) -> VariationReport:
    """Analytic vs numeric first variation of the liability present value."""
    analytic = method_variation_pv(spec, z, shift, flow, horizon)

    def functional(curve):
        return present_value(extrapolate(curve, spec, horizon), flow)

    return numeric_variation(
        functional, z, shift, order=1, analytic=analytic, check_additivity=check_additivity
    )


# ---- the clamp example -------------------------------------------------------


def clamp_variation(z, shift: CurveShift, c: float, t: float) -> float:
    """First variation of max(0, z(t) - c), by exact case analysis.

    The kink at z(t) = c makes the variation one-sidedly defined and
    positively homogeneous but not additive in the shift. Equality is
    tested within ``CLAMP_EQ_TOL`` to absorb floating-point noise only.
    """
    z_t = float(z.zero_yield(t))
    dz_t = float(shift.delta_z(t))
    if abs(z_t - c) <= CLAMP_EQ_TOL:
        return dz_t if dz_t > 0.0 else 0.0
    if z_t < c:
        return 0.0
    return dz_t


def clamp_functional(c: float, t: float):
    """The clamped-yield functional curve -> max(0, z(t) - c), for oracles."""

    def functional(curve):
        return max(0.0, float(curve.zero_yield(t)) - c)

    return functional


# ---- second order -----------------------------------------------------------


def _sw_second_variation_weight(spec, z, shift, horizon):
    """Pointwise second variation of the Smith-Wilson yield, by nested differencing.

    Differences the closed-form extrapolated yield along the ray with the
    same Richardson machinery as the scalar oracle; the closed form is
    exact, so no hand-derived second-order expansion is needed.
    """
    curves = {0.0: extrapolate(z, spec, horizon)}

    def curve_at(e):
        if e not in curves:
            curves[e] = extrapolate(z.shifted(shift, e), spec, horizon)
        return curves[e]

    def weight(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        z0 = np.asarray(curves[0.0].zero_yield(t), dtype=float)
        quotients = []
        for e in EPS_SCHEDULE:
            z1 = np.asarray(curve_at(e).zero_yield(t), dtype=float)
            z2 = np.asarray(curve_at(2 * e).zero_yield(t), dtype=float)
            quotients.append((z2 - 2.0 * z1 + z0) / (e * e))
        col = np.stack(quotients)
        if not np.all(np.isfinite(col)):
            raise DefectiveCurveError(
                "shifted Smith-Wilson curve is defective inside the differencing schedule"
            )
        return _richardson(col)[0]

    return weight


def second_order_pv(
    spec: MethodSpec,
    z: ForwardCurve,
    shift: CurveShift,
    flow: CashFlow,
    horizon: float = DEFAULT_HORIZON,
    curve: ExtrapolatedCurve | None = None,
) -> float:
    """Second variation of the liability present value along the shift.

    Evaluates int (t^2 dzbar(t)^2 - t d2zbar(t)) dL*(t). The second
    variation of the extrapolated yield vanishes for M1-M5 (their first
    variation is linear in the shift); the fixed-alpha Smith-Wilson yield
    is genuinely nonlinear and its d2zbar comes from nested numeric
    differencing of the closed form.
    """
    if spec.kind == M6_SW_DISCRETE:
        raise DomainError(
            "directional formulas cover the continuous Smith-Wilson version"
        )
    if curve is None:
        curve = extrapolate(z, spec, horizon)
    d2_weight = (
        _sw_second_variation_weight(spec, z, shift, horizon)
        if spec.kind == M6_SW_CONTINUOUS
        else None
    )

    def weight(t):
        t = np.asarray(t, dtype=float)
        dz = np.asarray(method_variation(spec, z, shift, t), dtype=float)
        out = t * t * dz * dz
        if d2_weight is not None:
            out = out - t * d2_weight(t)
        return out

    return stieltjes_integral(curve, flow, weight, shift.breakpoints_between(0.0, curve.horizon))
