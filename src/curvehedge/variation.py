"""First- and second-order directional variations of curve functionals.

The central object is the one-sided directional derivative of a
functional F of the market curve along a shift Delta-z,

    dF[z | Dz] = lim_{e -> 0+} (F[z + e*Dz] - F[z]) / e,

which is positively homogeneous in the shift but not necessarily linear
(see :func:`clamp_variation` for a standard nonlinear example). Every
closed-form expression here has a numeric twin built from one-sided
difference quotients on a halving epsilon schedule with two levels of
Richardson extrapolation; reports carry both values and their residual,
never swallowing a disagreement. Each method's dzbar and d2zbar past tau
are its entry in the method table (:mod:`curvehedge.methods`). The
functionals of the glued curve take the extrapolated curve, which holds
its market curve, spec and horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CashFlow, CurveShift, ForwardCurve, stieltjes_integral
from .errors import DomainError, EvaluationError
from .extrapolation import ExtrapolatedCurve
from .methods import piecewise

#: one-sided difference-quotient schedule: 1e-2 halved seven times
EPS_SCHEDULE = tuple(1e-2 * 0.5**k for k in range(8))

#: the scales e at which a difference quotient of each order reads F[z + e*Dz]
_SCALES = {1: EPS_SCHEDULE, 2: (2.0 * EPS_SCHEDULE[0],) + EPS_SCHEDULE}

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


def _richardson(quotients, factors):
    """Richardson table for an error expansion in powers of the step.

    ``quotients`` has one row per step along axis 0, each step half the
    one before; any further axes hold independent tables. Column k
    cancels the error term that falls by ``factors[k]`` when the step
    halves: (2, 4, 8) for the eps, eps^2 and eps^3 terms of one-sided
    quotients, (4,) for the h^2 term of central differences. Returns the
    stability-picked estimate and the final column; the pick minimizes
    the successive difference, guarding against roundoff blowup at the
    smallest steps.
    """
    col = np.asarray(quotients, dtype=float)
    for factor in factors:
        if len(col) < 2:
            break
        col = (factor * col[1:] - col[:-1]) / (factor - 1.0)
    if len(col) == 1:
        return col[0], col
    picks = np.argmin(np.abs(np.diff(col, axis=0)), axis=0) + 1
    return np.take_along_axis(col, np.expand_dims(picks, 0), axis=0)[0], col


def _finite(value, eps) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"functional returned {value} at eps={eps}", eps=eps)
    return value


def _difference_limit(f0, values, order: int = 1):
    """The Richardson limit of F's difference quotients along z + e*Dz.

    ``f0`` is F[z] and ``values`` gives F[z + e*Dz] for each e of
    ``_SCALES[order]``; any further values are not read. Each value is
    checked as it is read, ``f0`` first: a non-finite one raises
    :class:`EvaluationError` naming its e. Returns the limit, the
    quotients and the final Richardson column.
    """
    f0 = _finite(f0, 0.0)
    at = {e: _finite(value, e) for e, value in zip(_SCALES[order], values)}
    if order == 1:
        quotients = tuple((at[e] - f0) / e for e in EPS_SCHEDULE)
    else:
        quotients = tuple((at[2 * e] - 2.0 * at[e] + f0) / (e * e) for e in EPS_SCHEDULE)
    numeric, extrapolated = _richardson(quotients, (2.0, 4.0, 8.0))
    return float(numeric), quotients, tuple(extrapolated)


def numeric_variation(
    functional,
    z: ForwardCurve,
    shift: CurveShift,
    order: int = 1,
    analytic: float | None = None,
    check_additivity: bool = False,
) -> VariationReport:
    """Finite-difference estimate of the first or second variation of ``functional``.

    Order 1 uses one-sided quotients (F[z + e*Dz] - F[z]) / e, with e
    running over ``EPS_SCHEDULE``; order 2
    the centered-in-epsilon second difference along the ray,
    (F[z + 2e*Dz] - 2 F[z + e*Dz] + F[z]) / e^2, still one-sided in sign
    consistent with the e -> 0+ limit. The curves z + e*Dz come from one
    :meth:`ForwardCurve.ray`, which merges the grids once.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")

    along = z.ray(shift)
    numeric, quotients, extrapolated = _difference_limit(
        functional(z), (functional(along(e)) for e in _SCALES[order]), order
    )
    residual = None if analytic is None else abs(analytic - numeric)

    defect = None
    if check_additivity:
        mirrored = numeric_variation(functional, z, shift.negated(), order=order)
        defect = numeric + mirrored.numeric

    return VariationReport(
        numeric=numeric,
        eps_schedule=EPS_SCHEDULE,
        quotients=quotients,
        extrapolated=extrapolated,
        analytic=analytic,
        residual=residual,
        additivity_defect=defect,
    )


# ---- per-method variation of the glued curve --------------------------------


def _yield_variation(shift: CurveShift, curve):
    """t -> dzbar(t) along ``shift``, for the extrapolated ``curve``: the
    shift itself up to tau, and the method's variation past it."""
    tau = curve.spec.tau
    extension = curve.spec.method.yield_variation(shift, curve)

    def variation(t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("negative time")
        if isinstance(t, float):
            return float(piecewise(t, tau, shift.delta_z, extension))
        out = piecewise(arr.reshape(-1), tau, shift.delta_z, extension)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return variation


def method_variation(curve: ExtrapolatedCurve, shift: CurveShift, t):
    """Analytic first variation of the extrapolated yield at time t.

    Below tau the glued curve is the market curve, so the variation is
    the shift itself. Above tau each method exposes its own dependence on
    the curve: none at all (M1), the last zero yield (M2, M3), the last
    forward (M4, M6), or a running average of the shift (M5).
    """
    return _yield_variation(shift, curve)(t)


def method_variation_pv(curve: ExtrapolatedCurve, shift: CurveShift, flow: CashFlow) -> float:
    """Analytic first variation of the liability present value.

    By the chain rule this is -int t * dzbar(t) dL*(t) with dL* the
    flow discounted by the extrapolated curve. The weight splits at the
    shift's nodes; dL* adds the curve's, tau and kappa among them.
    """
    dzbar = _yield_variation(shift, curve)

    def weight(t):
        return np.asarray(t, dtype=float) * dzbar(t)

    return -stieltjes_integral(curve, flow, weight, shift.breakpoints_between(0.0, curve.horizon))


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


def second_order_pv(curve: ExtrapolatedCurve, shift: CurveShift, flow: CashFlow) -> float:
    """Second variation of the liability present value along the shift.

    Evaluates int (t^2 dzbar(t)^2 - t d2zbar(t)) dL*(t), with t d2zbar(t)
    the method's second variation past tau (:meth:`Method.second_variation`)
    and 0 up to it.
    """
    dzbar = _yield_variation(shift, curve)
    tau = curve.spec.tau
    second = curve.spec.method.second_variation(shift, curve)

    def weight(t):
        t = np.asarray(t, dtype=float)
        dz = np.asarray(dzbar(t), dtype=float)
        out = t * t * dz * dz
        if second is not None:
            above = t > tau
            out[above] -= second(t[above])
        return out

    return stieltjes_integral(curve, flow, weight, shift.breakpoints_between(0.0, curve.horizon))
