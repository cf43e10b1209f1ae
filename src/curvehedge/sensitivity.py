"""Sensitivity of liability values to the ultimate forward rate.

S := -(d L*_T / d ufr) / L*_T is a duration with respect to the
prescribed long-term rate. Each method's closed form and bounds are its
entry in the method table (:mod:`curvehedge.methods`). Every closed form
is cross-checked against a generic oracle, :func:`parameter_sensitivity`,
which takes central differences of the present value as the level the
curve holds past tau moves: the ufr, or z(tau) for M2. The
sensitivity is a functional of the extrapolated curve, which holds its
market curve, spec and horizon.

One pass per call, the liability pass of ``hedge`` and ``verify``, which
checks the flow first: the liability value, the oracle's family values
and the closed form's integrals are its rows, for every method. It
prices the family ``curve.with_ufr`` led by the curve's own level, a
stacked curve whose row 0 is the curve, and its weights read that row. A
closed form reads only those rows: M6 continuous's bounds, the M3 curves
at ufr and ufr + alpha, are weights on the curve's own dL*, not prices
on a second curve. Each row is bit for bit its standalone integral,
because :class:`~curvehedge.curves.DiscountedFlow` integrates every
density by the one density rule,
:func:`curvehedge.curves._density_integrals`: every row splits at the
same breakpoints and the quadrature accepts and sums each row on its
own. So the oracle stays an independent twin of the closed form.

Every bound is stated for a flow nonnegative past tau, and a flow with
a negative lump amount or density rate gets no bounds, only S and the
oracle; each entry's ``ufr_closed_form`` states its other premises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CashFlow, present_value
from .errors import DomainError, EvaluationError
from .extrapolation import ExtrapolatedCurve
from .variation import _liability_pass, _richardson


@dataclass(frozen=True)
class UfrSensitivityReport:
    """Sensitivity S with its closed form, bounds, and oracle cross-check.

    ``closed_form`` is None for the baseline method, which has no closed
    form and is computed by the generic oracle alone. ``lower``/``upper``
    are present only where bounds exist, on a flow nonnegative past tau:
    both for M5, and for M6 continuous the upper one, with the lower one
    where ufr >= f(tau).
    """

    method: str
    S: float
    oracle: float
    rel_residual: float
    closed_form: float | None = None
    lower: float | None = None
    upper: float | None = None

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "S": self.S,
            "lower": self.lower,
            "upper": self.upper,
            "oracle": self.oracle,
            "rel_residual": self.rel_residual,
        }


def _steps(theta: float):
    """The oracle's step h at theta and the values theta +- h, theta +- h/2."""
    h = 5e-5 * (abs(theta) + 1.0)
    half = h / 2.0
    return h, [theta + h, theta - h, theta + half, theta - half]


def _central_limit(h: float, values, theta: float) -> float:
    """One Richardson step on the central differences of the values at
    theta +- h and theta +- h/2, which cancels their h^2 term."""
    plus, minus, plus_half, minus_half = values
    half = h / 2.0
    d1 = (plus - minus) / (2.0 * h)
    d2 = (plus_half - minus_half) / (2.0 * half)
    out, _ = _richardson([d1, d2], (4.0,))
    if not np.isfinite(out):
        raise EvaluationError(f"non-finite parameter sensitivity near theta={theta}")
    return float(out)


def parameter_sensitivity(family, flow: CashFlow, theta: float) -> float:
    """d/d theta of the liability value for a curve family theta -> zbar(theta).

    ``family`` maps an array of parameter values to one stacked curve with
    a row per value. Central differences of the present value itself,
    (PV(theta + h) - PV(theta - h)) / 2h, at h = 5e-5 (|theta| + 1) and at
    h/2, combined by one Richardson step, which cancels the h^2 term; the
    four present values are the rows of one present value of the family
    at theta +- h and theta +- h/2, each bit for bit that of its own
    curve. Each is a smooth integral, so its quadrature stops at the
    panels the integrand needs; the step balances the O(h^4) truncation
    left after the Richardson step against roundoff. A non-finite value is a pass's DomainError.
    """
    h, thetas = _steps(theta)
    return _central_limit(h, present_value(family(np.array(thetas)), flow).tolist(), theta)


def ufr_sensitivity(curve: ExtrapolatedCurve, flow: CashFlow) -> UfrSensitivityReport:
    """Per-method sensitivity of the liability value to the long-term rate.

    The one pass (see the module docstring) is the
    :class:`~curvehedge.curves.DiscountedFlow` of the family
    ``curve.with_ufr`` at the curve's level ``ufr``, whose row 0 is
    ``curve`` itself and gives L*, and at the four steps
    :func:`parameter_sensitivity` would price, with one row on row 0 per
    weight of the method's :meth:`~curvehedge.methods.Method.ufr_weights`.
    A method without a closed form (M1) reports the oracle's value. After
    the ``no_ufr`` check, the pass checks the flow as ``hedge`` does. A
    flow with a negative amount or rate gets no bounds.
    """
    spec = curve.spec
    method = spec.method
    if method.no_ufr:
        raise DomainError(method.no_ufr)
    h, thetas = _steps(curve.ufr)
    lstar = _liability_pass(curve, flow, method.ufr_weights(curve), curve.with_ufr([curve.ufr, *thetas]))
    oracle = -_central_limit(h, lstar.present_values[1:], curve.ufr) / lstar.total
    closed, lower, upper = method.ufr_closed_form(curve, lstar)
    if any(a < 0.0 for _, a in flow.lumps) or any(r < 0.0 for _, _, r in flow.densities):
        lower = upper = None
    value = oracle if closed is None else closed

    scale = max(abs(value), abs(oracle), 1e-12)
    return UfrSensitivityReport(
        method=spec.kind,
        S=value,
        oracle=oracle,
        rel_residual=abs(value - oracle) / scale,
        closed_form=closed,
        lower=lower,
        upper=upper,
    )
