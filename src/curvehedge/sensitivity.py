"""Sensitivity of liability values to the ultimate forward rate.

S := -(d L*_T / d ufr) / L*_T is a duration with respect to the
prescribed long-term rate: closed forms exist per method (the plain
duration for constant-yield extrapolation, the excess duration above tau
for pinned forwards, blended expressions with two-sided bounds for the
phased and Smith-Wilson methods). Every closed form is cross-checked
against a generic oracle, :func:`parameter_sensitivity`, which takes
central differences of the present value along the curve family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    CashFlow,
    DiscountedFlow,
    ForwardCurve,
    excess_duration,
    present_value,
)
from .errors import DomainError, EvaluationError
from .extrapolation import (
    DEFAULT_HORIZON,
    M1,
    M2,
    M3,
    M4,
    M5_SFSA,
    M6_SW_DISCRETE,
    MethodSpec,
    extrapolate,
)


@dataclass(frozen=True)
class UfrSensitivityReport:
    """Sensitivity S with its closed form, bounds, and oracle cross-check.

    ``closed_form`` is None for the baseline method, which has no closed
    form and is computed by the generic oracle alone. ``lower``/``upper``
    are present only where two-sided bounds exist (M5, M6).
    """

    method: str
    S: float
    oracle: float
    rel_residual: float
    closed_form: float | None = None
    lower: float | None = None
    upper: float | None = None
    oracle_only: bool = False

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "S": self.S,
            "lower": self.lower,
            "upper": self.upper,
            "oracle": self.oracle,
            "rel_residual": self.rel_residual,
        }


def parameter_sensitivity(family, flow: CashFlow, theta: float) -> float:
    """d/d theta of the liability value for a curve family theta -> zbar(theta).

    ``family`` maps an array of parameter values to one stacked curve with
    a row per value. Central differences of the present value itself,
    (PV(theta + h) - PV(theta - h)) / 2h, at h = 5e-5 (|theta| + 1) and at
    h/2, combined by one Richardson step; the four present values are the
    rows of one present value of the family at theta +- h and theta +- h/2,
    each bit for bit that of its own curve. Each is a smooth integral, so
    its quadrature stops at the panels the integrand needs; the step
    balances the O(h^4) truncation left after the Richardson step against
    roundoff.
    """
    h = 5e-5 * (abs(theta) + 1.0)
    half = h / 2.0
    thetas = np.array([theta + h, theta - h, theta + half, theta - half])
    plus, minus, plus_half, minus_half = present_value(family(thetas), flow).tolist()
    d1 = (plus - minus) / (2.0 * h)
    d2 = (plus_half - minus_half) / (2.0 * half)
    out = (4.0 * d2 - d1) / 3.0
    if not np.isfinite(out):
        raise EvaluationError(f"non-finite parameter sensitivity near theta={theta}")
    return float(out)


def _ufr_family(curve):
    """The curve family and base parameter of the generic oracle, around the
    extrapolated ``curve``: the family maps an array of ufr values to one
    stacked curve over the market anchors of ``curve``
    (:meth:`ExtrapolatedCurve.with_ufr`)."""
    spec = curve.spec
    if spec.kind == M2:
        # constant-yield extrapolation: the level itself plays the
        # long-term-rate role, and varying it is the M1 family
        curve = curve.with_spec(MethodSpec(M1, tau=spec.tau, ufr=curve.z_tau, offset=spec.offset))
    return curve.with_ufr, curve.spec.ufr


def ufr_sensitivity(
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    horizon: float = DEFAULT_HORIZON,
) -> UfrSensitivityReport:
    """Per-method sensitivity of the liability value to the long-term rate."""
    if spec.kind == M4:
        raise DomainError("constant forward extrapolation has no ultimate forward rate")
    if spec.kind == M6_SW_DISCRETE:
        raise DomainError("closed-form sensitivities cover the continuous Smith-Wilson version")
    if flow.has_mass_at_or_before(spec.tau):
        raise DomainError("sensitivities are stated for liabilities strictly beyond tau")

    curve = extrapolate(z, spec, horizon)
    lstar = DiscountedFlow(flow, curve)
    total = lstar.total
    if not total > 0.0:
        raise DomainError("liabilities must have positive present value")
    tau = spec.tau

    family, theta0 = _ufr_family(curve)
    oracle = -parameter_sensitivity(family, flow, theta0) / total

    lower = upper = closed = None
    oracle_only = False

    if spec.kind == M1:
        # no closed form is claimed for the baseline method
        value = oracle
        oracle_only = True
    elif spec.kind == M2:
        closed = lstar.integrate(lambda t: np.asarray(t, dtype=float)) / total
        value = closed
    elif spec.kind == M3:
        closed = excess_duration(curve, flow, tau, total)
        value = closed
    elif spec.kind == M5_SFSA:
        kappa = spec.kappa
        span = kappa - tau

        def weight(t):
            t = np.asarray(t, dtype=float)
            inside = (t - tau) ** 2 / (2.0 * span)
            beyond = t - 0.5 * (tau + kappa)
            return np.where(t <= kappa, inside, beyond)

        closed = lstar.integrate(weight, breakpoints=(kappa,)) / total
        value = closed
        exc_tau = excess_duration(curve, flow, tau, total)
        exc_kappa = excess_duration(curve, flow, kappa, total)
        upper = 0.5 * (exc_tau + exc_kappa)
        lower = exc_kappa + span * (total - lstar.cumulative(kappa)) / (2.0 * total)
    else:  # M6 continuous
        exc_tau = excess_duration(curve, flow, tau, total)
        # the M3 curves at ufr and ufr + alpha, priced as one stack
        low_curve = curve.with_spec(MethodSpec(M3, tau=tau, ufr=spec.ufr, offset=spec.offset))
        bounds = low_curve.with_ufr([spec.ufr, spec.ufr + spec.alpha])
        low_total, high_total = present_value(bounds, flow).tolist()
        drop = low_total - high_total
        closed = exc_tau - drop / (spec.alpha * total)
        value = closed
        upper = exc_tau
        lower = exc_tau - excess_duration(low_curve, flow, tau, low_total)

    scale = max(abs(value), abs(oracle), 1e-12)
    return UfrSensitivityReport(
        method=spec.kind,
        S=value,
        oracle=oracle,
        rel_residual=abs(value - oracle) / scale,
        closed_form=closed,
        lower=lower,
        upper=upper,
        oracle_only=oracle_only,
    )
