"""Sensitivity of liability values to the ultimate forward rate.

S := -(d L*_T / d ufr) / L*_T is a duration with respect to the
prescribed long-term rate: closed forms exist per method (the plain
duration for constant-yield extrapolation, the excess duration above tau
for pinned forwards, blended expressions with two-sided bounds for the
phased and Smith-Wilson methods). Every closed form is cross-checked
against a generic finite-difference parameter sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curves import (
    CashFlow,
    DiscountedFlow,
    ForwardCurve,
    excess_duration,
    present_value,
    stieltjes_integral,
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

    Evaluates -int t (d zbar/d theta) dL* with the yield derivative taken
    by central differences (step 1e-6 scaled by |theta| + 1) and one
    Richardson step. dL* is discounted by the base-theta curve.
    """
    h = 1e-6 * (abs(theta) + 1.0)
    base = family(theta)

    def estimate(step):
        plus = family(theta + step)
        minus = family(theta - step)

        def weight(t):
            t = np.asarray(t, dtype=float)
            dz = (np.asarray(plus.zero_yield(t), dtype=float)
                  - np.asarray(minus.zero_yield(t), dtype=float)) / (2.0 * step)
            return t * dz

        return -stieltjes_integral(base, flow, weight)

    d1 = estimate(h)
    d2 = estimate(h / 2.0)
    out = (4.0 * d2 - d1) / 3.0
    if not np.isfinite(out):
        raise EvaluationError(f"non-finite parameter sensitivity near theta={theta}")
    return float(out)


def _ufr_family(spec: MethodSpec, z: ForwardCurve, horizon: float):
    """The curve family and base parameter for the generic oracle."""
    if spec.kind == M2:
        # constant-yield extrapolation: the level itself plays the
        # long-term-rate role, and varying it is the M1 family
        theta0 = float(spec.market(z).zero_yield(spec.tau))
        proto = MethodSpec(M1, tau=spec.tau, ufr=theta0, offset=spec.offset)
        return (lambda theta: extrapolate(z, replace(proto, ufr=theta), horizon)), theta0
    theta0 = spec.ufr
    return (lambda theta: extrapolate(z, replace(spec, ufr=theta), horizon)), theta0


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

    family, theta0 = _ufr_family(spec, z, horizon)
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
        closed = excess_duration(curve, flow, tau)
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
        exc_tau = excess_duration(curve, flow, tau)
        exc_kappa = excess_duration(curve, flow, kappa)
        upper = 0.5 * (exc_tau + exc_kappa)
        lower = exc_kappa + span * (total - lstar.cumulative(kappa)) / (2.0 * total)
    else:  # M6 continuous
        exc_tau = excess_duration(curve, flow, tau)
        low_spec = MethodSpec(M3, tau=tau, ufr=spec.ufr, offset=spec.offset)
        high_spec = replace(low_spec, ufr=spec.ufr + spec.alpha)
        low_curve = extrapolate(z, low_spec, horizon)
        high_curve = extrapolate(z, high_spec, horizon)
        drop = present_value(low_curve, flow) - present_value(high_curve, flow)
        closed = exc_tau - drop / (spec.alpha * total)
        value = closed
        upper = exc_tau
        lower = exc_tau - excess_duration(low_curve, flow, tau)

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
