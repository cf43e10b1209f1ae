"""The method table: each extrapolation method as one object.

The paper's unit is the method: a map z -> zbar that keeps the market
curve z up to its last liquid point tau and extends it past tau, its
Gateaux variation dzbar[Dz], the bond hedge that matches that variation,
and its sensitivity to the ultimate forward rate (ufr). :data:`METHODS`
holds one :class:`Method` per kind, selected by ``MethodSpec.kind``;
the entries' docstrings say what each kind does. An entry holds every
fact that depends on the kind: the spec rules and glue check, its own
integral anchors, the level its extension holds past tau, the extension,
dzbar and t d2zbar past tau along a shift, the hedge plan, and the UFR
closed form with its bounds. The UFR hook is two methods:
``ufr_weights`` declares the weights w (with their breakpoints, all among
the curve's) whose integrals against dL* the closed form reads, and
``ufr_closed_form`` combines them. ``ufr_sensitivity`` integrates every
weight as a row of its one stacked pass, each row bit for bit the
weight's standalone integral, because both follow the density rule of
:func:`curvehedge.curves._density_integrals`. M2 and M4 hold M1's and
M3's shapes at a market level instead of the ufr, so they reuse those
extensions. A kind without a variation, plan or UFR form says so in its
entry, with its error's message. A new method is one entry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curves import DiscountedFlow, ForwardCurve, _nonzero_pv, excess_weight, stieltjes_integral
from .errors import DefectiveCurveError, DomainError

M1 = "M1"
M2 = "M2"
M3 = "M3"
M4 = "M4"
M5_SFSA = "M5_SFSA"
M6_SW_CONTINUOUS = "M6_SW_continuous"
M6_SW_DISCRETE = "M6_SW_discrete"

PLAN_PERFECT = "perfect"
PLAN_FIRST_ORDER = "first_order"
PLAN_INFEASIBLE = "infeasible"


def sw_factor(u, g, alpha: float):
    """The Smith-Wilson factor 1 + g (1 - e^{-alpha u}) / alpha.

    ``u`` is the time past tau and ``g`` is ufr - f(tau). The continuous
    version's discount factor is e^{-ufr u} D(tau) times this factor, so
    the curve is defective wherever the factor is nonpositive.
    """
    return 1.0 + g * (1.0 - np.exp(-alpha * u)) / alpha


def sw_variation_coefficient(t, tau: float, alpha: float, ufr: float, f_tau: float):
    """Coefficient of Delta-f(tau) in the Smith-Wilson first variation.

    c(t) = [(1 - e^{-alpha (t-tau)}) / (alpha t)] / [1 + (ufr - f_tau)(1 - e^{-alpha (t-tau)}) / alpha]
    """
    t = np.asarray(t, dtype=float)
    phi = (1.0 - np.exp(-alpha * (t - tau))) / alpha
    out = phi / (t * sw_factor(t - tau, ufr - f_tau, alpha))
    return float(out) if out.ndim == 0 else out


def piecewise(t, at, below, above):
    """``below`` on the times t <= at and ``above`` on the rest.

    Each is called only with the times of its own side, and not at all
    when there are none; both return an array or a tuple of arrays, or
    for a float time a value or a tuple of them. Arrays may lead with a
    scenario axis, which the result keeps.
    """
    if isinstance(t, float):
        return below(t) if t <= at else above(t)
    low = t <= at
    if low.all():
        return below(t)
    high = ~low
    if high.all():
        return above(t)
    low_values, high_values = below(t[low]), above(t[high])
    if isinstance(low_values, tuple):
        return tuple(_interleaved(low, high, a, b) for a, b in zip(low_values, high_values))
    return _interleaved(low, high, low_values, high_values)


def _interleaved(low, high, low_values, high_values):
    out = np.empty(low_values.shape[:-1] + low.shape)
    # through the transposes the mask indexes the first axis, numpy's fast
    # path, for one row of values or a row per scenario
    out.T[low] = low_values.T
    out.T[high] = high_values.T
    return out


def _filled(curve, t, value):
    """``value`` at the times t, in a row per scenario of a stacked ``curve``."""
    shape = t.shape if isinstance(t, np.ndarray) else ()
    out = np.empty(shape if curve.rows is None else (curve.rows,) + shape)
    out[...] = value
    return out


def _check_horizon(spec, horizon: float):
    if not spec.tau <= horizon < np.inf:  # written so that a NaN horizon fails it too
        raise DomainError(f"horizon must be finite and not precede tau, got {horizon}")


def _times(t):
    return np.asarray(t, dtype=float)


class Method:
    """One extrapolation method, the base of the table's entries.

    A glued entry's ``zero_yield``, ``forward`` and ``discount`` extend an
    :class:`ExtrapolatedCurve` at times past tau. They read its anchors
    (``z_tau``, ``f_tau``, ``d_tau``), its market curve ``eff`` and its
    ``ufr``, the level that :meth:`level` sets: a float, or a ``(rows, 1)``
    column for a family along it. ``yield_variation`` and
    ``second_variation`` give functions of the times te past tau, with
    values shaped like the times and the shift's quantities at tau read
    once.
    """

    kind = None
    #: the spec needs a finite ufr (else it must not give one)
    takes_ufr = True
    #: the spec needs kappa > tau
    needs_kappa = False
    #: the spec fixes alpha, or gives kappa and epsilon to calibrate it
    smith_wilson = False
    #: a closed-form extension glued to the market curve at tau
    glued = True
    #: the kind of hedge plan; None for a method without one
    plan_kind = None
    #: why the method has no UFR sensitivity, or None
    no_ufr = None

    def check_spec(self, spec):
        """Raise unless ``spec`` configures this method (the spec checks tau and offset)."""
        if self.takes_ufr:
            if spec.ufr is None or not np.isfinite(spec.ufr):
                raise DomainError(f"{spec.kind} requires a finite ufr")
        elif spec.ufr is not None:
            raise DomainError(f"{spec.kind} does not take a ufr")
        # kappa is M5's convergence point and the Smith-Wilson calibration's;
        # alpha and epsilon configure Smith-Wilson alone
        for name in ("kappa", "alpha", "epsilon"):
            read = self.smith_wilson or (name == "kappa" and self.needs_kappa)
            if not read and getattr(spec, name) is not None:
                raise DomainError(f"{spec.kind} does not take {name}")
        if self.needs_kappa and (spec.kappa is None or not spec.kappa > spec.tau):
            raise DomainError("M5 requires kappa > tau")
        if spec.kappa is not None and not spec.kappa > spec.tau:
            raise DomainError("kappa must exceed tau")
        if self.smith_wilson:
            if spec.alpha is None:
                if spec.kappa is None or spec.epsilon is None:
                    raise DomainError("Smith-Wilson needs alpha, or kappa and epsilon to calibrate it")
            elif not (np.isfinite(spec.alpha) and spec.alpha > 0):
                raise DomainError("alpha must be positive")
        if spec.epsilon is not None and not spec.epsilon > 0:
            raise DomainError("epsilon must be positive")
        for name, value in (("kappa", spec.kappa), ("epsilon", spec.epsilon)):
            if value is not None and not np.isfinite(value):
                raise DomainError(f"{name} must be finite")

    def check_glue(self, base: ForwardCurve, spec, horizon: float):
        """Raise unless ``spec`` can glue this extension to ``base`` up to ``horizon``."""
        if base.horizon < spec.tau:
            raise DomainError(f"market curve ends at {base.horizon}, before tau={spec.tau}")
        _check_horizon(spec, horizon)

    def tz_anchors(self, eff: ForwardCurve, spec, anchor):
        """The running integrals of s*z(s) at tau and kappa that the extension reads."""
        return 0.0, 0.0

    def level(self, curve):
        """The level ``curve`` holds past tau, read from its spec and market anchors."""
        return curve.spec.ufr

    def is_defective(self, curve) -> bool:
        return False

    def discount(self, curve, t, zero_yield=None):
        """The discount factor; ``zero_yield`` is the extension's at t, when known."""
        if zero_yield is None:
            zero_yield = self.zero_yield(curve, t)
        return np.exp(-t * zero_yield)

    def second_variation(self, shift, curve):
        """None: the first variation is linear in the shift."""
        return None

    def plan(self, curve, flow, lstar):
        """The lumps (time, amount), densities (start, end, rate, breakpoints)
        and diagnostics of the plan for a flow past tau, whose measure on
        ``curve`` is ``lstar``."""
        raise DomainError(f"no hedge construction for method kind {self.kind!r}")

    def ufr_weights(self, curve):
        """The (weight, breakpoints) pairs whose integrals against dL* the UFR
        closed form reads; each breakpoint is one of the curve's."""
        return ()

    def ufr_closed_form(self, curve, flow, lstar):
        """S in closed form and its lower and upper bounds, each None where
        absent, for a flow whose measure on ``curve`` is ``lstar``; its
        ``integrals`` are those of :meth:`ufr_weights`."""
        return None, None, None


def _infeasible(tau, lstar, coeff):
    """The lump at tau matching the yield exposure, and the forward exposure ``coeff`` no bond matches."""
    total = lstar.total
    diagnostics = {"liability_value": total, "matched_lump_at_tau": total,
                   "unmatched_forward_coefficient": coeff}
    return ((tau, total),), (), diagnostics


class _PinnedYield(Method):
    """M1: long zero yields pinned to the ufr. The extension ignores the
    market, so the empty plan is perfect; no closed form is claimed for
    its UFR sensitivity."""

    kind = M1
    plan_kind = PLAN_PERFECT

    def zero_yield(self, curve, t):
        return _filled(curve, t, curve.ufr)

    forward = zero_yield

    def yield_variation(self, shift, curve):
        return np.zeros_like

    def plan(self, curve, flow, lstar):
        return (), (), {"liability_value": lstar.total}


class _LastYield(_PinnedYield):
    """M2: M1's flat zero yield held at z(tau), the curve's level. One lump
    at tau matches to first order; the oracle varies the level as M1's
    varies the ufr."""

    kind = M2
    takes_ufr = False
    plan_kind = PLAN_FIRST_ORDER

    def level(self, curve):
        return curve.z_tau

    def yield_variation(self, shift, curve):
        dz_tau = shift.delta_z(curve.spec.tau)
        return lambda te: np.full_like(te, dz_tau)

    def plan(self, curve, flow, lstar):
        tau, total = curve.spec.tau, lstar.total
        dollar_dur = stieltjes_integral(curve, flow, _times)
        diagnostics = {"liability_value": total, "leverage": dollar_dur / tau / total}
        return ((tau, dollar_dur / tau),), (), diagnostics

    def ufr_weights(self, curve):
        return ((_times, ()),)

    def ufr_closed_form(self, curve, flow, lstar):
        return lstar.integrals[0] / lstar.total, None, None


class _PinnedForward(Method):
    """M3: long forwards pinned to the ufr. One lump at tau is a perfect
    hedge; S is the excess duration past tau."""

    kind = M3
    plan_kind = PLAN_PERFECT

    def zero_yield(self, curve, t):
        w = curve.spec.tau / t
        return w * curve.z_tau + (1.0 - w) * curve.ufr

    def forward(self, curve, t):
        return _filled(curve, t, curve.ufr)

    def yield_variation(self, shift, curve):
        tau = curve.spec.tau
        dz_tau = shift.delta_z(tau)
        return lambda te: (tau / te) * dz_tau

    def plan(self, curve, flow, lstar):
        return ((curve.spec.tau, lstar.total),), (), {"liability_value": lstar.total}

    def ufr_weights(self, curve):
        return (excess_weight(curve.spec.tau),)

    def ufr_closed_form(self, curve, flow, lstar):
        return lstar.integrals[0] / lstar.total, None, None


class _LastForward(_PinnedForward):
    """M4: M3's flat forward held at f(tau), the curve's level, an exposure
    no bond portfolio matches. No ufr is prescribed, so none is reported."""

    kind = M4
    takes_ufr = False
    plan_kind = PLAN_INFEASIBLE
    no_ufr = "constant forward extrapolation has no ultimate forward rate"

    def level(self, curve):
        return curve.f_tau

    def yield_variation(self, shift, curve):
        tau = curve.spec.tau
        dz_tau = shift.delta_z(tau)
        df_tau = shift.delta_f_at_boundary(tau)
        return lambda te: (tau / te) * dz_tau + (1.0 - tau / te) * df_tau

    def plan(self, curve, flow, lstar):
        tau = curve.spec.tau
        return _infeasible(tau, lstar, stieltjes_integral(curve, flow, lambda t: _times(t) - tau))


class _Blend(Method):
    """M5: forwards blended linearly into the ufr on (tau, kappa]. It reads
    market forwards on (tau, kappa], so the market curve must reach
    kappa; past kappa the extension needs the cached integral and the ufr
    alone. Its plan is a flow spread over (tau, kappa]."""

    kind = M5_SFSA
    needs_kappa = True
    plan_kind = PLAN_FIRST_ORDER

    def check_glue(self, base, spec, horizon):
        if spec.tau <= base.horizon < spec.kappa:
            raise DomainError(
                f"M5 blends market forwards out to kappa={spec.kappa}; "
                f"the market curve ends at {base.horizon}"
            )
        super().check_glue(base, spec, horizon)

    def tz_anchors(self, eff, spec, anchor):
        tz = ForwardCurve.cumulative_time_weighted_yield.body
        return anchor(tz(eff, float(spec.tau))), anchor(tz(eff, float(spec.kappa)))

    def zero_yield(self, curve, t):
        spec, ufr, eff = curve.spec, curve.ufr, curve.eff
        tau, kappa = spec.tau, spec.kappa
        span = kappa - tau

        def blend(s):
            # s lies in (tau, kappa], inside eff's domain
            w = tau / s
            cum_tz, cum_f = eff._integrals(s)
            integral = cum_tz - curve._tz_tau
            return (
                (kappa - s) / span * eff._yield_of(cum_f, s)
                + integral / (s * span)
                + (s - tau) / span * (1.0 - w) * ufr / 2.0
            )

        def beyond(s):
            integral = curve._tz_kappa - curve._tz_tau
            return integral / (s * span) + (1.0 - (tau + kappa) / (2.0 * s)) * ufr

        return piecewise(t, kappa, blend, beyond)

    def forward(self, curve, t):
        spec, ufr = curve.spec, curve.ufr
        kappa = spec.kappa
        span = kappa - spec.tau

        def blend(s):
            return (kappa - s) / span * curve.eff.forward_rate(s) + (s - spec.tau) / span * ufr

        return piecewise(t, kappa, blend, lambda s: _filled(curve, s, ufr))

    def yield_variation(self, shift, curve):
        tau, kappa = curve.spec.tau, curve.spec.kappa
        span = kappa - tau
        tw_tau = shift.time_weighted_cumulative(tau)

        def extension(te):
            clipped = np.minimum(te, kappa)
            integral = shift.time_weighted_cumulative(clipped) - tw_tau
            blend = np.where(te <= kappa, (kappa - te) / span * shift.delta_z(clipped), 0.0)
            return blend + integral / (te * span)

        return extension

    def plan(self, curve, flow, lstar):
        tau, kappa = curve.spec.tau, curve.spec.kappa
        span = kappa - tau
        total = lstar.total

        def density(lo, hi, rate):
            return (lo, hi, rate, tuple(curve.base.breakpoints_between(lo, hi).tolist()))

        lumps = []
        for t, amount in flow.lumps:
            if tau < t <= kappa:
                weight = (kappa - t) / span
                if weight != 0.0:  # a lump exactly at kappa is carried by the density
                    lumps.append((t, weight * float(curve.discount_factor(t)) * amount))

        # the roll-down term (L*_T - L*_t) / (kappa - tau) on (tau, kappa] is
        # cut at the lumps and density ends inside
        cuts = {tau, kappa}
        cuts.update(t for t, _ in flow.lumps if tau < t < kappa)
        densities, covered = [], []
        for a, b, rate in flow.densities:
            lo, hi = max(a, tau), min(b, kappa)
            if lo < hi:
                covered.append((lo, hi))
                cuts.update((lo, hi))
                densities.append(
                    density(
                        lo,
                        hi,
                        lambda s, rate=rate: (kappa - np.asarray(s, dtype=float))
                        / span
                        * np.asarray(curve.discount_factor(s), dtype=float)
                        * rate,
                    )
                )

        cuts = sorted(cuts)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            inside_density = any(a < hi and lo < b for a, b in covered)
            if inside_density:
                densities.append(
                    density(
                        lo,
                        hi,
                        lambda s, _l=lstar: (_l.total - _l.cumulative(np.asarray(s, dtype=float)))
                        / span,
                    )
                )
            else:
                rate = (total - lstar.cumulative(0.5 * (lo + hi))) / span
                densities.append(density(lo, hi, rate))

        return lumps, densities, {"support": (tau, kappa), "liability_value": total}

    def ufr_weights(self, curve):
        tau, kappa = curve.spec.tau, curve.spec.kappa
        span = kappa - tau

        def weight(t):
            t = _times(t)
            inside = (t - tau) ** 2 / (2.0 * span)
            beyond = t - 0.5 * (tau + kappa)
            return np.where(t <= kappa, inside, beyond)

        return (weight, (kappa,)), excess_weight(tau), excess_weight(kappa)

    def ufr_closed_form(self, curve, flow, lstar):
        span = curve.spec.kappa - curve.spec.tau
        total = lstar.total
        closed, exc_tau, exc_kappa = (value / total for value in lstar.integrals)
        lower = exc_kappa + span * (total - lstar.cumulative(curve.spec.kappa)) / (2.0 * total)
        return closed, lower, 0.5 * (exc_tau + exc_kappa)


class _SmithWilson(Method):
    """M6 continuous: the Smith-Wilson kernel interpolant conditioned on the
    whole curve up to tau, alpha held fixed. It is exposed to the forward
    at tau, which no bond portfolio matches; its UFR bounds come from the
    M3 curves at ufr and ufr + alpha."""

    kind = M6_SW_CONTINUOUS
    smith_wilson = True
    plan_kind = PLAN_INFEASIBLE

    def check_glue(self, base, spec, horizon):
        if spec.alpha is None:
            raise DomainError("a Smith-Wilson curve needs alpha; extrapolate() calibrates a missing one")
        super().check_glue(base, spec, horizon)

    def is_defective(self, curve) -> bool:
        spec = curve.spec
        factor = sw_factor(curve.horizon - spec.tau, curve.ufr - curve.f_tau, spec.alpha)
        return bool(np.any(factor <= 0.0))

    def zero_yield(self, curve, t):
        spec, ufr = curve.spec, curve.ufr
        tau = spec.tau
        w = tau / t
        factor = sw_factor(t - tau, ufr - curve.f_tau, spec.alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_term = np.where(factor > 0.0, np.log(np.where(factor > 0.0, factor, 1.0)), np.nan)
        return w * curve.z_tau + (1.0 - w) * ufr - log_term / t

    def forward(self, curve, t):
        spec, ufr = curve.spec, curve.ufr
        u = t - spec.tau
        g = ufr - curve.f_tau
        factor = sw_factor(u, g, spec.alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            return ufr - g * np.exp(-spec.alpha * u) / factor

    def discount(self, curve, t, zero_yield=None):
        # product form stays valid (negative) for defective parameters
        spec, ufr = curve.spec, curve.ufr
        u = t - spec.tau
        return np.exp(-ufr * u) * curve.d_tau * sw_factor(u, ufr - curve.f_tau, spec.alpha)

    def yield_variation(self, shift, curve):
        spec = curve.spec
        tau = spec.tau
        dz_tau = shift.delta_z(tau)
        df_tau = shift.delta_f_at_boundary(tau)
        f_tau = curve.f_tau

        def extension(te):
            if np.any(sw_factor(te - tau, spec.ufr - f_tau, spec.alpha) <= 0.0):
                raise DefectiveCurveError(
                    "Smith-Wilson discount factor is nonpositive at the requested time; "
                    "the variation is undefined there"
                )
            c = sw_variation_coefficient(te, tau, spec.alpha, spec.ufr, f_tau)
            return (tau / te) * dz_tau + c * df_tau

        return extension

    def second_variation(self, shift, curve):
        """te -> t d2zbar(te) = (t c(t) Df(tau))^2: the yield is nonlinear in f(tau)."""
        spec = curve.spec
        df_tau = shift.delta_f_at_boundary(spec.tau)

        def extension(te):
            c = sw_variation_coefficient(te, spec.tau, spec.alpha, spec.ufr, curve.f_tau)
            return (te * c * df_tau) ** 2

        return extension

    def plan(self, curve, flow, lstar):
        spec = curve.spec
        c = lambda t: sw_variation_coefficient(t, spec.tau, spec.alpha, spec.ufr, curve.f_tau)
        coeff = stieltjes_integral(curve, flow, lambda t: _times(t) * c(t))
        return _infeasible(spec.tau, lstar, coeff)

    def ufr_weights(self, curve):
        return (excess_weight(curve.spec.tau),)

    def ufr_closed_form(self, curve, flow, lstar):
        from .extrapolation import extrapolate  # that module imports this table

        spec, total = curve.spec, lstar.total
        exc_tau = lstar.integrals[0] / total
        # the M3 curves at ufr and ufr + alpha and the first one's excess
        # duration, priced as one stacked pass
        m3 = replace(spec, kind=M3, kappa=None, alpha=None, epsilon=None)
        low_curve = extrapolate(curve.base, m3, curve.horizon)
        family = low_curve.with_ufr([spec.ufr, spec.ufr + spec.alpha])
        bounds = DiscountedFlow(flow, low_curve, family, low_curve.method.ufr_weights(low_curve))
        low_total, high_total = bounds.present_values
        closed = exc_tau - (low_total - high_total) / (spec.alpha * total)
        lower = exc_tau - bounds.integrals[0] / _nonzero_pv(low_curve, flow, low_total)
        return closed, lower, exc_tau


class _SmithWilsonDiscrete(Method):
    """M6 discrete: the fit through the market's discount factors at its
    quote nodes up to tau, built by ``extrapolate`` rather than glued. It
    reproduces its inputs exactly, so no directional formula, plan or UFR
    closed form is stated for it."""

    kind = M6_SW_DISCRETE
    smith_wilson = True
    glued = False
    no_ufr = "closed-form sensitivities cover the continuous Smith-Wilson version"

    def check_glue(self, base, spec, horizon):
        raise DomainError("the discrete Smith-Wilson fit is built by extrapolate()")

    def check_fit(self, spec, horizon: float):
        """Raise unless ``spec`` can be sampled up to ``horizon``."""
        _check_horizon(spec, horizon)

    def yield_variation(self, shift, curve):
        raise DomainError(
            "directional formulas cover the continuous Smith-Wilson version; "
            "the discrete fit reproduces its inputs exactly instead"
        )


METHODS = {
    method.kind: method
    for method in (_PinnedYield(), _LastYield(), _PinnedForward(), _LastForward(), _Blend(),
                   _SmithWilson(), _SmithWilsonDiscrete())
}

ALL_KINDS = tuple(METHODS)
