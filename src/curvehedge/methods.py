"""The method table: each extrapolation method as one object.

The paper's unit is the method: a map z -> zbar that keeps the market
curve z up to its last liquid point tau and extends it past tau, its
Gateaux variation dzbar[Dz], the bond hedge that matches that variation,
and its sensitivity to the ultimate forward rate (ufr). :data:`METHODS`
holds one :class:`Method` per kind, selected by ``MethodSpec.kind``;
the entries' docstrings say what each kind does. An entry holds every
fact that depends on the kind: the spec rules and glue check, its own
integral anchors, the level its extension holds past tau, the extension
and the lower bounds on its forward and discount-factor sign past tau,
dzbar and t d2zbar past tau along a shift with the market reach past
which they are smooth, the premises a flow must meet on its curve, the
hedge plan, and the UFR closed form with its bounds.
``check_premises`` rejects a flow that breaks the method's premises
before any liability pass. The UFR hook is two
methods: ``ufr_weights`` declares the weights w
(with their breakpoints, all among the curve's) whose integrals against
dL* the closed form reads, and ``ufr_closed_form`` combines them: an
entry builds no curve and prices nothing, so a bound on another curve
is a weight on this one's dL*.
``ufr_sensitivity`` integrates every
weight as a row of its one stacked pass, each row bit for bit the
weight's standalone integral, because both follow the density rule of
:func:`curvehedge.curves._density_integrals`. The plan hook is alike:
``plan_weights`` declares the integrals ``plan`` reads from the pass that
prices the liability. M2 and M4 hold M1's and
M3's shapes at a market level instead of the ufr, so they reuse those
extensions. A kind without a variation, plan or UFR form says so in its
entry, with its error's message. A new method is one entry.
"""

from __future__ import annotations

import numpy as np

from .curves import ForwardCurve, excess_weight
from .errors import DefectiveCurveError, DomainError, UndefinedDurationError

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

#: a bound read at a piece's two ends proves a sign only by this many times
#: the size of the terms its values are computed from: a value computed in
#: a few roundings is off by a few ulps (about 1e-15) of those terms
SIGN_MARGIN = 1e-12


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


def ratio_form_bounds(forward, factor, level, numerator, factor_scale):
    """Lower bounds on a forward ``level - n(t) / p(t)`` and on the factor
    p(t) that gives the discount factor its sign, over a piece where p is
    monotone and the forward is monotone while p has no zero, from their
    computed values ``forward`` and ``factor`` at the piece's two ends.

    Each bound is the least end value less ``SIGN_MARGIN`` times the size
    of the terms its values are computed from: ``factor_scale`` for p, and
    for the forward ``level`` and the bound ``numerator`` on |n|, grown by
    the relative error of p. A factor bound that does not clear 0 leaves
    the forward without a bound (-inf): p may vanish inside the piece.
    """
    p_low = np.min(factor)
    factor_bound = p_low - SIGN_MARGIN * factor_scale
    if not factor_bound > 0.0:
        return -np.inf, factor_bound
    scale = np.max(np.abs(level)) + numerator / p_low * (1.0 + factor_scale / p_low)
    return np.min(forward) - SIGN_MARGIN * scale, factor_bound


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
    """``value`` at the times t, in a row per scenario of a stacked ``curve`` or shift."""
    shape = t.shape if isinstance(t, np.ndarray) else ()
    out = np.empty(shape if curve.rows is None else (curve.rows,) + shape)
    out[...] = value
    return out


def _check_horizon(spec, horizon: float):
    if not spec.tau <= horizon < np.inf:  # written so that a NaN horizon fails it too
        raise DomainError(f"horizon must be finite and not precede tau, got {horizon}")


class Method:
    """One extrapolation method, the base of the table's entries.

    A glued entry's ``zero_yield``, ``forward`` and ``discount`` extend an
    :class:`ExtrapolatedCurve` at times past tau. They read its anchors
    (``z_tau``, ``f_tau``, ``d_tau``), its market curve ``eff`` and its
    ``ufr``, the level that :meth:`level` sets: a float, or a ``(rows, 1)``
    column for a family along it. :meth:`sign_bounds` bounds the
    extension's forward and discount-factor sign from below, the kind's one
    sign rule. ``yield_variation`` and ``second_variation`` give functions
    of the times te past tau, shaped like the times after a row per shift
    of a stacked shift, whose quantities at tau they read once, as columns.
    An entry with a ``plan_kind`` has a ``plan(curve, flow, lstar)``:
    the lumps (time, amount), densities (start, end, rate, breakpoints)
    and diagnostics of the plan for a flow past tau, whose measure on
    ``curve`` is ``lstar``; its ``integrals`` start with those of
    :meth:`plan_weights`, which is called first.
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

    def reach(self, spec):
        """The market reach: the last time whose market curve the extension
        reads. Past it, dzbar and t d2zbar along a shift read the shift only
        at times up to the reach, so they are smooth in t there."""
        return spec.tau

    def sign_bounds(self, curve):
        """The pieces (start, end, forward bound, discount bound) of the
        extension past tau. A nonnegative forward bound proves the computed
        forward nonnegative at every time of its closed piece, and a
        positive discount bound proves positive the factor whose sign is
        the discount factor's there; a bound proves nothing otherwise. A
        bound holds for every row of a stacked curve.

        This rule is the kinds' that hold the forward at the level past
        tau, with a discount factor exp(-t zbar) whose factor is 1.
        """
        return ((curve.spec.tau, curve.horizon, np.min(curve.ufr), 1.0),)

    @np.errstate(over="ignore")  # an infinite factor is the defect scan's to name
    def discount(self, curve, t, zero_yield=None):
        """The discount factor; ``zero_yield`` is the extension's at t, when known."""
        if zero_yield is None:
            zero_yield = self.zero_yield(curve, t)
        return np.exp(-t * zero_yield)

    def second_variation(self, shift, curve):
        """None: the first variation is linear in the shift."""
        return None

    def plan_weights(self, curve):
        """The (weight, breakpoints) pairs whose integrals against dL* the
        plan reads, as ``lstar.integrals``; each breakpoint is one of the
        curve's. A kind without a plan raises here, before any integral."""
        if self.plan_kind is None:
            raise DomainError(f"no hedge construction for method kind {self.kind!r}")
        return ()

    def ufr_weights(self, curve):
        """The (weight, breakpoints) pairs whose integrals against dL* the UFR
        closed form reads; each breakpoint is one of the curve's."""
        return ()

    def check_premises(self, curve, flow):
        """Raise where ``flow`` on ``curve`` breaks a premise of the plan, the
        variation or :meth:`ufr_closed_form`; every liability pass calls it
        first, so a defect is named before the sign of L* it may have turned."""

    def ufr_closed_form(self, curve, lstar):
        """S in closed form and its lower and upper bounds, each None where
        absent, read from ``lstar``, the flow's measure on ``curve``, whose
        ``integrals`` are those of :meth:`ufr_weights`; it prices nothing."""
        return None, None, None


def _infeasible_plan(self, curve, flow, lstar):
    """The plan of M4 and M6 continuous: the lump at tau matching the yield
    exposure, and the forward exposure, the integral of the plan weight, that
    no bond matches."""
    total = lstar.total
    diagnostics = {"liability_value": total, "matched_lump_at_tau": total,
                   "unmatched_forward_coefficient": lstar.integrals[0]}
    return ((curve.spec.tau, total),), (), diagnostics


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
        return lambda te: _filled(shift, te, 0.0)

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
        return lambda te: _filled(shift, te, dz_tau)

    def plan_weights(self, curve):
        return ((lambda t: t, ()),)

    def plan(self, curve, flow, lstar):
        tau, total = curve.spec.tau, lstar.total
        dollar_dur = lstar.integrals[0]
        diagnostics = {"liability_value": total, "leverage": dollar_dur / tau / total}
        return ((tau, dollar_dur / tau),), (), diagnostics

    # the UFR closed form reads the same dollar duration
    ufr_weights = plan_weights

    def ufr_closed_form(self, curve, lstar):
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

    def ufr_closed_form(self, curve, lstar):
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

    def plan_weights(self, curve):
        tau = curve.spec.tau
        return ((lambda t: t - tau, ()),)

    plan = _infeasible_plan


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

    def reach(self, spec):
        return spec.kappa

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

    def sign_bounds(self, curve):
        """On [tau, kappa] the forward is a blend with nonnegative weights of
        the market forward and the ufr, so it is nonnegative where both
        are; past kappa it is the ufr."""
        tau, kappa = curve.spec.tau, curve.spec.kappa
        starts, ends, floors, _ = curve.eff._sign_bounds()
        blended = (starts <= kappa) & (ends > tau)
        ufr = np.min(curve.ufr)
        return (
            (tau, kappa, min(ufr, np.min(floors[..., blended])), 1.0),
            (kappa, curve.horizon, ufr, 1.0),
        )

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
                discounted = lambda s, rate=rate: (kappa - s) / span * curve.discount_factor(s) * rate
                densities.append(density(lo, hi, discounted))

        cuts = sorted(cuts)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            inside_density = any(a < hi and lo < b for a, b in covered)
            if inside_density:
                densities.append(density(lo, hi, lambda s: (total - lstar.cumulative(s)) / span))
            else:
                rate = (total - lstar.cumulative(0.5 * (lo + hi))) / span
                densities.append(density(lo, hi, rate))

        return lumps, densities, {"support": (tau, kappa), "liability_value": total}

    def ufr_weights(self, curve):
        tau, kappa = curve.spec.tau, curve.spec.kappa
        span = kappa - tau

        def weight(t):
            inside = (t - tau) ** 2 / (2.0 * span)
            beyond = t - 0.5 * (tau + kappa)
            return np.where(t <= kappa, inside, beyond)

        # the mass past kappa: a lump at kappa itself is not counted
        past = (lambda t: (t > kappa).astype(float), (kappa,))
        return (weight, (kappa,)), excess_weight(tau), excess_weight(kappa), past

    def ufr_closed_form(self, curve, lstar):
        span = curve.spec.kappa - curve.spec.tau
        closed, exc_tau, exc_kappa, past = (value / lstar.total for value in lstar.integrals)
        return closed, exc_kappa + span * past / 2.0, 0.5 * (exc_tau + exc_kappa)


class _SmithWilson(Method):
    """M6 continuous: the Smith-Wilson kernel interpolant conditioned on the
    whole curve up to tau, alpha held fixed. It is exposed to the forward
    at tau, which no bond portfolio matches. Its UFR bounds come from the
    M3 curves at ufr and ufr + alpha, which past tau discount by D / phi
    and D e^{-alpha (t - tau)} / phi, with D this curve's discount factor
    and phi its Smith-Wilson factor: they are weights on its own dL*."""

    kind = M6_SW_CONTINUOUS
    smith_wilson = True
    plan_kind = PLAN_INFEASIBLE

    def check_glue(self, base, spec, horizon):
        if spec.alpha is None:
            raise DomainError("a Smith-Wilson curve needs alpha; extrapolate() calibrates a missing one")
        super().check_glue(base, spec, horizon)

    def sign_bounds(self, curve):
        """The Smith-Wilson factor is monotone in t past tau, and so is the
        forward wherever the factor has no zero: the ends bound both."""
        spec = curve.spec
        tau, alpha = spec.tau, spec.alpha
        t = np.array([tau, curve.horizon])
        g = curve.ufr - curve.f_tau
        # sw_factor is 1 + g (1 - e) / alpha, whose terms are at most 1 + |g| / alpha
        gap = np.max(np.abs(g))
        forward, discount = ratio_form_bounds(
            self.forward(curve, t), sw_factor(t - tau, g, alpha), curve.ufr, gap, 1.0 + gap / alpha
        )
        return ((tau, curve.horizon, forward, discount),)

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

    @np.errstate(over="ignore", invalid="ignore")  # as the base rule's
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

    def plan_weights(self, curve):
        spec = curve.spec
        c = lambda t: sw_variation_coefficient(t, spec.tau, spec.alpha, spec.ufr, curve.f_tau)
        return ((lambda t: t * c(t), ()),)

    plan = _infeasible_plan

    def ufr_weights(self, curve):
        """u = (t - tau)+, then the rows of the M3 bound curves: 1 / phi(u),
        e^{-alpha u} / phi(u) and u / phi(u), which read 1, 1 and 0 up to
        tau, where the M3 curves are the market curve: a zero of phi
        before tau (where ufr > f(tau)) puts no pole in them."""
        tau, alpha = curve.spec.tau, curve.spec.alpha
        g = curve.ufr - curve.f_tau
        past, at_tau = excess_weight(tau)
        low = lambda u: 1.0 / sw_factor(u, g, alpha)
        return (
            (past, at_tau),
            (lambda t: low(past(t)), at_tau),
            (lambda t: np.exp(-alpha * past(t)) * low(past(t)), at_tau),
            (lambda t: past(t) * low(past(t)), at_tau),
        )

    def check_premises(self, curve, flow):
        """phi is monotone past tau, so its sign at the flow's last time is
        its sign on the flow's support; a nonpositive one raises. An empty
        flow has no support."""
        spec, last = curve.spec, flow.latest_time
        if last > spec.tau and not sw_factor(last - spec.tau, curve.ufr - curve.f_tau, spec.alpha) > 0.0:
            raise DefectiveCurveError(
                f"Smith-Wilson discount factor is nonpositive at t={last:g}, "
                "the flow's last time; the curve is defective on the flow's support"
            )

    def ufr_closed_form(self, curve, lstar):
        """S and its bounds for a flow nonnegative past tau on which phi > 0
        (:meth:`check_premises`). There the M3 curves discount by
        D / phi = e^{-ufr u} D(tau) > 0 times 1 and e^{-alpha u}, so
        S <= exc_tau, the upper bound. The lower bound also needs phi >= 1,
        that is g = ufr - f(tau) >= 0; it is None for g < 0."""
        spec, total = curve.spec, lstar.total
        g = curve.ufr - curve.f_tau
        excess, low, high, low_excess = lstar.integrals
        exc_tau = excess / total
        closed = exc_tau - (low - high) / (spec.alpha * total)
        if g < 0.0:
            return closed, None, exc_tau
        if low == 0.0:
            raise UndefinedDurationError("present value on the M3 bound curve is zero")
        return closed, exc_tau - low_excess / low, exc_tau


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
