"""Hedge construction and verification for extrapolated liability values.

A hedge plan is stated as the present-value measure dA* of an asset
flow: lumps (time, discounted amount) plus densities (segment,
discounted rate). Solving the first-order matching condition

    int t Dz(t) dA*(t) = int t dzbar(t)[Dz] dL*(t)

per method gives: nothing for M1 (the extension ignores the market),
single lumps at tau for M2 and M3, a flow spread over (tau, kappa] for
M5, and no solution at all for M4 and the continuous Smith-Wilson
method, whose variation needs the forward rate at tau -- an exposure
only a vanishing-accrual forward rate agreement could isolate. Those
two produce an infeasibility diagnosis instead of a plan.

Plans are stated for liabilities strictly beyond tau; flows at or
before tau are exactly replicable and must be split off by the caller
so the per-method comparison stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CashFlow, CurveShift, DiscountedFlow, ForwardCurve, measure_integral, present_value
from .errors import DomainError, PlanKindError
from .extrapolation import (
    DEFAULT_HORIZON,
    M1,
    M2,
    M3,
    M4,
    M5_SFSA,
    M6_SW_CONTINUOUS,
    MethodSpec,
    extrapolate,
)
from .variation import (
    EPS_SCHEDULE,
    method_variation_pv,
    numeric_variation,
    second_order_pv,
    sw_variation_coefficient,
)

PLAN_PERFECT = "perfect"
PLAN_FIRST_ORDER = "first_order"
PLAN_INFEASIBLE = "infeasible"

#: the methods whose hedge equation no bond portfolio solves
UNHEDGEABLE_KINDS = (M4, M6_SW_CONTINUOUS)

#: node arrays whose rate values one plan density keeps; the memo is
#: emptied when full (the eps-curves of one shift reuse only a few)
RATE_MEMO_SIZE = 64


@dataclass(frozen=True)
class PlanLump:
    """A discounted lump position dA* at one time."""

    time: float
    amount: float


@dataclass(frozen=True)
class PlanDensity:
    """A discounted density on a segment; the rate may vary over it.

    ``rate`` is a constant or a vectorized callable of time. The M5
    roll-down term is piecewise constant for lump liabilities and kept
    symbolic (callable) when the liability itself has density parts, so
    verification integrals stay exact rather than sampled. ``breakpoints``
    are the market curve's nodes inside (start, end): every integral over
    the density splits there, and at its weight's own breakpoints.

    A callable rate is evaluated once per node array: revaluing the plan
    on curves that share a grid (the eps-curves of one shift) integrates
    on the same quadrature nodes, so the values are kept, read-only, by
    the exact nodes. Two threads may fill the same entry; both write the
    same values.
    """

    start: float
    end: float
    rate: object
    breakpoints: tuple = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rate_values(self, t):
        t = np.asarray(t, dtype=float)
        if not callable(self.rate):
            return np.full_like(t, float(self.rate))
        key = (t.shape, t.tobytes())
        values = self._memo.get(key)
        if values is None:
            # a copy, so that making it read-only touches no array of the caller's
            values = np.array(self.rate(t), dtype=float)
            values.setflags(write=False)
            if len(self._memo) >= RATE_MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = values
        return values

    def mass(self) -> float:
        density = (self.start, self.end, self.rate_values, 1.0, self.breakpoints)
        return measure_integral(((), ()), [density], None, ())


@dataclass(frozen=True)
class HedgePlan:
    """The present-value measure of a hedge, with per-method diagnostics."""

    kind: str
    lumps: tuple = ()
    densities: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def value(self) -> float:
        """Total market value: ``value_under(z, z)``, bit for bit, on the market curve z."""
        return self.integrate(None)

    def integrate(self, weight, breakpoints=()) -> float:
        """int w(t) dA*(t) over the plan measure; a ``weight`` of None is w = 1.

        ``breakpoints`` are where the weight loses smoothness; each
        density also splits at its own breakpoints.
        """
        lumps = ([l.time for l in self.lumps], [l.amount for l in self.lumps])
        densities = [(d.start, d.end, d.rate_values, 1.0, d.breakpoints) for d in self.densities]
        return measure_integral(lumps, densities, weight, breakpoints)

    def value_under(self, curve, base_curve) -> float:
        """Full revaluation: the nominal flow dA*/D[base] priced on ``curve``."""

        def ratio(s):
            return np.asarray(curve.discount_factor(s), dtype=float) / np.asarray(
                base_curve.discount_factor(s), dtype=float
            )

        return self.integrate(ratio, curve.breakpoints_between(0.0, curve.horizon))

    def to_json(self) -> dict:
        dens = []
        for d in self.densities:
            if callable(d.rate):
                # symbolic rate: report the segment average so the entry stays numeric
                avg = d.mass() / (d.end - d.start)
                dens.append({"a": d.start, "b": d.end, "rate": avg, "symbolic": True})
            else:
                dens.append({"a": d.start, "b": d.end, "rate": float(d.rate)})
        return {
            "kind": self.kind,
            "lumps": [{"t": l.time, "amount": l.amount} for l in self.lumps],
            "densities": dens,
            "diagnostics": dict(self.diagnostics),
        }


def _m5_plan(spec, z, curve, flow, lstar):
    tau, kappa = spec.tau, spec.kappa
    span = kappa - tau
    total = lstar.total

    def density(lo, hi, rate):
        return PlanDensity(lo, hi, rate, tuple(z.breakpoints_between(lo, hi).tolist()))

    lumps = []
    for t, amount in flow.lumps:
        if tau < t <= kappa:
            weight = (kappa - t) / span
            if weight != 0.0:  # a lump exactly at kappa is carried by the density
                lumps.append(PlanLump(t, weight * float(curve.discount_factor(t)) * amount))

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

    return HedgePlan(
        PLAN_FIRST_ORDER,
        tuple(lumps),
        tuple(densities),
        {"support": (tau, kappa), "liability_value": total},
    )


def hedge(
    spec: MethodSpec, z: ForwardCurve, flow: CashFlow, horizon: float = DEFAULT_HORIZON, curve=None
) -> HedgePlan:
    """Solve the first-order matching condition for one method.

    Returns a plan of kind ``perfect`` (M1, M3), ``first_order`` (M2,
    M5), or ``infeasible`` (M4, continuous M6) -- the latter carrying the
    matched lump at tau and the unmatched forward-exposure coefficient in
    its diagnostics. ``curve`` is the extrapolation of ``z``, built here
    when not given; the liability value is the flow's present value on it.
    """
    if flow.has_mass_at_or_before(spec.tau):
        raise DomainError(
            "liability flows at or before tau are exactly replicable; "
            "split them off before hedging the extrapolated part"
        )
    curve = extrapolate(z, spec, horizon) if curve is None else curve
    lstar = DiscountedFlow(flow, curve)
    if not lstar.total > 0.0:
        raise DomainError("liabilities must have positive present value")
    tau = spec.tau
    total = lstar.total
    kind = spec.kind

    if kind == M1:
        return HedgePlan(PLAN_PERFECT, (), (), {"liability_value": total})
    if kind == M2:
        dollar_dur = lstar.integrate(lambda t: np.asarray(t, dtype=float))
        return HedgePlan(
            PLAN_FIRST_ORDER,
            (PlanLump(tau, dollar_dur / tau),),
            (),
            {"liability_value": total, "leverage": dollar_dur / tau / total},
        )
    if kind == M3:
        return HedgePlan(
            PLAN_PERFECT, (PlanLump(tau, total),), (), {"liability_value": total}
        )
    if kind == M5_SFSA:
        return _m5_plan(spec, z, curve, flow, lstar)
    if kind in UNHEDGEABLE_KINDS:
        if kind == M4:
            coeff = lstar.integrate(lambda t: np.asarray(t, dtype=float) - tau)
        else:
            coeff = lstar.integrate(
                lambda t: np.asarray(t, dtype=float)
                * sw_variation_coefficient(t, tau, spec.alpha, spec.ufr, curve.f_tau)
            )
        return HedgePlan(
            PLAN_INFEASIBLE,
            (PlanLump(tau, total),),
            (),
            {
                "liability_value": total,
                "matched_lump_at_tau": total,
                "unmatched_forward_coefficient": coeff,
            },
        )
    raise DomainError(f"no hedge construction for method kind {kind!r}")


def _first_order_residual(plan, shift, variation, horizon) -> float:
    """|int t Dz dA* - int t dzbar dL*|, given ``variation`` = -int t dzbar dL*."""
    lhs = plan.integrate(
        lambda t: np.asarray(t, dtype=float) * shift.delta_z(t),
        shift.breakpoints_between(0.0, horizon),
    )
    return abs(lhs + variation)


def verify_first_order(
    plan: HedgePlan,
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    shift: CurveShift,
    horizon: float = DEFAULT_HORIZON,
    curve=None,
) -> float:
    """Residual of the first-order matching condition for one shift.

    |int t Dz dA* - int t dzbar dL*|; near zero for every shift when the
    plan solves the hedge equation identically (M1, M2, M3, M5).
    ``curve`` is the extrapolation of ``z``, built here when not given.
    """
    if plan.kind == PLAN_INFEASIBLE:
        raise PlanKindError("an infeasible diagnosis cannot be verified as a hedge")
    variation = method_variation_pv(spec, z, shift, flow, horizon, curve=curve)
    return _first_order_residual(plan, shift, variation, horizon)


def _liability_pricer(spec, flow, horizon, z, base_curve):
    """F[market]: the flow's value on the extrapolated market curve.

    Each curve object is extrapolated and priced once, and ``z`` not at
    all: its value is read from ``base_curve``, its extrapolation.
    """
    priced = {z: present_value(base_curve, flow)}

    def price(market) -> float:
        if market not in priced:
            priced[market] = present_value(extrapolate(market, spec, horizon), flow)
        return priced[market]

    return price


def _revaluation_gap(plan, z, shifts, price) -> float:
    """Worst change in (asset - liability) value over the shifts, by full repricing."""
    asset0 = plan.value()
    liab0 = price(z)
    worst = 0.0
    for shift in shifts:
        shifted = z.shifted(shift)
        asset = plan.value_under(shifted, z)
        liab = price(shifted)
        worst = max(worst, abs((asset - liab) - (asset0 - liab0)))
    return worst


def verify_perfect(
    plan: HedgePlan,
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    shifts,
    horizon: float = DEFAULT_HORIZON,
) -> float:
    """Worst full-revaluation tracking error of a perfect plan over a shift suite.

    A plan is a perfect hedge when asset and liability values agree for
    every market curve; equivalently the values agree at the base curve
    and the revaluation gap is zero under every shift. This checks the
    second part -- max over shifts of the change in (asset - liability)
    value, by full repricing, not linearization -- so the empty plan of
    the insensitive predetermined-yield method verifies cleanly.
    """
    if plan.kind != PLAN_PERFECT:
        raise PlanKindError(f"plan kind is {plan.kind!r}, not {PLAN_PERFECT!r}")
    price = _liability_pricer(spec, flow, horizon, z, extrapolate(z, spec, horizon))
    return _revaluation_gap(plan, z, shifts, price)


def convexity_gap(
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    shift: CurveShift,
    plan: HedgePlan | None = None,
    horizon: float = DEFAULT_HORIZON,
    curve=None,
) -> float:
    """Second-order mismatch of a first-order hedge along one shift.

    d2P[A] - d2P[L] = int t^2 Dz^2 dA* - int (t^2 dzbar^2 - t d2zbar) dL*.
    Negative values mean the hedge lacks convexity against the
    liabilities (it must be grown whichever way the curve moves);
    positive values mean excess convexity. ``curve`` is the
    extrapolation of ``z``, built here when not given.
    """
    if plan is None:
        plan = hedge(spec, z, flow, horizon, curve)
    if plan.kind == PLAN_INFEASIBLE:
        raise PlanKindError("no first-order hedge exists to compare against")

    def weight(t):
        t = np.asarray(t, dtype=float)
        dz = np.asarray(shift.delta_z(t), dtype=float)
        return t * t * dz * dz

    asset_side = plan.integrate(weight, shift.breakpoints_between(0.0, horizon))
    liability_side = second_order_pv(spec, z, shift, flow, horizon, curve=curve)
    return asset_side - liability_side


def hedge_summary(
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    shifts,
    horizon: float = DEFAULT_HORIZON,
) -> dict:
    """A hedgeable method's plan with its value, leverage and checks, as JSON data.

    The extrapolated curve is built once here and shared by the plan,
    the residuals and the gap. ``liability_value`` is the plan's own:
    the present value of the liabilities on that curve.
    ``max_first_order_residual`` is the worst first-order residual over
    ``shifts`` and ``convexity_gap_parallel_unit`` the convexity gap
    along a parallel shift of one.
    """
    curve = extrapolate(z, spec, horizon)
    plan = hedge(spec, z, flow, horizon, curve)
    liability_value = plan.diagnostics["liability_value"]
    residuals = [verify_first_order(plan, spec, z, flow, s, horizon, curve) for s in shifts]
    unit = CurveShift.parallel(1.0, horizon)
    gap = convexity_gap(spec, z, flow, unit, plan, horizon, curve)
    total = plan.value()
    return {
        "plan": plan.to_json(),
        "total_value": total,
        "liability_value": liability_value,
        "leverage": total / liability_value,
        "max_first_order_residual": max(residuals),
        "convexity_gap_parallel_unit": gap,
    }


def verification_checks(
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    shifts,
    tolerances: dict,
    horizon: float = DEFAULT_HORIZON,
    corrupt: float = 0.0,
) -> list:
    """The analytic-vs-numeric checks of one method, as (name, ok, value, bound) records.

    ``variation[i]`` compares the closed-form first variation of the
    liability value along shift i (plus ``corrupt``, to show that a
    check can fail) with its finite-difference twin. The hedgeable
    methods add ``hedge_equation[i]``, the plan's first-order residual;
    a perfect plan adds ``perfect_revaluation``, its worst revaluation
    gap over the suite; a first-order plan adds ``remainder_decay[i]``,
    whether its revaluation remainder over eps keeps falling on the last
    ``remainder_tail`` steps of ``EPS_SCHEDULE`` or sits below
    ``remainder_floor``. ``tolerances`` holds those keys and
    ``variation_rel``, ``variation_abs``, ``perfect_gap_rel`` and
    ``first_order_residual_rel``.

    Every scenario is built and priced once: the base curve z, and per
    shift the curves z + eps*Dz of ``EPS_SCHEDULE``, which the
    finite-difference oracle and the remainder check share.
    """
    checks = []
    base_curve = extrapolate(z, spec, horizon)
    price = _liability_pricer(spec, flow, horizon, z, base_curve)
    liability_value = price(z)
    variations, rays = [], []
    for i, shift in enumerate(shifts):
        variation = method_variation_pv(spec, z, shift, flow, horizon, curve=base_curve)
        analytic = variation + corrupt
        ray = {}
        report = numeric_variation(price, z, shift, analytic=analytic, ray=ray)
        residual = abs(analytic - report.numeric)
        scale = max(abs(analytic), abs(report.numeric))
        bound = tolerances["variation_rel"] * scale + tolerances["variation_abs"] * max(
            1.0, abs(liability_value)
        )
        checks.append((f"variation[{i}]", residual <= bound, residual, bound))
        variations.append(variation)
        rays.append(ray)

    if spec.kind in UNHEDGEABLE_KINDS:
        return checks
    plan = hedge(spec, z, flow, horizon, base_curve)
    bound = tolerances["first_order_residual_rel"] * max(1.0, abs(liability_value))
    for i, (shift, variation) in enumerate(zip(shifts, variations)):
        residual = _first_order_residual(plan, shift, variation, horizon)
        checks.append((f"hedge_equation[{i}]", residual <= bound, residual, bound))
    if plan.kind == PLAN_PERFECT:
        gap = _revaluation_gap(plan, z, shifts, price)
        bound = tolerances["perfect_gap_rel"] * abs(liability_value)
        checks.append(("perfect_revaluation", gap <= bound, gap, bound))
    if plan.kind == PLAN_FIRST_ORDER:
        tail = int(tolerances["remainder_tail"])
        # ratios already at roundoff level cannot be asked to keep falling
        floor = tolerances["remainder_floor"] * (1.0 + abs(liability_value))
        base_asset = plan.value()
        for i, ray in enumerate(rays):
            ratios = []
            for eps in EPS_SCHEDULE:
                asset = plan.value_under(ray[eps], z)
                liab = price(ray[eps])
                ratios.append(abs((asset - base_asset) - (liab - liability_value)) / eps)
            window = ratios[-tail:]
            good = all(b < a or b < floor for a, b in zip(window, window[1:]))
            checks.append((f"remainder_decay[{i}]", good, ratios[-1], ratios[-tail]))
    return checks


# ---- forward rate agreements -------------------------------------------------


@dataclass(frozen=True)
class FraContract:
    """Borrow 1/eps at tau - eps, repay with the accrued forward at tau.

    The two flows cancel in present value, so the contract costs nothing
    at inception and carries pure exposure to the forward rate over the
    accrual window [tau - eps, tau].
    """

    tau: float
    eps: float
    curve: ForwardCurve
    flows: CashFlow = field(init=False)

    def __post_init__(self):
        accrual = float(
            self.curve.integrated_forward(self.tau) - self.curve.integrated_forward(self.tau - self.eps)
        )
        flows = CashFlow(
            lumps=(
                (self.tau - self.eps, 1.0 / self.eps),
                (self.tau, -np.exp(accrual) / self.eps),
            )
        )
        object.__setattr__(self, "flows", flows)

    @property
    def notional(self) -> float:
        return 1.0 / self.eps

    def value(self, curve=None) -> float:
        return present_value(self.curve if curve is None else curve, self.flows)

    def variation(self, shift: CurveShift) -> float:
        """Exact first variation of the contract value along a shift.

        Equals D(tau - eps) times the average forward perturbation over
        the accrual window: the Stieltjes computation gives
        (D(tau-eps)/eps) * (tau Dz(tau) - (tau-eps) Dz(tau-eps)), and the
        bracket telescopes to int_{tau-eps}^{tau} Df.
        """
        d_near = float(self.curve.discount_factor(self.tau - self.eps))
        t0, t1 = self.tau - self.eps, self.tau
        return (d_near / self.eps) * (t1 * shift.delta_z(t1) - t0 * shift.delta_z(t0))


def fra_replicate(z: ForwardCurve, tau: float, eps: float) -> FraContract:
    """Replicating flows of a forward rate agreement ending at tau."""
    if not 0.0 < eps < tau:
        raise DomainError(f"need 0 < eps < tau, got eps={eps}, tau={tau}")
    if tau > z.horizon:
        raise DomainError("tau beyond the curve horizon")
    return FraContract(tau, eps, z)


@dataclass(frozen=True)
class InfeasibilityReport:
    """Best bond-only hedge of an unhedgeable method, plus a forward overlay.

    ``plan`` is the infeasible plan the report is read from. Its lump at
    tau matches the zero-yield coefficient of the hedge equation;
    ``forward_coefficient`` is the exposure to the forward rate at tau
    that no bond portfolio matches. ``fra_quantity`` contracts of the
    attached FRA reproduce that exposure exactly for shifts whose forward
    perturbation is constant over the accrual window, and with an O(eps)
    error otherwise -- the residual is reported, not hidden.
    """

    spec: MethodSpec
    plan: HedgePlan
    bond_lump_at_tau: float
    forward_coefficient: float
    fra: FraContract
    fra_quantity: float
    _z: ForwardCurve
    _flow: CashFlow
    _horizon: float

    def combined_sensitivity(self, shift: CurveShift) -> float:
        bond = self.spec.tau * shift.delta_z(self.spec.tau) * self.bond_lump_at_tau
        return bond + self.fra_quantity * self.fra.variation(shift)

    def residual(self, shift: CurveShift) -> float:
        target = -method_variation_pv(self.spec, self._z, shift, self._flow, self._horizon)
        return abs(self.combined_sensitivity(shift) - target)

    def to_json(self) -> dict:
        return {
            "kind": self.spec.kind,
            "bond_lump_at_tau": self.bond_lump_at_tau,
            "forward_coefficient": self.forward_coefficient,
            "fra_eps": self.fra.eps,
            "fra_quantity": self.fra_quantity,
        }


def infeasibility_decomposition(
    spec: MethodSpec,
    z: ForwardCurve,
    flow: CashFlow,
    eps: float = 1.0,
    horizon: float = DEFAULT_HORIZON,
) -> InfeasibilityReport:
    """Decompose the hedge of an unhedgeable method into bond + FRA overlay."""
    if spec.kind not in UNHEDGEABLE_KINDS:
        raise DomainError("only M4 and the continuous Smith-Wilson method are unhedgeable")
    plan = hedge(spec, z, flow, horizon)
    coeff = plan.diagnostics["unmatched_forward_coefficient"]
    fra = fra_replicate(z, spec.tau, eps)
    d_near = float(z.discount_factor(spec.tau - eps))
    return InfeasibilityReport(
        spec=spec,
        plan=plan,
        bond_lump_at_tau=plan.diagnostics["matched_lump_at_tau"],
        forward_coefficient=coeff,
        fra=fra,
        fra_quantity=coeff / d_near,
        _z=z,
        _flow=flow,
        _horizon=horizon,
    )
