"""Hedge construction and verification for extrapolated liability values.

A hedge plan is stated as the present-value measure dA* of an asset
flow: lumps (time, discounted amount) plus densities (segment,
discounted rate). Solving the first-order matching condition

    int t Dz(t) dA*(t) = int t dzbar(t)[Dz] dL*(t)

per method gives the plan of its entry in the method table
(:mod:`curvehedge.methods`), of kind ``perfect``, ``first_order`` or
``infeasible``. An infeasible method's variation needs the forward rate
at tau -- an exposure only a vanishing-accrual forward rate agreement
could isolate -- so it gets an infeasibility diagnosis instead of a plan.

Plans are stated for liabilities strictly beyond tau; flows at or
before tau are exactly replicable and must be split off by the caller
so the per-method comparison stays clean. Every function here takes the
extrapolated curve, which holds its market curve, spec and horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CashFlow, CurveShift, DiscountedFlow, ForwardCurve, measure_integral, present_value
from .errors import DomainError, PlanKindError
from .extrapolation import ExtrapolatedCurve, extrapolate
from .methods import PLAN_FIRST_ORDER, PLAN_INFEASIBLE, PLAN_PERFECT
from .variation import EPS_SCHEDULE, _difference_limit, method_variation_pv, second_order_pv

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
        """Full revaluation: the nominal flow dA*/D[base] priced on ``curve``;
        on a stacked ``curve``, an array of one value per scenario."""

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


def hedge(curve: ExtrapolatedCurve, flow: CashFlow) -> HedgePlan:
    """Solve the first-order matching condition for the method of ``curve``.

    Returns the plan of the method's table entry: ``perfect`` (M1, M3),
    ``first_order`` (M2, M5), or ``infeasible`` (M4, continuous M6) -- the
    latter carrying the matched lump at tau and the unmatched
    forward-exposure coefficient in its diagnostics. The liability value
    is the flow's present value on ``curve``, priced in one pass with the
    integrals the plan reads (the entry's ``plan_weights``).
    """
    if flow.has_mass_at_or_before(curve.spec.tau):
        raise DomainError(
            "liability flows at or before tau are exactly replicable; "
            "split them off before hedging the extrapolated part"
        )
    method = curve.spec.method
    lstar = DiscountedFlow(flow, curve, weights=method.plan_weights(curve))
    if not lstar.total > 0.0:
        raise DomainError("liabilities must have positive present value")
    lumps, densities, diagnostics = method.plan(curve, flow, lstar)
    return HedgePlan(
        method.plan_kind,
        tuple(PlanLump(*lump) for lump in lumps),
        tuple(PlanDensity(*density) for density in densities),
        diagnostics,
    )


def _first_order_residual(plan, shift, variation, horizon) -> float:
    """|int t Dz dA* - int t dzbar dL*|, given ``variation`` = -int t dzbar dL*."""
    lhs = plan.integrate(
        lambda t: np.asarray(t, dtype=float) * shift.delta_z(t),
        shift.breakpoints_between(0.0, horizon),
    )
    return abs(lhs + variation)


def verify_first_order(plan: HedgePlan, curve: ExtrapolatedCurve, flow: CashFlow, shift: CurveShift) -> float:
    """Residual of the first-order matching condition for one shift.

    |int t Dz dA* - int t dzbar dL*|; near zero for every shift when the
    plan solves the hedge equation identically (M1, M2, M3, M5).
    """
    if plan.kind == PLAN_INFEASIBLE:
        raise PlanKindError("an infeasible diagnosis cannot be verified as a hedge")
    variation = method_variation_pv(curve, shift, flow)
    return _first_order_residual(plan, shift, variation, curve.horizon)


def verify_perfect(plan: HedgePlan, curve: ExtrapolatedCurve, flow: CashFlow, shifts) -> float:
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
    asset0, liab0 = plan.value(), present_value(curve, flow)
    worst = 0.0
    for shift in shifts:
        (asset,), (liab,) = _ladder_values(plan, curve, flow, shift, np.array([1.0]))
        worst = max(worst, abs((asset - liab) - (asset0 - liab0)))
    return worst


def _ladder_values(plan, curve, flow, shift, scales):
    """The plan's asset values (None without a plan) and the liability values
    on the curves z + e*Dz of ``scales``, as lists: one stacked curve from
    one :meth:`ForwardCurve.ray`, extrapolated and priced once, and
    revalued once."""
    z = curve.base
    ladder = z.ray(shift)(scales)
    liabs = present_value(extrapolate(ladder, curve.spec, curve.horizon), flow).tolist()
    return (None if plan is None else plan.value_under(ladder, z).tolist()), liabs


def convexity_gap(
    curve: ExtrapolatedCurve, flow: CashFlow, shift: CurveShift, plan: HedgePlan | None = None
) -> float:
    """Second-order mismatch of a first-order hedge along one shift.

    d2P[A] - d2P[L] = int t^2 Dz^2 dA* - int (t^2 dzbar^2 - t d2zbar) dL*.
    Negative values mean the hedge lacks convexity against the
    liabilities (it must be grown whichever way the curve moves);
    positive values mean excess convexity. ``plan`` is the hedge of
    ``curve``, built here when not given.
    """
    if plan is None:
        plan = hedge(curve, flow)
    if plan.kind == PLAN_INFEASIBLE:
        raise PlanKindError("no first-order hedge exists to compare against")

    def weight(t):
        t = np.asarray(t, dtype=float)
        dz = np.asarray(shift.delta_z(t), dtype=float)
        return t * t * dz * dz

    asset_side = plan.integrate(weight, shift.breakpoints_between(0.0, curve.horizon))
    liability_side = second_order_pv(curve, shift, flow)
    return asset_side - liability_side


def hedge_summary(curve: ExtrapolatedCurve, flow: CashFlow, shifts) -> dict:
    """A hedgeable method's plan with its value, leverage and checks, as JSON data.

    The plan, the residuals and the gap share ``curve``.
    ``liability_value`` is the plan's own: the present value of the
    liabilities on ``curve``.
    ``max_first_order_residual`` is the worst first-order residual over
    ``shifts`` and ``convexity_gap_parallel_unit`` the convexity gap
    along a parallel shift of one.
    """
    plan = hedge(curve, flow)
    liability_value = plan.diagnostics["liability_value"]
    residuals = [verify_first_order(plan, curve, flow, s) for s in shifts]
    unit = CurveShift.parallel(1.0, curve.horizon)
    gap = convexity_gap(curve, flow, unit, plan)
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
    curve: ExtrapolatedCurve, flow: CashFlow, shifts, tolerances: dict, corrupt: float = 0.0
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

    Every scenario is built and priced once: ``curve``, the extrapolated
    market curve z, whose value a hedgeable method's plan already holds,
    and per shift the curves z + eps*Dz of ``EPS_SCHEDULE`` and, for a
    perfect plan, its revaluation curve z + Dz. A shift's curves are one
    stacked curve, priced and revalued in one pass (:func:`_ladder_values`),
    and only their values are kept for the checks.
    """
    checks = []
    if curve.spec.method.plan_kind == PLAN_INFEASIBLE:
        plan, liability_value = None, present_value(curve, flow)
    else:
        plan = hedge(curve, flow)
        liability_value = plan.diagnostics["liability_value"]
    # a perfect plan's revaluation curve z + Dz is the ladder's last row
    perfect = plan is not None and plan.kind == PLAN_PERFECT
    scales = np.array(EPS_SCHEDULE + ((1.0,) if perfect else ()))
    variations, revalued = [], []
    for i, shift in enumerate(shifts):
        variation = method_variation_pv(curve, shift, flow)
        analytic = variation + corrupt
        assets, liabs = _ladder_values(plan, curve, flow, shift, scales)
        numeric = _difference_limit(liability_value, liabs)[0]
        residual = abs(analytic - numeric)
        scale = max(abs(analytic), abs(numeric))
        bound = tolerances["variation_rel"] * scale + tolerances["variation_abs"] * max(
            1.0, abs(liability_value)
        )
        checks.append((f"variation[{i}]", residual <= bound, residual, bound))
        variations.append(variation)
        revalued.append((assets, liabs))

    if plan is None:
        return checks
    bound = tolerances["first_order_residual_rel"] * max(1.0, abs(liability_value))
    for i, (shift, variation) in enumerate(zip(shifts, variations)):
        residual = _first_order_residual(plan, shift, variation, curve.horizon)
        checks.append((f"hedge_equation[{i}]", residual <= bound, residual, bound))
    base_asset = plan.value()
    if perfect:
        gap = 0.0
        for assets, liabs in revalued:
            gap = max(gap, abs((assets[-1] - liabs[-1]) - (base_asset - liability_value)))
        bound = tolerances["perfect_gap_rel"] * abs(liability_value)
        checks.append(("perfect_revaluation", gap <= bound, gap, bound))
    if plan.kind == PLAN_FIRST_ORDER:
        tail = int(tolerances["remainder_tail"])
        # ratios already at roundoff level cannot be asked to keep falling
        floor = tolerances["remainder_floor"] * (1.0 + abs(liability_value))
        for i, (assets, liabs) in enumerate(revalued):
            ratios = [
                abs((asset - base_asset) - (liab - liability_value)) / eps
                for eps, asset, liab in zip(EPS_SCHEDULE, assets, liabs)
            ]
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

    ``plan`` is the infeasible plan of ``curve`` the report is read from. Its lump at
    tau matches the zero-yield coefficient of the hedge equation;
    ``forward_coefficient`` is the exposure to the forward rate at tau
    that no bond portfolio matches. ``fra_quantity`` contracts of the
    attached FRA reproduce that exposure exactly for shifts whose forward
    perturbation is constant over the accrual window, and with an O(eps)
    error otherwise -- the residual is reported, not hidden.
    """

    curve: ExtrapolatedCurve
    plan: HedgePlan
    bond_lump_at_tau: float
    forward_coefficient: float
    fra: FraContract
    fra_quantity: float
    _flow: CashFlow

    def combined_sensitivity(self, shift: CurveShift) -> float:
        tau = self.curve.spec.tau
        bond = tau * shift.delta_z(tau) * self.bond_lump_at_tau
        return bond + self.fra_quantity * self.fra.variation(shift)

    def residual(self, shift: CurveShift) -> float:
        target = -method_variation_pv(self.curve, shift, self._flow)
        return abs(self.combined_sensitivity(shift) - target)

    def to_json(self) -> dict:
        return {
            "kind": self.curve.spec.kind,
            "bond_lump_at_tau": self.bond_lump_at_tau,
            "forward_coefficient": self.forward_coefficient,
            "fra_eps": self.fra.eps,
            "fra_quantity": self.fra_quantity,
        }


def infeasibility_decomposition(curve: ExtrapolatedCurve, flow: CashFlow, eps: float = 1.0) -> InfeasibilityReport:
    """Decompose the hedge of an unhedgeable method into bond + FRA overlay."""
    if curve.spec.method.plan_kind != PLAN_INFEASIBLE:
        raise DomainError("only M4 and the continuous Smith-Wilson method are unhedgeable")
    tau, z = curve.spec.tau, curve.base
    plan = hedge(curve, flow)
    coeff = plan.diagnostics["unmatched_forward_coefficient"]
    fra = fra_replicate(z, tau, eps)
    d_near = float(z.discount_factor(tau - eps))
    return InfeasibilityReport(
        curve=curve,
        plan=plan,
        bond_lump_at_tau=plan.diagnostics["matched_lump_at_tau"],
        forward_coefficient=coeff,
        fra=fra,
        fra_quantity=coeff / d_near,
        _flow=flow,
    )
