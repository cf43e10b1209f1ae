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

This module only declares weights; dL* and dA* are both a
:class:`~curvehedge.curves.Measure`, which plans its passes. Every
shift's weights go to the :class:`~curvehedge.curves.DiscountedFlow`
that prices L* and solves the plan, and its terms to the plan's measure,
each a row of one of their passes. The one-shift functions
(``method_variation_pv``, ``verify_first_order``, ``convexity_gap``,
...) integrate the same weights one at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .curves import PASS_WEIGHTS, CashFlow, CurveShift, ForwardCurve, Measure, present_value
from .errors import DomainError, PlanKindError
from .extrapolation import ExtrapolatedCurve, extrapolate
from .methods import PLAN_FIRST_ORDER, PLAN_INFEASIBLE, PLAN_PERFECT
from .variation import (
    EPS_SCHEDULE,
    _difference_limit,
    _liability_pass,
    method_variation_pv,
    second_order_pv,
    second_order_weight,
    variation_weight,
)


@dataclass(frozen=True)
class PlanLump:
    """A discounted lump position dA* at one time."""

    time: float
    amount: float


@dataclass(frozen=True)
class PlanDensity:
    """A discounted density on a segment; the rate may vary over it.

    ``rate`` is a constant or a callable of a float array of times that
    returns a float array of rates, as a weight does. The M5
    roll-down term is piecewise constant for lump liabilities and kept
    symbolic (callable) when the liability itself has density parts, so
    verification integrals stay exact rather than sampled. The symbolic
    rate reads the liability's running total C*(t) from the Legendre
    antiderivative of each panel of its pass
    (:meth:`~curvehedge.curves.Measure.cumulative`): after the
    first call a rate value evaluates no curve, and it agrees with a
    fresh Gauss panel to t within 1e-14 of L*. ``breakpoints``
    are the market curve's nodes inside (start, end): every integral over
    the density splits there, and at its weight's own breakpoints.
    """

    start: float
    end: float
    rate: object
    breakpoints: tuple = ()

    def rate_values(self, t):
        t = np.asarray(t, dtype=float)
        if not callable(self.rate):
            return np.full_like(t, float(self.rate))
        return self.rate(t)


@dataclass(frozen=True)
class HedgePlan:
    """The present-value measure of a hedge, with per-method diagnostics;
    ``terms`` are weights that its :attr:`measure` prices with its value."""

    kind: str
    lumps: tuple = ()
    densities: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    terms: tuple = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def measure(self) -> Measure:
        """dA* as a :class:`~curvehedge.curves.Measure` of the lumps and
        densities, priced once per plan with ``terms``: :meth:`value`,
        :attr:`masses` and a symbolic rate's JSON read its lead row."""
        lumps = ([l.time for l in self.lumps], [l.amount for l in self.lumps])
        densities = [(d.start, d.end, d.rate_values, 1.0, d.breakpoints) for d in self.densities]
        return Measure(lumps, densities, self.terms)

    @property
    def masses(self) -> tuple:
        """The mass of each density, in order: row 0's density integrals."""
        return self.measure.masses

    def value(self) -> float:
        """Total market value: ``value_under(z, z)``, bit for bit, on the market curve z."""
        return self.measure.total

    def integrate(self, terms):
        """int w(t) dA*(t) over the plan measure for each (weight,
        breakpoints) pair of ``terms``: an array of one integral per row of
        their weights, in order (:meth:`~curvehedge.curves.Measure.integrate`)."""
        return self.measure.integrate(terms)

    def value_under(self, curve, base_curve):
        """Full revaluation: the nominal flow dA*/D[base] priced on ``curve``;
        on a stacked ``curve``, an array of one value per scenario."""
        values = self.integrate([_revaluation_term(curve, base_curve)])
        return values if curve.rows is not None else float(values[0])

    def to_json(self) -> dict:
        dens = []
        for k, d in enumerate(self.densities):
            if callable(d.rate):
                # symbolic rate: report the segment average so the entry stays numeric
                rate = self.masses[k] / (d.end - d.start)
                dens.append({"a": d.start, "b": d.end, "rate": rate, "symbolic": True})
            else:
                dens.append({"a": d.start, "b": d.end, "rate": float(d.rate)})
        return {
            "kind": self.kind,
            "lumps": [{"t": l.time, "amount": l.amount} for l in self.lumps],
            "densities": dens,
            "diagnostics": dict(self.diagnostics),
        }


# ---- the weights of the plan side --------------------------------------------


def _hedge_term(shift: CurveShift, horizon: float):
    """The plan side's weight t Dz(t) of the hedge equation along ``shift``,
    and its breakpoints: the shift's nodes."""
    return (lambda t: t * shift.delta_z(t)), shift.breakpoints_between(0.0, horizon)


def _gap_term(shift: CurveShift, horizon: float):
    """The plan side's weight t^2 Dz(t)^2 of the convexity gap along ``shift``."""

    def weight(t):
        dz = shift.delta_z(t)
        return t * t * dz * dz

    return weight, shift.breakpoints_between(0.0, horizon)


def _revaluation_term(curve, base_curve):
    """The weight D[curve]/D[base] that revalues a plan on ``curve``, one row
    per scenario of a stacked curve, split at the curve's nodes."""
    ratio = lambda s: curve.discount_factor(s) / base_curve.discount_factor(s)
    return ratio, curve.breakpoints_between(0.0, curve.horizon)


# ---- hedge and verification ---------------------------------------------------


def _solve(curve: ExtrapolatedCurve, flow: CashFlow, weights=(), terms=()):
    """The plan for ``flow``, holding ``terms``, solved in the liability
    pass (:func:`~curvehedge.variation._liability_pass`, which checks the
    flow) of its weights and then ``weights``; with dL* and the integrals
    of ``weights``."""
    method = curve.spec.method
    lead = method.plan_weights(curve)
    lstar = _liability_pass(curve, flow, (*lead, *weights))
    lumps, densities, diagnostics = method.plan(curve, flow, lstar)
    plan = HedgePlan(
        method.plan_kind,
        tuple(PlanLump(*lump) for lump in lumps),
        tuple(PlanDensity(*density) for density in densities),
        diagnostics,
        tuple(terms),
    )
    return plan, lstar, lstar.integrals[len(lead) :]


def hedge(curve: ExtrapolatedCurve, flow: CashFlow) -> HedgePlan:
    """Solve the first-order matching condition for the method of ``curve``.

    Returns the plan of the method's table entry: ``perfect`` (M1, M3),
    ``first_order`` (M2, M5), or ``infeasible`` (M4, continuous M6) -- the
    latter carrying the matched lump at tau and the unmatched
    forward-exposure coefficient in its diagnostics. The liability value
    is the flow's present value on ``curve``, priced in one pass with the
    integrals the plan reads (the entry's ``plan_weights``).
    """
    return _solve(curve, flow)[0]


def _check_hedge(kind: str):
    if kind == PLAN_INFEASIBLE:
        raise PlanKindError("an infeasible diagnosis cannot be verified as a hedge")


def verify_first_order(plan: HedgePlan, curve: ExtrapolatedCurve, flow: CashFlow, shift: CurveShift) -> float:
    """Residual of the first-order matching condition for one shift.

    |int t Dz dA* - int t dzbar dL*|; near zero for every shift when the
    plan solves the hedge equation identically (M1, M2, M3, M5). The
    one-shift case of the rows of :func:`hedge_summary` and
    :func:`verification_checks`.
    """
    _check_hedge(plan.kind)
    lhs = plan.integrate([_hedge_term(shift, curve.horizon)])[0]
    return abs(lhs + method_variation_pv(curve, shift, flow))


def _suite_values(plan, curve, flow, shifts, scales, terms=()):
    """Per shift, (its liability values on the curves z + e*Dz of
    ``scales``, the plan's integral of its weight of ``terms``, the plan's
    values on those curves); the last two None without a plan or terms.

    The shifts on one grid make one stacked curve per ``PASS_WEIGHTS``
    shifts (:meth:`ForwardCurve.ray`), extrapolated, priced and
    revalued once; shifts on another grid are stacked apart. Each row is
    bit for bit the shift's own, since a chunk splits at its one grid.
    """
    z = curve.base
    groups = {}
    for i, shift in enumerate(shifts):
        groups.setdefault(shift.delta_forward.grid.nodes.tobytes(), []).append(i)
    out = [None] * len(shifts)
    chunks = (group[k : k + PASS_WEIGHTS] for group in groups.values() for k in range(0, len(group), PASS_WEIGHTS))
    for chunk in chunks:
        ladder = z.ray(*(shifts[i] for i in chunk))(scales)
        liabs = present_value(extrapolate(ladder, curve.spec, curve.horizon), flow)
        liabs = np.reshape(liabs, (len(chunk), -1)).tolist()
        if plan is None:
            heads, assets = [None] * len(chunk), [None] * len(chunk)
        else:
            own = [terms[i] for i in chunk] if terms else []
            rows = plan.integrate([*own, _revaluation_term(ladder, z)])
            heads = rows[: len(own)].tolist() if own else [None] * len(chunk)
            assets = rows[len(own) :].reshape(len(chunk), -1).tolist()
        for i, liab, head, asset in zip(chunk, liabs, heads, assets):
            out[i] = (liab, head, asset)
    return out


def verify_perfect(plan: HedgePlan, curve: ExtrapolatedCurve, flow: CashFlow, shifts) -> float:
    """Worst full-revaluation tracking error of a perfect plan over a shift suite.

    A plan is a perfect hedge when asset and liability values agree for
    every market curve; equivalently the values agree at the base curve
    and the revaluation gap is zero under every shift. This checks the
    second part -- max over shifts of the change in (asset - liability)
    value, by full repricing, not linearization -- so the empty plan of
    the insensitive predetermined-yield method verifies cleanly. The
    curves z + Dz are priced, and the plan revalued, as in ``verify``.
    """
    if plan.kind != PLAN_PERFECT:
        raise PlanKindError(f"plan kind is {plan.kind!r}, not {PLAN_PERFECT!r}")
    values = _suite_values(plan, curve, flow, list(shifts), np.array([1.0]))
    return _worst_gap(plan.value() - present_value(curve, flow), values)


def _worst_gap(base_gap, values) -> float:
    """max over shifts of |(asset - liability) - base_gap| on each shift's
    last curve, from the values of :func:`_suite_values`."""
    worst = 0.0
    for liab, _, asset in values:
        worst = max(worst, abs((asset[-1] - liab[-1]) - base_gap))
    return worst


def convexity_gap(
    curve: ExtrapolatedCurve, flow: CashFlow, shift: CurveShift, plan: HedgePlan | None = None
) -> float:
    """Second-order mismatch of a first-order hedge along one shift.

    d2P[A] - d2P[L] = int t^2 Dz^2 dA* - int (t^2 dzbar^2 - t d2zbar) dL*.
    Negative values mean the hedge lacks convexity against the
    liabilities (it must be grown whichever way the curve moves);
    positive values mean excess convexity. ``plan`` is the hedge of
    ``curve``, built here when not given. The one-shift case of the gap
    of :func:`hedge_summary`.
    """
    if plan is None:
        plan = hedge(curve, flow)
    if plan.kind == PLAN_INFEASIBLE:
        raise PlanKindError("no first-order hedge exists to compare against")
    return plan.integrate([_gap_term(shift, curve.horizon)])[0] - second_order_pv(curve, shift, flow)


def hedge_summary(curve: ExtrapolatedCurve, flow: CashFlow, shifts) -> dict:
    """A hedgeable method's plan with its value, leverage and checks, as JSON data.

    An infeasible method is rejected before any pass. The plan, the
    residuals and the gap share ``curve``. ``liability_value`` is the
    plan's own: the present value of the liabilities on ``curve``.
    ``max_first_order_residual`` is the worst first-order residual over
    ``shifts`` and ``convexity_gap_parallel_unit`` the convexity gap
    along a parallel shift of one, all read from rows of the liability
    pass and of the plan's measure, which prices the gap's term with the
    plan's value and each hedge term in a pass of their own: the gap is
    :func:`convexity_gap`'s bit for bit.
    """
    _check_hedge(curve.spec.method.plan_kind)
    shifts = list(shifts)
    unit = CurveShift.parallel(1.0, curve.horizon)
    weights = [second_order_weight(curve, unit), *(variation_weight(curve, s) for s in shifts)]
    terms = [_gap_term(unit, curve.horizon), *(_hedge_term(s, curve.horizon) for s in shifts)]
    plan, lstar, (second_order, *integrals) = _solve(curve, flow, weights, terms)
    asset_gap, *lhs = plan.measure.integrals
    residuals = [abs(l + -integral) for l, integral in zip(lhs, integrals)]
    liability_value = lstar.total
    total = plan.value()
    return {
        "plan": plan.to_json(),
        "total_value": total,
        "liability_value": liability_value,
        "leverage": total / liability_value,
        "max_first_order_residual": max(residuals),
        "convexity_gap_parallel_unit": asset_gap - second_order,
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

    Every scenario is priced once. The liability value and every
    shift's first variation are rows of one liability pass, checked as
    ``hedge``'s; it solves a hedgeable method's plan. The curves z + eps*Dz of
    ``EPS_SCHEDULE``, and for a perfect plan z + Dz, are stacked and
    priced once, and the plan is revalued on them
    (:func:`_suite_values`); a value that is not finite is a pass's DomainError.
    """
    shifts = list(shifts)
    weights = [variation_weight(curve, s) for s in shifts]
    if curve.spec.method.plan_kind == PLAN_INFEASIBLE:
        plan, lstar = None, _liability_pass(curve, flow, weights)
        integrals = lstar.integrals
    else:
        plan, lstar, integrals = _solve(curve, flow, weights)
    liability_value = lstar.total
    # a perfect plan's revaluation curve z + Dz is the ladder's last row
    perfect = plan is not None and plan.kind == PLAN_PERFECT
    scales = np.array(EPS_SCHEDULE + ((1.0,) if perfect else ()))
    terms = [_hedge_term(s, curve.horizon) for s in shifts]
    values = _suite_values(plan, curve, flow, shifts, scales, terms)
    checks = []
    variations = [-integral for integral in integrals]
    for i, (variation, (liabs, _, _)) in enumerate(zip(variations, values)):
        analytic = variation + corrupt
        numeric = _difference_limit(liability_value, liabs)[0]
        residual = abs(analytic - numeric)
        scale = max(abs(analytic), abs(numeric))
        bound = tolerances["variation_rel"] * scale + tolerances["variation_abs"] * max(
            1.0, abs(liability_value)
        )
        checks.append((f"variation[{i}]", residual <= bound, residual, bound))

    if plan is None:
        return checks
    bound = tolerances["first_order_residual_rel"] * max(1.0, abs(liability_value))
    for i, (variation, (_, lhs, _)) in enumerate(zip(variations, values)):
        residual = abs(lhs + variation)
        checks.append((f"hedge_equation[{i}]", residual <= bound, residual, bound))
    base_asset = plan.value()
    if perfect:
        gap = _worst_gap(base_asset - liability_value, values)
        bound = tolerances["perfect_gap_rel"] * abs(liability_value)
        checks.append(("perfect_revaluation", gap <= bound, gap, bound))
    if plan.kind == PLAN_FIRST_ORDER:
        tail = int(tolerances["remainder_tail"])
        # ratios already at roundoff level cannot be asked to keep falling
        floor = tolerances["remainder_floor"] * (1.0 + abs(liability_value))
        for i, (liabs, _, assets) in enumerate(values):
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
