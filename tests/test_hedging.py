import ast
import inspect
import pathlib
import sys
import threading

import numpy as np
import pytest

from curvehedge import (
    CashFlow,
    CurveShift,
    DiscountedFlow,
    ForwardCurve,
    MethodSpec,
    PlanDensity,
    convexity_gap,
    duration,
    extrapolate,
    fra_replicate,
    hedge,
    infeasibility_decomposition,
    method_variation,
    method_variation_pv,
    present_value,
    second_order_pv,
    stieltjes_integral,
    sw_variation_coefficient,
    ufr_sensitivity,
    verify_first_order,
    verify_perfect,
)
from curvehedge import curves as curves_module
from curvehedge import hedging
from curvehedge import variation as variation_module
from curvehedge.cli import TOLERANCES
from curvehedge.errors import DomainError, EvaluationError, PlanKindError
from curvehedge.hedging import (
    PLAN_FIRST_ORDER,
    PLAN_INFEASIBLE,
    PLAN_PERFECT,
    HedgePlan,
    PlanLump,
    hedge_summary,
    verification_checks,
)
from curvehedge.quadrature import adaptive_panels
from curvehedge.shifts import shift_suite
from curvehedge.curves import PASS_WEIGHTS, Measure, _fold_weight
from curvehedge.io import read_cash_flow, read_curve
from curvehedge.variation import EPS_SCHEDULE, variation_weight

from conftest import random_curve, random_lump_flow, random_shift, suite_shifts, variation_report

SAMPLE_DATA = pathlib.Path(__file__).resolve().parents[1] / "sample_data"

UFR = 0.042
TAU = 10.0
KAPPA = 20.0

M2 = MethodSpec("M2", tau=TAU)
M3 = MethodSpec("M3", tau=TAU, ufr=UFR)
M5 = MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR)


class TestHedgeConstruction:
    def test_m3_single_lump(self, flat3):
        curve = extrapolate(flat3, M3)
        plan = hedge(extrapolate(flat3, M3), CashFlow.single_payment(20.0))
        assert plan.kind == PLAN_PERFECT
        assert len(plan.lumps) == 1
        lump = plan.lumps[0]
        assert lump.time == TAU
        assert lump.amount == pytest.approx(curve.discount_factor(20.0), rel=1e-14)

    def test_m2_single_lump_leverage(self, flat3):
        curve = extrapolate(flat3, M2)
        plan = hedge(extrapolate(flat3, M2), CashFlow.single_payment(20.0))
        assert plan.kind == PLAN_FIRST_ORDER
        assert plan.lumps[0].amount == pytest.approx(
            2.0 * curve.discount_factor(20.0), rel=1e-13
        )
        assert plan.diagnostics["leverage"] == pytest.approx(2.0, rel=1e-13)

    def test_m5_lump_beyond_kappa(self, flat3):
        curve = extrapolate(flat3, M5)
        sigma = 30.0
        plan = hedge(extrapolate(flat3, M5), CashFlow.single_payment(sigma))
        assert plan.kind == PLAN_FIRST_ORDER
        assert not plan.lumps
        d_sigma = curve.discount_factor(sigma)
        for dens in plan.densities:
            assert TAU <= dens.start < dens.end <= KAPPA
            assert dens.rate_values(0.5 * (dens.start + dens.end)) == pytest.approx(
                d_sigma / (KAPPA - TAU), rel=1e-12
            )
        assert sum(plan.masses) == pytest.approx(d_sigma, rel=1e-12)

    def test_m5_lump_inside_blend(self, flat3):
        curve = extrapolate(flat3, M5)
        sigma = 14.0
        plan = hedge(extrapolate(flat3, M5), CashFlow.single_payment(sigma))
        match = [l for l in plan.lumps if l.time == sigma]
        assert len(match) == 1
        assert match[0].amount == pytest.approx(
            (KAPPA - sigma) / (KAPPA - TAU) * curve.discount_factor(sigma), rel=1e-13
        )
        # roll-down density stops contributing past sigma
        for dens, mass in zip(plan.densities, plan.masses, strict=True):
            if dens.start >= sigma:
                assert mass == 0.0

    def test_m5_lump_at_kappa_carried_by_density(self, flat3):
        plan = hedge(extrapolate(flat3, M5), CashFlow.single_payment(KAPPA))
        assert not plan.lumps  # matching weight at kappa is zero
        assert plan.value() == pytest.approx(
            extrapolate(flat3, M5).discount_factor(KAPPA), rel=1e-12
        )

    def test_m1_empty_plan(self, flat3):
        plan = hedge(extrapolate(flat3, MethodSpec("M1", tau=TAU, ufr=UFR)), CashFlow.single_payment(30.0))
        assert plan.kind == PLAN_PERFECT
        assert not plan.lumps and not plan.densities
        assert plan.value() == 0.0

    def test_m4_m6_infeasible(self, flat3):
        for spec in (MethodSpec("M4", tau=TAU), MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2)):
            plan = hedge(extrapolate(flat3, spec), CashFlow.single_payment(30.0))
            assert plan.kind == PLAN_INFEASIBLE
            assert plan.diagnostics["unmatched_forward_coefficient"] > 0.0

    def test_liability_at_or_before_tau_rejected(self, flat3):
        with pytest.raises(DomainError):
            hedge(extrapolate(flat3, M3), CashFlow.single_payment(TAU))
        with pytest.raises(DomainError):
            hedge(extrapolate(flat3, M3), CashFlow(densities=((8.0, 12.0, 1.0),)))

    def test_nonpositive_value_rejected(self, flat3):
        with pytest.raises(DomainError):
            hedge(extrapolate(flat3, M3), CashFlow())
        with pytest.raises(DomainError):
            hedge(extrapolate(flat3, M3), CashFlow.single_payment(30.0, -1.0))

    def test_plan_json(self, flat3):
        plan = hedge(extrapolate(flat3, M5), CashFlow.single_payment(30.0))
        data = plan.to_json()
        assert data["kind"] == "first_order"
        assert all({"a", "b", "rate"} <= set(d) for d in data["densities"])


class TestVerifyFirstOrder:
    def test_m2_parallel(self, flat3):
        curve, flow = extrapolate(flat3, M2), CashFlow.single_payment(30.0)
        residual = verify_first_order(hedge(curve, flow), curve, flow, CurveShift.parallel(0.01))
        assert residual < 1e-10

    def test_m3_arbitrary_shifts(self, flat3):
        rng = np.random.default_rng(103)
        flow = random_lump_flow(rng, TAU + 1.0, 150.0)
        plan = hedge(extrapolate(flat3, M3), flow)
        for _ in range(10):
            residual = verify_first_order(plan, extrapolate(flat3, M3), flow, random_shift(rng))
            assert residual < 1e-10

    def test_m2_shift_vanishing_at_tau(self, flat3):
        """A shift with no mass at tau moves neither side for this method."""
        ts = np.arange(0.0, 200.5, 0.5)
        bump = 0.01 * np.exp(-0.5 * ((ts - 60.0) / 5.0) ** 2)
        bump[ts <= TAU + 5.0] = 0.0
        shift = CurveShift.from_forward_values(ts, bump)
        assert shift.delta_z(TAU) == 0.0
        flow = CashFlow.single_payment(30.0)
        plan = hedge(extrapolate(flat3, M2), flow)
        assert verify_first_order(plan, extrapolate(flat3, M2), flow, shift) < 1e-14

    def test_m5_random_shifts(self, flat3):
        rng = np.random.default_rng(107)
        flow = random_lump_flow(rng, TAU + 1.0, 120.0)
        plan = hedge(extrapolate(flat3, M5), flow)
        liability = present_value(extrapolate(flat3, M5), flow)
        for _ in range(10):
            residual = verify_first_order(plan, extrapolate(flat3, M5), flow, random_shift(rng))
            assert residual < 1e-8 * max(1.0, liability)

    def test_infeasible_plan_rejected(self, flat3):
        curve, flow = extrapolate(flat3, MethodSpec("M4", tau=TAU)), CashFlow.single_payment(30.0)
        plan = hedge(curve, flow)
        with pytest.raises(PlanKindError):
            verify_first_order(plan, curve, flow, CurveShift.parallel(0.01))


class TestVerifyPerfect:
    def test_m3_full_revaluation(self, flat3):
        flow = CashFlow(lumps=((20.0, 1.0), (45.0, 0.5)), densities=((25.0, 35.0, 0.1),))
        plan = hedge(extrapolate(flat3, M3), flow)
        liability = present_value(extrapolate(flat3, M3), flow)
        shifts = shift_suite(50, seed=11)
        gap = verify_perfect(plan, extrapolate(flat3, M3), flow, shifts)
        assert gap < 1e-9 * abs(liability)

    def test_m1_insensitive(self, flat3):
        spec = MethodSpec("M1", tau=TAU, ufr=UFR)
        flow = CashFlow.single_payment(40.0)
        plan = hedge(extrapolate(flat3, spec), flow)
        gap = verify_perfect(plan, extrapolate(flat3, spec), flow, shift_suite(10, seed=3))
        assert gap < 1e-12

    @pytest.mark.parametrize("spec", [MethodSpec("M1", tau=TAU, ufr=UFR), M3], ids=["M1", "M3"])
    def test_revalued_on_a_one_row_ladder(self, market_curve, monkeypatch, spec):
        """The suite's revaluation curves z + Dz are one stacked curve of one
        row per shift, and each gap is that of the ordinary curve z + Dz bit
        for bit."""
        curve, shifts = extrapolate(market_curve, spec), suite_shifts(3, 5)
        plan = hedge(curve, SYMBOLIC_FLOW)
        asset0, liab0 = plan.value(), present_value(curve, SYMBOLIC_FLOW)
        want = 0.0
        for shift in shifts:
            shifted = market_curve.ray(shift)(1.0)
            asset = plan.value_under(shifted, market_curve)
            liab = present_value(extrapolate(shifted, spec), SYMBOLIC_FLOW)
            want = max(want, abs((asset - liab) - (asset0 - liab0)))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extrapolate(*args, **kwargs)

        monkeypatch.setattr(hedging, "extrapolate", counting)
        assert verify_perfect(plan, curve, SYMBOLIC_FLOW, shift_suite(3, 5)) == want
        assert [market.rows for market, *_ in calls] == [len(shifts)]

    def test_wrong_kind_rejected(self, flat3):
        curve, flow = extrapolate(flat3, M2), CashFlow.single_payment(30.0)
        plan = hedge(curve, flow)
        with pytest.raises(PlanKindError):
            verify_perfect(plan, curve, flow, shift_suite(2, seed=1))


class TestConvexityGap:
    def test_m2_deficit_closed_form(self, flat3):
        """Constant-yield extrapolation leaves the hedge short of convexity."""
        curve = extrapolate(flat3, M2)
        unit = CurveShift.parallel(1.0)
        for sigma in (25.0, 40.0, 100.0):
            gap = convexity_gap(extrapolate(flat3, M2), CashFlow.single_payment(sigma), unit)
            expected = -sigma * (sigma - TAU) * curve.discount_factor(sigma)
            assert gap == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    def test_m5_excess_closed_form(self, flat3):
        curve = extrapolate(flat3, M5)
        unit = CurveShift.parallel(1.0)
        for sigma in (25.0, 40.0, 100.0):
            gap = convexity_gap(extrapolate(flat3, M5), CashFlow.single_payment(sigma), unit)
            expected = (KAPPA - TAU) ** 2 / 12.0 * curve.discount_factor(sigma)
            assert gap == pytest.approx(expected, rel=1e-10)

    def test_m3_gap_defined(self, flat3):
        gap = convexity_gap(extrapolate(flat3, M3), CashFlow.single_payment(30.0), CurveShift.parallel(1.0))
        assert np.isfinite(gap)

    def test_sign_facts_over_maturities(self, flat3):
        """Deficit for constant-yield, excess for the phased method, every maturity."""
        unit = CurveShift.parallel(1.0)
        maturities = np.concatenate(
            (np.arange(TAU + 0.5, KAPPA + 0.25, 0.5), np.arange(25.0, 200.1, 12.5))
        )
        for sigma in maturities:
            flow = CashFlow.single_payment(float(sigma))
            assert convexity_gap(extrapolate(flat3, M2), flow, unit) < 0.0
            assert convexity_gap(extrapolate(flat3, M5), flow, unit) > 0.0

    def test_infeasible_rejected(self, flat3):
        curve = extrapolate(flat3, MethodSpec("M4", tau=TAU))
        with pytest.raises(PlanKindError):
            convexity_gap(curve, CashFlow.single_payment(30.0), CurveShift.parallel(1.0))


class TestValueIdentities:
    def test_value_is_revaluation_on_the_base_curve(self, market_curve):
        """One rule for a plan's value, on a curve with nodes inside (tau, kappa)."""
        assert market_curve.breakpoints_between(TAU, KAPPA).size > 0
        specs = (MethodSpec("M1", tau=TAU, ufr=UFR), M2, M3, M5)
        for flow in (SYMBOLIC_FLOW, MANY_LUMP_FLOW):
            plans = {spec.kind: hedge(extrapolate(market_curve, spec), flow) for spec in specs}
            assert any(callable(d.rate) for d in plans["M5_SFSA"].densities)
            for kind, plan in plans.items():
                assert plan.value() == plan.value_under(market_curve, market_curve), kind
        assert len(plans["M5_SFSA"].lumps) >= 8

    @pytest.mark.parametrize(
        "spec", [M2, MethodSpec("M4", tau=TAU), MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.1)],
        ids=["M2", "M4", "M6_SW_continuous"],
    )
    def test_plan_integral_is_the_standalone_integral(self, market_curve, spec):
        """The integral a plan reads from the pass that prices the liability
        is ``stieltjes_integral`` of its weight, t, t - tau or t c(t), bit for bit."""
        curve = extrapolate(market_curve, spec)
        if spec.kind == "M2":
            weight = lambda t: np.asarray(t, dtype=float)
        elif spec.kind == "M4":
            weight = lambda t: np.asarray(t, dtype=float) - TAU
        else:
            weight = lambda t: np.asarray(t, dtype=float) * sw_variation_coefficient(
                t, TAU, spec.alpha, UFR, curve.f_tau
            )
        want = stieltjes_integral(curve, SYMBOLIC_FLOW, weight)
        plan = hedge(curve, SYMBOLIC_FLOW)
        if spec.kind == "M2":
            assert plan.lumps[0].amount == want / TAU
        else:
            assert plan.diagnostics["unmatched_forward_coefficient"] == want

    def test_empty_plan_values_each_row(self, market_curve):
        """M1's empty plan, revalued on a ladder of two curves, is worth 0 on each."""
        plan = hedge(extrapolate(market_curve, MethodSpec("M1", tau=TAU, ufr=UFR)), SYMBOLIC_FLOW)
        assert plan.lumps == () and plan.densities == ()
        ladder = market_curve.ray(random_shift(np.random.default_rng(3)))(np.array([0.5, 1.0]))
        values = plan.value_under(ladder, market_curve)
        assert isinstance(values, np.ndarray) and values.tolist() == [0.0, 0.0]

    def test_non_finite_plan_pass_raises(self):
        """A plan integral that overflows is a domain error, with no warning."""
        plan = HedgePlan(PLAN_PERFECT, (PlanLump(TAU, 1e308),))
        assert plan.integrate([(lambda t: t / TAU, ())]).tolist() == [1e308]
        with pytest.raises(DomainError, match="not finite"):
            plan.integrate([(lambda t: t / TAU, ()), (lambda t: t * t, ())])

    def test_one_split_rule_for_both_measures(self):
        """An integral over dA* or dL* splits at the market nodes inside each density,
        whether or not the weight's breakpoints list them."""
        nodes = [0.0, 5.0, 10.0, 11.3, 13.7, 16.1, 25.0, 40.0]
        z = ForwardCurve.from_forwards(nodes, [0.02, 0.025, 0.03, 0.031, 0.029, 0.033, 0.035, 0.036])
        market_nodes = z.breakpoints_between(TAU, KAPPA)
        plan = hedge(extrapolate(z, M5, 40.0), SYMBOLIC_FLOW)
        assert any(callable(d.rate) for d in plan.densities)
        curve = extrapolate(z, M5, 40.0)
        for shift in suite_shifts(5, 3, 40.0):
            def weight(t, shift=shift):
                return np.asarray(t, dtype=float) * shift.delta_z(t)

            shift_nodes = shift.breakpoints_between(0.0, 40.0)
            assert not set(market_nodes) & set(shift_nodes)
            both = np.union1d(shift_nodes, market_nodes)
            assert plan.integrate([(weight, shift_nodes)]) == plan.integrate([(weight, both)])
            assert stieltjes_integral(curve, SYMBOLIC_FLOW, weight, shift_nodes) == stieltjes_integral(
                curve, SYMBOLIC_FLOW, weight, both
            )

    def test_m3_m5_match_liability_value_randomized(self, flat3):
        rng = np.random.default_rng(109)
        for _ in range(50):
            flow = random_lump_flow(rng, TAU + 0.5, 180.0)
            for spec in (M3, M5):
                curve = extrapolate(flat3, spec)
                liability = present_value(curve, flow)
                plan = hedge(extrapolate(flat3, spec), flow)
                assert abs(plan.value() - liability) <= 1e-10 * max(1.0, liability)

    def test_m2_value_is_duration_leverage(self, flat3):
        rng = np.random.default_rng(113)
        curve = extrapolate(flat3, M2)
        for _ in range(50):
            flow = random_lump_flow(rng, TAU + 0.5, 180.0)
            liability = present_value(curve, flow)
            plan = hedge(extrapolate(flat3, M2), flow)
            ratio = plan.value() / liability
            expected = duration(curve, flow) / TAU
            assert ratio == pytest.approx(expected, rel=1e-10)
            assert ratio >= 1.0

    def test_m5_support_inside_blend_window(self, flat3):
        rng = np.random.default_rng(127)
        for _ in range(10):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            plan = hedge(extrapolate(flat3, M5), flow)
            for lump in plan.lumps:
                assert TAU < lump.time <= KAPPA
            for dens in plan.densities:
                assert TAU <= dens.start < dens.end <= KAPPA

    def test_first_order_residual_scaling(self, flat3):
        """Full-revaluation tracking error vanishes faster than the shift size."""
        ts = np.arange(0.0, 200.5, 0.5)
        shift = CurveShift.from_forward_values(
            ts, 0.01 * np.exp(-0.5 * ((ts - 14.0) / 6.0) ** 2)
        )
        flow = CashFlow.single_payment(30.0)
        for spec in (M2, M5):
            plan = hedge(extrapolate(flat3, spec), flow)
            base_asset = plan.value()
            base_liab = present_value(extrapolate(flat3, spec), flow)
            ratios = []
            for eps in EPS_SCHEDULE:
                shifted = flat3.ray(shift)(eps)
                asset = plan.value_under(shifted, flat3)
                liab = present_value(extrapolate(shifted, spec), flow)
                ratios.append(abs((asset - base_asset) - (liab - base_liab)) / eps)
            assert all(a > b for a, b in zip(ratios, ratios[1:])), (spec.kind, ratios)


class TestHedgingWithOffset:
    def test_offset_preserves_identities_and_matching(self, flat3):
        """A constant yield offset moves values but not the hedge relations."""
        rng = np.random.default_rng(151)
        flow = CashFlow(lumps=((15.0, 1.0), (30.0, 0.6)))
        for kind, kwargs in (
            ("M3", {"ufr": UFR}),
            ("M5_SFSA", {"ufr": UFR, "kappa": KAPPA}),
        ):
            spec = MethodSpec(kind, tau=TAU, offset=-0.001, **kwargs)
            curve = extrapolate(flat3, spec)
            liability = present_value(curve, flow)
            plan = hedge(extrapolate(flat3, spec), flow)
            assert plan.value() == pytest.approx(liability, rel=1e-12)
            for _ in range(3):
                residual = verify_first_order(plan, extrapolate(flat3, spec), flow, random_shift(rng))
                assert residual < 1e-10
        spec3 = MethodSpec("M3", tau=TAU, ufr=UFR, offset=-0.001)
        plan3 = hedge(extrapolate(flat3, spec3), flow)
        gap = verify_perfect(plan3, extrapolate(flat3, spec3), flow, shift_suite(10, seed=5))
        assert gap < 1e-9


class TestM5WithDensityLiabilities:
    def test_value_identity_and_first_order(self, flat3):
        # densities inside the blend window, crossing kappa, and beyond it
        flow = CashFlow(
            lumps=((40.0, 1.0),),
            densities=((12.0, 18.0, 0.25), (19.0, 21.0, 0.2), (22.0, 30.0, 0.1)),
        )
        curve = extrapolate(flat3, M5)
        liability = present_value(curve, flow)
        plan = hedge(extrapolate(flat3, M5), flow)
        assert plan.value() == pytest.approx(liability, rel=1e-9)
        residual = verify_first_order(plan, extrapolate(flat3, M5), flow, CurveShift.parallel(0.01))
        assert residual < 1e-8 * liability
        ts = np.arange(0.0, 200.5, 0.5)
        bumpy = CurveShift.from_forward_values(
            ts, 0.008 * np.exp(-0.5 * ((ts - 15.0) / 3.0) ** 2)
        )
        assert verify_first_order(plan, extrapolate(flat3, M5), flow, bumpy) < 1e-8 * liability


class TestFra:
    def test_zero_value_at_inception(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            curve = random_curve(rng)
            fra = fra_replicate(curve, TAU, 1.0)
            assert abs(fra.value()) < 1e-12

    def test_constant_forward_window_sensitivity(self, flat3):
        """For a flat forward bump the exact sensitivity carries D(tau - eps).

        The near-limit form with D(tau) instead agrees only as the accrual
        window shrinks.
        """
        eps = 1.0
        fra = fra_replicate(flat3, TAU, eps)
        shift = CurveShift.parallel(0.0001)
        d_near = flat3.discount_factor(TAU - eps)
        assert fra.variation(shift) == pytest.approx(d_near * 0.0001, rel=1e-12)
        tiny = fra_replicate(flat3, TAU, 1e-3)
        d_tau = flat3.discount_factor(TAU)
        assert tiny.variation(shift) == pytest.approx(d_tau * 0.0001, rel=1e-4)

    def test_halving_doubles_notional_keeps_sensitivity(self):
        zero_curve = ForwardCurve.flat(0.0)
        shift = CurveShift.parallel(0.0001)
        wide = fra_replicate(zero_curve, TAU, 1.0)
        narrow = fra_replicate(zero_curve, TAU, 0.5)
        # the borrowed lump 1/eps doubles
        assert narrow.flows.lumps[0] == (TAU - 0.5, 2.0)
        assert narrow.flows.lumps[0][1] == 2.0 * wide.flows.lumps[0][1]
        assert narrow.variation(shift) == pytest.approx(wide.variation(shift), rel=1e-12)

    def test_domain_errors(self, flat3):
        with pytest.raises(DomainError):
            fra_replicate(flat3, TAU, TAU)
        with pytest.raises(DomainError):
            fra_replicate(flat3, TAU, 0.0)

    def test_numeric_variation_of_fra_value(self, flat3):
        """The exact lump-form sensitivity matches differencing the repriced value."""
        from curvehedge import numeric_variation

        fra = fra_replicate(flat3, TAU, 1.0)
        rng = np.random.default_rng(137)
        shift = random_shift(rng)
        report = numeric_variation(
            lambda c: present_value(c, fra.flows), flat3, shift
        )
        assert report.numeric == pytest.approx(fra.variation(shift), rel=1e-6, abs=1e-10)


class TestInfeasibilityDecomposition:
    def test_m4_forward_coefficient(self, flat3):
        spec = MethodSpec("M4", tau=TAU)
        sigma = 30.0
        curve = extrapolate(flat3, spec)
        report = infeasibility_decomposition(extrapolate(flat3, spec), CashFlow.single_payment(sigma))
        assert report.forward_coefficient == pytest.approx(
            (sigma - TAU) * curve.discount_factor(sigma), rel=1e-12
        )
        assert report.bond_lump_at_tau == pytest.approx(curve.discount_factor(sigma), rel=1e-12)

    def test_m6_small_speed_coefficient(self, flat3):
        alpha = 1e-6
        spec = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha)
        sigma = 30.0
        curve = extrapolate(flat3, spec)
        report = infeasibility_decomposition(extrapolate(flat3, spec), CashFlow.single_payment(sigma))
        f_tau = flat3.forward_rate(TAU, side="left")
        c_limit = (1 - TAU / sigma) / (1 + (UFR - f_tau) * (sigma - TAU))
        expected = sigma * c_limit * curve.discount_factor(sigma)
        assert report.forward_coefficient == pytest.approx(expected, rel=1e-5)
        # comparable to the constant-forward method's exposure when rates are small
        m4_curve = extrapolate(flat3, MethodSpec("M4", tau=TAU))
        m4 = infeasibility_decomposition(m4_curve, CashFlow.single_payment(sigma))
        assert abs(report.forward_coefficient - m4.forward_coefficient) < 0.25 * m4.forward_coefficient

    def test_overlay_exact_for_flat_forward_windows(self, flat3):
        """Bond plus FRA matches the target exactly when Df is flat on the window."""
        rng = np.random.default_rng(139)
        flow = random_lump_flow(rng, TAU + 1.0, 120.0)
        for spec in (MethodSpec("M4", tau=TAU), MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2)):
            report = infeasibility_decomposition(extrapolate(flat3, spec), flow, eps=1.0)
            assert report.residual(CurveShift.parallel(0.013)) < 1e-12

    def test_overlay_residual_shrinks_with_window(self, flat3):
        """For curving forward shifts the overlay error is O(eps)."""
        ts = np.arange(0.0, 200.5, 0.25)
        shift = CurveShift.from_forward_values(
            ts, 0.01 * np.exp(-0.5 * ((ts - TAU) / 2.0) ** 2)
        )
        spec = MethodSpec("M4", tau=TAU)
        flow = CashFlow.single_payment(30.0)
        residuals = [
            infeasibility_decomposition(extrapolate(flat3, spec), flow, eps=eps).residual(shift)
            for eps in (2.0, 1.0, 0.5, 0.25)
        ]
        assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals
        assert residuals[-1] < 0.5 * residuals[0]

    def test_bond_only_leaves_exposure(self, flat3):
        rng = np.random.default_rng(149)
        for _ in range(10):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            for spec in (MethodSpec("M4", tau=TAU), MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2)):
                report = infeasibility_decomposition(extrapolate(flat3, spec), flow)
                assert report.forward_coefficient > 0.0

    def test_wrong_method_rejected(self, flat3):
        with pytest.raises(DomainError):
            infeasibility_decomposition(extrapolate(flat3, M3), CashFlow.single_payment(30.0))


# ---- each verify scenario priced once ------------------------------------------

#: a liability density inside (tau, kappa], so the M5 plan carries a
#: symbolic roll-down density
SYMBOLIC_FLOW = CashFlow(lumps=((14.0, 0.6), (35.0, 1.0)), densities=((12.0, 17.5, 0.2),))

#: ten lumps inside (tau, kappa): from eight terms on, ``np.sum`` adds
#: pairwise, not in order
MANY_LUMP_FLOW = CashFlow(
    lumps=tuple((10.5 + 0.9 * k, 0.1 + 0.05 * k) for k in range(10)) + ((35.0, 1.0),),
    densities=((12.0, 17.5, 0.2),),
)


def _fresh_value_under(plan, curve, base_curve):
    """``HedgePlan.value_under`` with every density rate evaluated afresh, as before the memo."""
    total = 0.0
    for lump in plan.lumps:
        ratio = float(curve.discount_factor(lump.time)) / float(base_curve.discount_factor(lump.time))
        total += lump.amount * ratio
    for dens in plan.densities:
        def integrand(s, dens=dens):
            ratio = np.asarray(curve.discount_factor(s), dtype=float) / np.asarray(
                base_curve.discount_factor(s), dtype=float
            )
            s = np.asarray(s, dtype=float)
            if callable(dens.rate):
                return np.asarray(dens.rate(s), dtype=float) * ratio
            return np.full_like(s, float(dens.rate)) * ratio

        pts = list(curve.breakpoints_between(dens.start, dens.end))
        total += adaptive_panels(integrand, dens.start, dens.end, breakpoints=pts)[2]
    return total


def _checks_one_at_a_time(spec, z, flow, shifts, tolerances, corrupt):
    """``verification_checks`` as it was written before scenarios were shared.

    Every scenario is rebuilt, re-extrapolated and repriced wherever a
    check needs it, and the plan is revalued without the rate memo.
    """
    checks = []
    liability_value = present_value(extrapolate(z, spec), flow)
    for i, shift in enumerate(shifts):
        report = variation_report(spec, z, shift, flow)
        analytic = report.analytic + corrupt
        residual = abs(analytic - report.numeric)
        scale = max(abs(analytic), abs(report.numeric))
        bound = tolerances["variation_rel"] * scale + tolerances["variation_abs"] * max(
            1.0, abs(liability_value)
        )
        checks.append((f"variation[{i}]", residual <= bound, residual, bound))
    if spec.kind in ("M4", "M6_SW_continuous"):
        return checks
    plan = hedge(extrapolate(z, spec), flow)
    bound = tolerances["first_order_residual_rel"] * max(1.0, abs(liability_value))
    for i, shift in enumerate(shifts):
        residual = verify_first_order(plan, extrapolate(z, spec), flow, shift)
        checks.append((f"hedge_equation[{i}]", residual <= bound, residual, bound))
    if plan.kind == PLAN_PERFECT:
        gap = verify_perfect(plan, extrapolate(z, spec), flow, shifts)
        bound = tolerances["perfect_gap_rel"] * abs(liability_value)
        checks.append(("perfect_revaluation", gap <= bound, gap, bound))
    if plan.kind == PLAN_FIRST_ORDER:
        tail = int(tolerances["remainder_tail"])
        floor = tolerances["remainder_floor"] * (1.0 + abs(liability_value))
        base_asset = plan.value()
        for i, shift in enumerate(shifts):
            ratios = []
            for eps in EPS_SCHEDULE:
                shifted = z.ray(shift)(eps)
                asset = _fresh_value_under(plan, shifted, z)
                liab = present_value(extrapolate(shifted, spec), flow)
                ratios.append(abs((asset - base_asset) - (liab - liability_value)) / eps)
            window = ratios[-tail:]
            good = all(b < a or b < floor for a, b in zip(window, window[1:]))
            checks.append((f"remainder_decay[{i}]", good, ratios[-1], ratios[-tail]))
    return checks


class TestRateMemo:
    """A plan's revaluation is its fresh evaluation, bit for bit. Plan rates
    are no longer memoized: each pass evaluates them on its own nodes."""

    def test_memoized_value_under_is_bit_identical(self, market_curve):
        """On each eps-curve and on the stacked ladder of all of them, whose
        rows are revalued in one pass."""
        shift = random_shift(np.random.default_rng(211))
        along = market_curve.ray(shift)
        curves = [along(eps) for eps in EPS_SCHEDULE]
        ladder = along(np.array(EPS_SCHEDULE))
        for flow in (SYMBOLIC_FLOW, MANY_LUMP_FLOW):
            plan = hedge(extrapolate(market_curve, M5), flow)
            assert any(callable(d.rate) for d in plan.densities)
            want = [_fresh_value_under(plan, curve, market_curve) for curve in curves]
            # twice: a revaluation leaves nothing behind that changes the next
            for _ in range(2):
                assert [plan.value_under(curve, market_curve) for curve in curves] == want
                assert plan.value_under(ladder, market_curve).tolist() == want

    def test_threads_share_a_memo(self, market_curve):
        """More threads than cores revaluing one plan at once get what one thread gets."""
        plan = hedge(extrapolate(market_curve, M5), SYMBOLIC_FLOW)
        shift = random_shift(np.random.default_rng(227))
        curves = [market_curve.ray(shift)(eps) for eps in EPS_SCHEDULE]
        want = [_fresh_value_under(plan, c, market_curve) for c in curves]
        got = {}

        def run(k):
            got[k] = [plan.value_under(c, market_curve) for c in curves]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == list(range(8))
        assert all(values == want for values in got.values())


class TestPlanMeasure:
    """dA* is priced by the passes that price dL*: each row of the plan's
    measure is its standalone integral bit for bit."""

    @pytest.mark.parametrize("spec", [M2, M3, M5], ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("count", [1, PASS_WEIGHTS + 1])
    @pytest.mark.parametrize("data", ["sample", "symbolic"])
    def test_summary_gap_is_convexity_gap(self, market_curve, spec, count, data):
        if data == "sample":
            z = read_curve(str(SAMPLE_DATA / "curve.csv"))
            flow = read_cash_flow(str(SAMPLE_DATA / "liabilities.csv"))
        else:
            z, flow = market_curve, SYMBOLIC_FLOW
        curve = extrapolate(z, spec)
        summary = hedge_summary(curve, flow, shift_suite(count, 5))
        plan = hedge(curve, flow)
        assert summary["convexity_gap_parallel_unit"] == convexity_gap(
            curve, flow, CurveShift.parallel(1.0, curve.horizon), plan
        )
        assert summary["total_value"] == plan.value()

    @pytest.mark.parametrize("flow", [SYMBOLIC_FLOW, MANY_LUMP_FLOW], ids=["symbolic", "many-lumps"])
    def test_every_plan_row_is_its_standalone_integral(self, market_curve, flow):
        """The gap's, each hedge term's and a ladder's rows of one call, the
        plan's value and each density's mass; with a shift whose node at
        13.37 splits the roll-down density where the suite's nodes do not."""
        curve = extrapolate(market_curve, M5)
        plan = hedge(curve, flow)
        suite = suite_shifts(3, 5)
        block = CurveShift.stacked(suite)
        odd = CurveShift.from_forward_values([0.0, 13.37, 200.0], [0.001, -0.002, 0.003])
        ladder = market_curve.ray(block)(np.array(EPS_SCHEDULE))
        gap = hedging._gap_term(CurveShift.parallel(1.0, curve.horizon), curve.horizon)
        revaluation = hedging._revaluation_term(ladder, market_curve)
        terms = [gap, hedging._hedge_term(block, curve.horizon), hedging._hedge_term(odd, curve.horizon), revaluation]
        alone = [gap, *(hedging._hedge_term(shift, curve.horizon) for shift in (*suite, odd)), revaluation]
        lumps = ([l.time for l in plan.lumps], [l.amount for l in plan.lumps])
        densities = [(d.start, d.end, d.rate_values, 1.0, d.breakpoints) for d in plan.densities]
        # each reference is one row priced alone: the measure w dA* of its own
        # Measure, with the stacked hedge term's rows the single shifts' terms
        want = [Measure(*_fold_weight(lumps, densities, *term)).present_values for term in alone]
        assert plan.integrate(terms).tolist() == [value for rows in want for value in rows]
        assert plan.value() == Measure(lumps, densities).total
        assert list(plan.masses) == [Measure(((), ()), [density]).total for density in densities]

    @pytest.mark.parametrize("spec", [MethodSpec("M1", tau=TAU, ufr=UFR), M5], ids=["M1", "M5"])
    def test_no_terms_no_rows(self, market_curve, spec):
        plan = hedge(extrapolate(market_curve, spec), SYMBOLIC_FLOW)
        rows = plan.integrate([])
        assert isinstance(rows, np.ndarray) and rows.shape == (0,)


class TestVerificationChecks:
    @pytest.mark.parametrize(
        "count, command", [(1, "hedge"), (1, "verify"), (3, "hedge"), (3, "verify"), (200, "hedge")]
    )
    def test_no_plan_rate_evaluated_twice_on_the_same_nodes(self, market_curve, monkeypatch, command, count):
        """The plan's lead pass, which holds its masses, and its passes of
        terms are the only passes over a symbolic M5 rate, each on its own
        nodes: at 200 shifts ``hedge``'s seven blocks hold seven hedge terms,
        one pass. ``verify`` still revalues the plan in one pass per block."""
        seen = []
        rate_values = PlanDensity.rate_values

        def recording(density, t):
            if callable(density.rate):
                seen.append((id(density), np.asarray(t, dtype=float).tobytes()))
            return rate_values(density, t)

        monkeypatch.setattr(PlanDensity, "rate_values", recording)
        curve, shifts = extrapolate(market_curve, M5), shift_suite(count, 5)
        if command == "hedge":
            hedge_summary(curve, SYMBOLIC_FLOW, shifts)
        else:
            verification_checks(curve, SYMBOLIC_FLOW, shifts, TOLERANCES)
        assert seen and len(set(seen)) == len(seen)

    @pytest.mark.parametrize(
        "spec",
        [
            MethodSpec("M1", tau=TAU, ufr=UFR),
            M2,
            M3,
            MethodSpec("M4", tau=TAU),
            M5,
            MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2),
        ],
        ids=lambda spec: spec.kind,
    )
    @pytest.mark.parametrize("corrupt", [0.0, 1e-3])
    def test_match_one_at_a_time(self, market_curve, spec, corrupt):
        curve = extrapolate(market_curve, spec)
        got = verification_checks(curve, SYMBOLIC_FLOW, shift_suite(2, 5), TOLERANCES, corrupt=corrupt)
        want = _checks_one_at_a_time(spec, market_curve, SYMBOLIC_FLOW, suite_shifts(2, 5), TOLERANCES, corrupt)
        assert got == want

    @pytest.mark.parametrize("spec", [M2, MethodSpec("M4", tau=TAU), M5], ids=lambda spec: spec.kind)
    def test_match_one_at_a_time_past_a_chunk(self, market_curve, monkeypatch, spec):
        """One shift more than a pass takes. The liability's weights, the
        plan's and each shift's variation weight, take one pass per
        ``PASS_WEIGHTS`` of them, the curve's row leading the first; with
        M5 the shifts' nodes split the flow's density in (tau, kappa) where
        the curve does not, so the variation weights take passes of their
        own. Every row is its standalone integral bit for bit. The suite's
        blocks, one of ``PASS_WEIGHTS`` shifts and one of one, give the
        one-shift checks, and so are ``hedge_summary``'s residual and gap."""
        shifts = suite_shifts(PASS_WEIGHTS + 1, 5)
        blocks = shift_suite(PASS_WEIGHTS + 1, 5)
        assert [block.rows for block in blocks] == [PASS_WEIGHTS, None]
        curve = extrapolate(market_curve, spec)
        weights = [*spec.method.plan_weights(curve), *(variation_weight(curve, s) for s in shifts)]
        passes = []
        density_integrals = curves_module._density_integrals

        def counted(densities, *args):
            a, _, shape, _, _ = densities[0]
            passes.append(np.atleast_2d(shape(np.array([a]))).shape[0])
            return density_integrals(densities, *args)

        with monkeypatch.context() as patch:
            patch.setattr(curves_module, "_density_integrals", counted)
            lstar = DiscountedFlow(SYMBOLIC_FLOW, curve, tuple(weights))
        assert passes == ([1, PASS_WEIGHTS, 1] if spec is M5 else [1 + PASS_WEIGHTS, 2])
        assert lstar.total == present_value(curve, SYMBOLIC_FLOW)
        for integral, weight in zip(lstar.integrals, weights, strict=True):
            assert integral == stieltjes_integral(curve, SYMBOLIC_FLOW, *weight)

        got = verification_checks(curve, SYMBOLIC_FLOW, blocks, TOLERANCES)
        want = _checks_one_at_a_time(spec, market_curve, SYMBOLIC_FLOW, shifts, TOLERANCES, 0.0)
        assert got == want
        if spec.method.plan_kind == PLAN_INFEASIBLE:
            return

        summary = hedge_summary(curve, SYMBOLIC_FLOW, blocks)
        plan = hedge(curve, SYMBOLIC_FLOW)
        residuals = [verify_first_order(plan, curve, SYMBOLIC_FLOW, shift) for shift in shifts]
        variations = [method_variation_pv(curve, shift, SYMBOLIC_FLOW) for shift in shifts]
        # a residual is |lhs + variation|, with lhs near -variation
        assert abs(summary["max_first_order_residual"] - max(residuals)) <= 1e-13 * max(map(abs, variations))
        unit = CurveShift.parallel(1.0, curve.horizon)
        assert summary["convexity_gap_parallel_unit"] == convexity_gap(curve, SYMBOLIC_FLOW, unit, plan)

    def test_corruption_reaches_only_the_variation_checks(self, market_curve):
        shifts = shift_suite(2, 5)
        curve = extrapolate(market_curve, M5)
        clean = verification_checks(curve, SYMBOLIC_FLOW, shifts, TOLERANCES)
        corrupted = verification_checks(curve, SYMBOLIC_FLOW, shifts, TOLERANCES, corrupt=1e-3)
        for (name, *a), (_, *b) in zip(clean, corrupted):
            assert (a == b) != name.startswith("variation[")

    @pytest.mark.parametrize("count", [1, 3])
    def test_each_scenario_extrapolated_once(self, market_curve, monkeypatch, count):
        """The base curve, which the plan shares, and one stacked curve of
        every shift's eight eps-curves."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extrapolate(*args, **kwargs)

        monkeypatch.setattr(hedging, "extrapolate", counting)
        verification_checks(counting(market_curve, M5), SYMBOLIC_FLOW, shift_suite(count, 5), TOLERANCES)
        assert len(calls) == 2
        assert calls[0][0] is market_curve
        assert calls[1][0].rows == len(EPS_SCHEDULE) * count

    @pytest.mark.parametrize(
        "spec",
        [MethodSpec("M1", tau=TAU, ufr=UFR), M2, M3, MethodSpec("M4", tau=TAU), M5],
        ids=lambda spec: spec.kind,
    )
    def test_base_curve_priced_once(self, market_curve, monkeypatch, spec):
        """The liability pass holds the liability value, which is the flow's
        present value bit for bit: the pass that solves a hedgeable method's
        plan, or an unhedgeable method's pass of its variations. So the
        checks price only the ladders, one stacked curve for the suite."""
        calls = []

        def counting(curve, flow):
            calls.append(curve.rows)
            return present_value(curve, flow)

        monkeypatch.setattr(hedging, "present_value", counting)
        verification_checks(extrapolate(market_curve, spec), SYMBOLIC_FLOW, shift_suite(3, 5), TOLERANCES)
        assert calls == [3 * (len(EPS_SCHEDULE) + (spec.kind in ("M1", "M3")))]
        plan = hedge(extrapolate(market_curve, spec), SYMBOLIC_FLOW)
        value = present_value(extrapolate(market_curve, spec), SYMBOLIC_FLOW)
        assert plan.diagnostics["liability_value"] == value

    @pytest.mark.parametrize("spec", [MethodSpec("M4", tau=TAU), M5], ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("row", [0, 3, 7])
    def test_non_finite_ladder_value_names_its_eps(self, market_curve, monkeypatch, spec, row):
        """As ``numeric_variation`` does for a functional that returns one."""

        def poisoned(curve, flow):
            values = present_value(curve, flow)
            if curve.rows is not None:
                values = np.array(values)
                values[row] = np.nan
            return values

        monkeypatch.setattr(hedging, "present_value", poisoned)
        with pytest.raises(EvaluationError, match=f"at eps={EPS_SCHEDULE[row]}$") as info:
            verification_checks(extrapolate(market_curve, spec), SYMBOLIC_FLOW, shift_suite(2, 5), TOLERANCES)
        assert info.value.eps == EPS_SCHEDULE[row]

    def test_non_finite_liability_value_is_named_first(self, market_curve, monkeypatch):
        """The base value, at eps 0, is checked before the ladder's."""
        liability_pass = variation_module.DiscountedFlow

        def poisoned(*args, **kwargs):
            lstar = liability_pass(*args, **kwargs)
            object.__setattr__(lstar, "total", np.inf)
            return lstar

        monkeypatch.setattr(variation_module, "DiscountedFlow", poisoned)
        monkeypatch.setattr(hedging, "present_value", lambda curve, flow: np.full(curve.rows or (), np.inf))
        with pytest.raises(EvaluationError) as info:
            verification_checks(
                extrapolate(market_curve, MethodSpec("M4", tau=TAU)), SYMBOLIC_FLOW, shift_suite(1, 5), TOLERANCES
            )
        assert info.value.eps == 0.0

    @pytest.mark.parametrize("spec", [MethodSpec("M1", tau=TAU, ufr=UFR), M3], ids=["M1", "M3"])
    def test_perfect_plan_revalued_on_the_ladder(self, market_curve, monkeypatch, spec):
        """A perfect plan's revaluation curve z + Dz is a ninth row of each
        shift's ladder, all in the suite's one stacked curve, so it costs no
        extrapolation of its own."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extrapolate(*args, **kwargs)

        monkeypatch.setattr(hedging, "extrapolate", counting)
        curve = counting(market_curve, spec)
        checks = verification_checks(curve, SYMBOLIC_FLOW, shift_suite(3, 5), TOLERANCES)
        assert [market.rows for market, *_ in calls[1:]] == [3 * (len(EPS_SCHEDULE) + 1)]
        assert [name for name, *_ in checks][-1] == "perfect_revaluation"

    @pytest.mark.parametrize("count", [1, 3])
    def test_hedge_summary_extrapolates_once(self, market_curve, monkeypatch, count):
        """One curve for the plan, the residuals, the gap and the liability value."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return extrapolate(*args, **kwargs)

        monkeypatch.setattr(hedging, "extrapolate", counting)
        summary = hedge_summary(counting(market_curve, M5), SYMBOLIC_FLOW, shift_suite(count, 5))
        assert len(calls) == 1
        assert summary["liability_value"] == present_value(extrapolate(market_curve, M5), SYMBOLIC_FLOW)


#: the functionals of the extrapolated curve (L2), which take it whole
FUNCTIONALS = (
    hedge, verify_first_order, verify_perfect, convexity_gap, hedge_summary, verification_checks,
    infeasibility_decomposition, method_variation, method_variation_pv, second_order_pv, ufr_sensitivity,
)


class TestCurveArgument:
    @pytest.mark.parametrize("functional", FUNCTIONALS, ids=lambda f: f.__name__)
    def test_no_market_pieces(self, functional):
        """The curve carries its market curve, spec and horizon, so no
        functional takes them beside it, nor builds the curve itself."""
        params = inspect.signature(functional).parameters
        assert not {"spec", "z", "horizon"} & set(params)
        assert params["curve"].default is inspect.Parameter.empty

    @pytest.mark.parametrize(
        "built, shared",
        [
            (M3, MethodSpec("M1", tau=TAU, ufr=UFR)),
            (MethodSpec("M1", tau=TAU, ufr=0.03), M2),
            (M5, MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=0.035)),
            (M3, MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.1)),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_curve_sharing_anchors(self, market_curve, built, shared):
        """A curve rebuilt from another's market curve and horizon, as M6's
        UFR bound is, is an ordinary argument: every value is bit for bit
        that of the fresh curve."""
        source = extrapolate(market_curve, built)
        derived = extrapolate(source.base, shared, source.horizon)
        fresh = extrapolate(market_curve, shared)
        shift = shift_suite(1, 5)[0]
        for functional in (
            lambda curve: hedge(curve, SYMBOLIC_FLOW).to_json(),
            lambda curve: method_variation_pv(curve, shift, SYMBOLIC_FLOW),
            lambda curve: ufr_sensitivity(curve, SYMBOLIC_FLOW),
        ):
            assert functional(derived) == functional(fresh)


# ---- one liability entry -----------------------------------------------------

#: the messages of the rules the liability pass checks on its own
ENTRY_MESSAGES = ("exactly replicable", "positive present value")


def _entry_offences(tree) -> list:
    """(line, what) outside ``_liability_pass`` for every ``DiscountedFlow``
    that ``tree`` names or imports and every raise of an entry message."""
    entry = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "_liability_pass" for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if id(node) in entry:
            continue
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, ast.alias):
            names.append(node.name)
        out += [(node.lineno, name) for name in names if name == "DiscountedFlow"]
        if isinstance(node, ast.Raise):
            text = "".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
            out += [(node.lineno, message) for message in ENTRY_MESSAGES if message in text]
    return out


def test_one_liability_entry():
    """``hedge``, ``verify`` and ``sensitivity`` build dL* only through
    ``variation._liability_pass``: ``hedging.py`` and ``sensitivity.py``
    name no ``DiscountedFlow``, and no module but the entry raises the
    tau rule's or the positive-value rule's message."""
    package = pathlib.Path(hedging.__file__).parent
    offences = {}
    for path in sorted(package.glob("*.py")):
        found = _entry_offences(ast.parse(path.read_text(encoding="utf-8")))
        if path.name not in ("hedging.py", "sensitivity.py"):
            found = [(line, what) for line, what in found if what != "DiscountedFlow"]
        if found:
            offences[path.name] = found
    assert offences == {}


def test_entry_guard_sees_every_form():
    snippet = """
from .curves import DiscountedFlow as d
def _liability_pass():
    DiscountedFlow(flow, curve)
    raise DomainError("liabilities must have positive present value")
def other():
    curves.DiscountedFlow(flow, curve)
    raise DomainError("liability flows at or before tau are exactly replicable; " "split them off")
    raise DomainError(f"liabilities must have positive present value, got {x}")
"""
    assert sorted(_entry_offences(ast.parse(snippet))) == [
        (2, "DiscountedFlow"), (7, "DiscountedFlow"), (8, "exactly replicable"), (9, "positive present value")
    ]
