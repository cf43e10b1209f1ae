import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehedge import (
    CashFlow,
    DiscountedFlow,
    ExtrapolatedCurve,
    ForwardCurve,
    MethodSpec,
    dollar_duration,
    excess_duration,
    extrapolate,
    parameter_sensitivity,
    present_value,
    stieltjes_integral,
    ufr_sensitivity,
)
import curvehedge.curves as curves_module
import curvehedge.extrapolation as extrapolation_module
import curvehedge.quadrature as quadrature_module
import curvehedge.sensitivity as sensitivity_module
from curvehedge.curves import excess_weight
from curvehedge.errors import DefectiveCurveError, DomainError, UndefinedDurationError
from curvehedge.methods import sw_factor

from conftest import random_curve, random_lump_flow

UFR = 0.042
TAU = 10.0
KAPPA = 20.0

M1 = MethodSpec("M1", tau=TAU, ufr=UFR)
M2 = MethodSpec("M2", tau=TAU)
M3 = MethodSpec("M3", tau=TAU, ufr=UFR)
M5 = MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR)
M6 = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2)


def curves_below_ufr(rng, count):
    """Market curves whose forward stays under the long-term rate.

    The Smith-Wilson bounds are derived for that regime (the blending
    factor stays above one); steep curves through the ufr are exercised
    by the defect tests instead.
    """
    return [random_curve(rng, low=0.0, high=0.035) for _ in range(count)]


class TestClosedForms:
    def test_m3_single_lump(self, flat3):
        report = ufr_sensitivity(extrapolate(flat3, M3), CashFlow.single_payment(30.0))
        assert report.S == pytest.approx(20.0, abs=1e-10)

    def test_m2_single_lump(self, flat3):
        report = ufr_sensitivity(extrapolate(flat3, M2), CashFlow.single_payment(30.0))
        assert report.S == pytest.approx(30.0, abs=1e-10)

    def test_m5_lump_beyond_kappa(self, flat3):
        sigma = 30.0
        report = ufr_sensitivity(extrapolate(flat3, M5), CashFlow.single_payment(sigma))
        assert report.S == pytest.approx(sigma - 0.5 * (TAU + KAPPA), abs=1e-10)
        # the upper bound is tight for mass beyond the convergence point
        assert report.upper == pytest.approx(report.S, abs=1e-10)
        assert report.lower <= report.S + 1e-12

    def test_m5_lump_inside_blend(self, flat3):
        sigma = 14.0
        report = ufr_sensitivity(extrapolate(flat3, M5), CashFlow.single_payment(sigma))
        assert report.S == pytest.approx((sigma - TAU) ** 2 / (2 * (KAPPA - TAU)), abs=1e-10)
        assert report.lower - 1e-12 <= report.S <= report.upper + 1e-12

    def test_m1_oracle_only(self, flat3):
        spec = MethodSpec("M1", tau=TAU, ufr=UFR)
        report = ufr_sensitivity(extrapolate(flat3, spec), CashFlow.single_payment(30.0))
        assert report.closed_form is None
        # the extension is flat at the prescribed level, so the whole
        # liability duration responds
        assert report.S == pytest.approx(30.0, rel=1e-8)

    def test_m4_has_no_ufr(self, flat3):
        with pytest.raises(DomainError):
            ufr_sensitivity(extrapolate(flat3, MethodSpec("M4", tau=TAU)), CashFlow.single_payment(30.0))

    def test_mass_before_tau_rejected(self, flat3):
        with pytest.raises(DomainError):
            ufr_sensitivity(extrapolate(flat3, M3), CashFlow.single_payment(5.0))

    def test_report_json(self, flat3):
        data = ufr_sensitivity(extrapolate(flat3, M5), CashFlow.single_payment(30.0)).to_json()
        assert set(data) == {"method", "S", "lower", "upper", "oracle", "rel_residual"}


class TestBoundsAndOrdering:
    def test_m5_m6_bounds_randomized(self):
        rng = np.random.default_rng(151)
        for curve in curves_below_ufr(rng, 20):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            for spec in (M5, M6):
                report = ufr_sensitivity(extrapolate(curve, spec), flow)
                assert report.lower <= report.S + 1e-10, spec.kind
                assert report.S <= report.upper + 1e-10, spec.kind

    def test_sensitivity_ordering(self):
        """Phasing in or smoothing the long rate can only damp its influence."""
        rng = np.random.default_rng(157)
        for curve in curves_below_ufr(rng, 15):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            s3 = ufr_sensitivity(extrapolate(curve, M3), flow).S
            assert ufr_sensitivity(extrapolate(curve, M5), flow).S <= s3 + 1e-10
            assert ufr_sensitivity(extrapolate(curve, M6), flow).S <= s3 + 1e-10

    def test_m3_is_m2_minus_tau(self):
        """S for the pinned-forward method sits tau below the constant-yield one.

        The two sensitivities are durations under each method's own
        discount curve; for a single payment the duration is its maturity
        whatever the curve, so the identity is exact there. For portfolios
        the reweighting between the two curves leaves the strict ordering.
        """
        rng = np.random.default_rng(163)
        for curve in curves_below_ufr(rng, 10):
            sigma = float(rng.uniform(TAU + 1.0, 150.0))
            lump = CashFlow.single_payment(sigma)
            s2 = ufr_sensitivity(extrapolate(curve, M2), lump).S
            s3 = ufr_sensitivity(extrapolate(curve, M3), lump).S
            assert s3 == pytest.approx(s2 - TAU, abs=1e-10)
            portfolio = random_lump_flow(rng, TAU + 0.5, 150.0)
            s2 = ufr_sensitivity(extrapolate(curve, M2), portfolio).S
            assert ufr_sensitivity(extrapolate(curve, M3), portfolio).S < s2

    def test_within_method_duration_identities(self):
        """S_M2 is the duration and S_M3 the excess duration under its own curve."""
        rng = np.random.default_rng(169)
        from curvehedge import duration

        for curve in curves_below_ufr(rng, 10):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            s2 = ufr_sensitivity(extrapolate(curve, M2), flow).S
            assert s2 == pytest.approx(duration(extrapolate(curve, M2), flow), abs=1e-10)
            s3 = ufr_sensitivity(extrapolate(curve, M3), flow).S
            assert s3 == pytest.approx(
                duration(extrapolate(curve, M3), flow) - TAU, abs=1e-10
            )

    def test_oracle_agreement(self):
        rng = np.random.default_rng(167)
        for curve in curves_below_ufr(rng, 10):
            flow = random_lump_flow(rng, TAU + 0.5, 150.0)
            for spec in (M2, M3, M5, M6):
                report = ufr_sensitivity(extrapolate(curve, spec), flow)
                assert report.rel_residual < 1e-6, spec.kind


class TestM6Limits:
    def test_fast_reversion_limit(self, flat3):
        """S approaches the excess duration as the reversion speed explodes."""
        spec = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=1e3)
        flow = CashFlow(lumps=((15.0, 1.0), (30.0, 0.5), (60.0, 0.25)))
        report = ufr_sensitivity(extrapolate(flat3, spec), flow)
        curve = extrapolate(flat3, spec)
        assert abs(report.S - excess_duration(curve, flow, TAU)) < 1e-3

    def test_slow_reversion_limit(self, flat3):
        """As the speed vanishes, S tends to its closed-form slow limit.

        With g = ufr - f(tau) and u = t - tau, the limit curve has
        D = D0 (1 + g u) over the extension (D0 the pinned-forward curve),
        and S -> g * int u^2 dL*[D0] / int (1 + g u) dL*[D0].
        """
        alpha = 1e-5
        spec = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha)
        flow = CashFlow(lumps=((15.0, 1.0), (30.0, 0.5), (60.0, 0.25)))
        report = ufr_sensitivity(extrapolate(flat3, spec), flow)

        base = extrapolate(flat3, MethodSpec("M3", tau=TAU, ufr=UFR))
        g = UFR - flat3.forward_rate(TAU, side="left")
        u2 = stieltjes_integral(base, flow, lambda t: (t - TAU) ** 2)
        weighted = stieltjes_integral(base, flow, lambda t: 1.0 + g * (t - TAU))
        limit = g * u2 / weighted
        assert abs(report.S - limit) < 1e-3


class TestParameterSensitivity:
    """A family maps an array of parameter values to one curve with a row per value."""

    def test_ufr_family_reproduces_report(self, flat3):
        flow = CashFlow.single_payment(30.0)
        curve = extrapolate(flat3, M3)
        liability = present_value(curve, flow)

        def family(thetas):
            return curve.with_ufr(thetas)

        value = parameter_sensitivity(family, flow, UFR)
        report = ufr_sensitivity(extrapolate(flat3, M3), flow)
        # the value falls as the long rate rises: S = -(dP/d theta)/P
        assert value == pytest.approx(-report.S * liability, rel=1e-6)

    def test_parameter_without_effect(self, flat3):
        flow = CashFlow.single_payment(30.0)

        def family(thetas):
            return extrapolate(flat3, M3).with_ufr(np.full_like(thetas, UFR))

        assert parameter_sensitivity(family, flow, 1.23) == 0.0

    def test_offset_family_gives_dollar_duration(self, flat3):
        """Constant-yield extrapolation passes a constant offset straight through.

        The liability value then responds with (minus) its dollar duration.
        """
        flow = CashFlow.single_payment(30.0)

        def family(c):
            stacked = ForwardCurve(flat3.grid, flat3.f_left + c[:, None], flat3.f_right + c[:, None])
            return extrapolate(stacked, M2)

        value = parameter_sensitivity(family, flow, 0.0)
        curve = extrapolate(flat3, M2)
        assert value == pytest.approx(-dollar_duration(curve, flow), rel=1e-7)

    def test_non_finite_row_is_a_domain_error(self):
        """The rows below theta = 0 discount at a negative rate, so a lump
        near the largest float overflows there: the pass's domain error,
        with no numpy warning."""
        flow = CashFlow(lumps=((100.0, 1.79e308),))
        grid = ForwardCurve.flat(0.0).grid

        def family(c):
            return ForwardCurve(grid, c[:, None], c[:, None])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                parameter_sensitivity(family, flow, 0.0)


class TestUfrRows:
    """The closed forms' rows of the one pass against twins built apart."""

    @staticmethod
    def _assert_m6_rows_price_the_m3_curves(curve, flow):
        """The rows of the M6 weights against the M3 curves at ufr and
        ufr + alpha, built by ``extrapolate`` on the curve's market curve."""
        spec = curve.spec
        _, low, high, low_excess = DiscountedFlow(flow, curve, spec.method.ufr_weights(curve)).integrals
        m3 = [
            extrapolate(curve.base, MethodSpec("M3", tau=TAU, ufr=ufr, offset=spec.offset))
            for ufr in (UFR, UFR + spec.alpha)
        ]
        assert low == pytest.approx(present_value(m3[0], flow), rel=1e-13)
        assert high == pytest.approx(present_value(m3[1], flow), rel=1e-13)
        assert low_excess == pytest.approx(stieltjes_integral(m3[0], flow, *excess_weight(TAU)), rel=1e-13)

    @settings(max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alpha=st.floats(min_value=0.01, max_value=2.0),
        offset=st.sampled_from([0.0, 0.004, -0.0025]),
        before=st.booleans(),
    )
    def test_m6_bound_rows_price_the_m3_curves(self, seed, alpha, offset, before):
        """Past tau the M3 curves at ufr and ufr + alpha are the M6 curve's
        dL* reweighted: the rows of the M6 weights are the present values
        of those curves, built here by ``extrapolate``, and the first one's
        integral of (t - tau)+. Up to tau the M3 curves are the market
        curve, as the M6 curve is, so a flow with lumps there and a
        density across tau prices them alike."""
        rng = np.random.default_rng(seed)
        z = random_curve(rng, low=0.0, high=0.035)
        spec = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha, offset=offset)
        start = float(rng.uniform(TAU, 60.0))
        flow = random_lump_flow(rng, TAU, 150.0) + CashFlow(densities=((start, start + 15.0, 0.1),))
        if before:
            across = (float(rng.uniform(0.0, TAU)), start, 0.05)
            flow = flow + random_lump_flow(rng, 0.0, TAU) + CashFlow(densities=(across,))
        self._assert_m6_rows_price_the_m3_curves(extrapolate(z, spec), flow)

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    def test_m6_rows_across_the_pole_before_tau(self, market_curve, offset):
        """With g = ufr - f(tau) > 0, phi(t - tau) vanishes at the time
        tau - ln(1 + alpha / g) / alpha before tau. The rows read phi only
        past tau, so a density across that time is priced as on the M3
        curves, which are the market curve there."""
        alpha = 2.0
        curve = extrapolate(market_curve, MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha, offset=offset))
        g = curve.ufr - curve.f_tau
        pole = TAU - np.log1p(alpha / g) / alpha
        assert 1.0 < pole < TAU
        flow = CashFlow(lumps=((pole, 1.0), (30.0, 1.0)), densities=((pole - 1.0, 25.0, 0.1),))
        self._assert_m6_rows_price_the_m3_curves(curve, flow)

    @settings(max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), at_kappa=st.booleans())
    def test_m5_lower_bound_reads_the_mass_past_kappa(self, seed, at_kappa):
        """The lower bound is exc_kappa + span (L - C*(kappa)) / (2 L), with
        C* inclusive, so a lump exactly at kappa adds nothing past kappa."""
        rng = np.random.default_rng(seed)
        z = random_curve(rng, low=0.0, high=0.035)
        flow = random_lump_flow(rng, TAU, 150.0)
        if at_kappa:
            flow = flow + CashFlow.single_payment(KAPPA, float(rng.uniform(0.5, 2.0)))
        curve = extrapolate(z, M5)
        lstar = DiscountedFlow(flow, curve)
        total = lstar.total
        past = total - lstar.cumulative(KAPPA)
        want = excess_duration(curve, flow, KAPPA) + (KAPPA - TAU) * past / (2.0 * total)
        assert ufr_sensitivity(curve, flow).lower == pytest.approx(want, rel=1e-13, abs=1e-13)


class TestBoundsHold:
    """Wherever a report gives a bound, the bound holds."""

    @settings(max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["M5_SFSA", "M6_SW_continuous"]),
        gap=st.floats(min_value=-0.03, max_value=0.03),
        alpha=st.floats(min_value=0.005, max_value=2.0),
        kappa=st.floats(min_value=10.5, max_value=60.0),
        offset=st.sampled_from([0.0, 0.004, -0.0025]),
        at_tau=st.booleans(),
        at_kappa=st.booleans(),
        beyond=st.booleans(),
        density=st.booleans(),
        signed=st.booleans(),
    )
    def test_lower_s_upper(self, seed, kind, gap, alpha, kappa, offset, at_tau, at_kappa, beyond, density, signed):
        """lower <= S <= upper within a few ulps of |S|, for M5 and M6
        continuous with the ufr on either side of f(tau), on nonnegative
        flows, with lumps just past tau and at kappa among the cases. With
        ``beyond`` the rest of the mass lies past kappa, where M5's weight
        meets both bounds: without a lump at kappa they are tight. M6
        gives no lower bound for ufr < f(tau), and raises the defect where
        its discount factor is nonpositive at the flow's last time, also
        where that has made the present value nonpositive. A ``signed``
        flow, its first lump and random others negated and a density of
        either sign, gets no bounds, or raises where its present value is
        not positive."""
        rng = np.random.default_rng(seed)
        z = random_curve(rng, low=0.0, high=0.05)
        params = {"kappa": kappa} if kind == "M5_SFSA" else {"alpha": alpha}
        spec = MethodSpec(kind, tau=TAU, ufr=0.0, offset=offset, **params)
        curve = extrapolate(z, replace(spec, ufr=extrapolate(z, spec).f_tau + gap))
        start = kappa if beyond else TAU
        edges = [(t, float(rng.uniform(0.1, 2.0))) for t, on in ((np.nextafter(TAU, np.inf), at_tau), (kappa, at_kappa)) if on]
        flow, rate = random_lump_flow(rng, start, 150.0), 0.05
        if signed:
            signs = np.where(rng.uniform(size=len(flow.lumps)) < 0.5, -1.0, 1.0)
            signs[0] = -1.0
            flow = CashFlow(lumps=tuple((t, sign * a) for (t, a), sign in zip(flow.lumps, signs)))
            rate = float(rng.choice([-0.05, 0.05]))
        flow = flow + CashFlow(lumps=tuple(edges))
        if density:
            a = float(rng.uniform(start, 100.0))
            flow = flow + CashFlow(densities=((a, a + float(rng.uniform(1.0, 40.0)), rate),))
        g = curve.ufr - curve.f_tau
        if kind == "M6_SW_continuous" and not sw_factor(flow.latest_time - TAU, g, alpha) > 0.0:
            with pytest.raises(DefectiveCurveError):
                ufr_sensitivity(curve, flow)
            return
        if signed and not present_value(curve, flow) > 0.0:
            with pytest.raises(DomainError, match="positive present value"):
                ufr_sensitivity(curve, flow)
            return
        report = ufr_sensitivity(curve, flow)
        if signed:
            assert report.lower is None and report.upper is None and np.isfinite(report.S)
            return
        tol = 4.0 * np.spacing(abs(report.S))
        assert report.upper is not None and report.S <= report.upper + tol
        if kind == "M6_SW_continuous" and g < 0.0:
            assert report.lower is None
        else:
            assert report.lower - tol <= report.S


class TestPricedOnce:
    """ufr_sensitivity prices everything it reads in one stacked pass."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every pricing, in order: ("present_value", curve) for a call of
        ``present_value`` and ("pass", curve) for a DiscountedFlow."""
        calls = []
        original = curves_module.present_value
        original_pass = curves_module.DiscountedFlow.__post_init__

        def present_value_counted(curve, flow):
            calls.append(("present_value", curve))
            return original(curve, flow)

        def pass_counted(lstar):
            calls.append(("pass", lstar.curve))
            original_pass(lstar)

        monkeypatch.setattr(curves_module, "present_value", present_value_counted)
        monkeypatch.setattr(sensitivity_module, "present_value", present_value_counted)
        monkeypatch.setattr(curves_module.DiscountedFlow, "__post_init__", pass_counted)
        return calls

    @pytest.fixture
    def built(self, monkeypatch):
        """Every curve ufr_sensitivity builds by ``extrapolate`` or stacks
        by ``with_ufr``, with its kind and its ufr values, in order."""
        curves = []
        original_extrapolate = extrapolation_module.extrapolate
        original_with_ufr = ExtrapolatedCurve.with_ufr

        def extrapolate_recorded(z, spec, horizon):
            curve = original_extrapolate(z, spec, horizon)
            curves.append((curve, spec.kind, [spec.ufr]))
            return curve

        def with_ufr_recorded(self, values):
            curve = original_with_ufr(self, values)
            curves.append((curve, self.spec.kind, list(values)))
            return curve

        monkeypatch.setattr(extrapolation_module, "extrapolate", extrapolate_recorded)
        monkeypatch.setattr(ExtrapolatedCurve, "with_ufr", with_ufr_recorded)
        return curves

    @pytest.mark.parametrize("spec", [M1, M2, M3, M5, M6], ids=["M1", "M2", "M3", "M5", "M6"])
    def test_present_value_calls(self, counted, built, market_curve, spec):
        """One pass for every kind, on the given curve's family: the
        curve's own level, then the oracle's theta +- h and theta +- h/2.
        No other curve is built or priced, M6's M3 bounds included."""
        flow = CashFlow(lumps=((15.0, 1.0), (40.0, 2.0)), densities=((25.0, 35.0, 0.1),))
        curve = extrapolate(market_curve, spec)
        ufr_sensitivity(curve, flow)
        theta0 = curve.ufr
        h = 5e-5 * (abs(theta0) + 1.0)
        [(family, kind, ufrs)] = built
        assert counted == [("pass", family)] and family.rows == 5
        steps = [theta0 + h, theta0 - h, theta0 + h / 2.0, theta0 - h / 2.0]
        assert (kind, ufrs) == (spec.kind, [theta0, *steps])

    @pytest.mark.parametrize("spec", [M1, M2, M3, M5, M6], ids=["M1", "M2", "M3", "M5", "M6"])
    def test_one_integral_per_density(self, monkeypatch, market_curve, spec):
        """One adaptive integral per density of the flow, for every kind."""
        calls = []
        original = quadrature_module.adaptive_panels

        def adaptive_panels_counted(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature_module, "adaptive_panels", adaptive_panels_counted)
        monkeypatch.setattr(curves_module, "adaptive_panels", adaptive_panels_counted)
        densities = ((12.0, 24.0, 0.05), (25.0, 35.0, 0.1), (50.0, 70.0, 0.02))
        flow = CashFlow(lumps=((15.0, 1.0), (40.0, 2.0)), densities=densities)
        ufr_sensitivity(extrapolate(market_curve, spec), flow)
        assert calls == [(a, b) for a, b, _ in densities]

    def test_zero_total_is_undefined(self, market_curve):
        curve = extrapolate(market_curve, M3)
        with pytest.raises(UndefinedDurationError):
            excess_duration(curve, CashFlow(), TAU)


#: the sample market curve as zero yields, its four lumps, and two density
#: segments far beyond tau, on which an oracle integrating a difference
#: quotient of zero yields took up to 1,837 panels per report
SAMPLE_TIMES = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 12.0, 15.0, 20.0)
SAMPLE_YIELDS = (0.0210, 0.0222, 0.0239, 0.0252, 0.0270, 0.0282, 0.0294, 0.0300, 0.0306, 0.0312)
SAMPLE_LUMPS = ((15.0, 1.0), (25.0, 0.8), (40.0, 0.6), (60.0, 0.4))
DEEP_DENSITIES = ((25.0, 33.0, 0.05), (30.0, 38.0, 0.05))


class TestDeepDensityOracle:
    """The present-value oracle is tight and shallow on long density segments."""

    @pytest.fixture
    def panels(self, monkeypatch):
        """Quadrature panels taken, counted from the sizes of the panel ends."""
        count = [0]
        original = quadrature_module.gauss_panel

        def gauss_panel_counted(func, a, b):
            count[0] += np.asarray(a).size
            return original(func, a, b)

        monkeypatch.setattr(quadrature_module, "gauss_panel", gauss_panel_counted)
        return count

    @pytest.mark.parametrize("density", DEEP_DENSITIES, ids=["25-33", "30-38"])
    @pytest.mark.parametrize("spec", [M2, M3, M5, M6], ids=["M2", "M3", "M5", "M6"])
    def test_residual_and_panels(self, panels, spec, density):
        curve = ForwardCurve.from_zero_yields(SAMPLE_TIMES, SAMPLE_YIELDS)
        flow = CashFlow(lumps=SAMPLE_LUMPS, densities=(density,))
        report = ufr_sensitivity(extrapolate(curve, spec), flow)
        assert report.rel_residual <= 1e-12
        assert panels[0] <= 100
