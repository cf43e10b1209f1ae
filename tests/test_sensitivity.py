import numpy as np
import pytest

from curvehedge import (
    CashFlow,
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
from curvehedge.errors import DomainError, UndefinedDurationError

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
        assert report.oracle_only
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


class TestPricedOnce:
    """ufr_sensitivity prices everything it reads in one stacked pass per curve family."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every pricing, in order: ("present_value", curve) for a call of
        ``present_value`` and ("pass", curve, family) for a DiscountedFlow."""
        calls = []
        original = curves_module.present_value
        original_pass = curves_module.DiscountedFlow.__post_init__

        def present_value_counted(curve, flow):
            calls.append(("present_value", curve))
            return original(curve, flow)

        def pass_counted(lstar):
            calls.append(("pass", lstar.curve, lstar.family))
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

    @pytest.mark.parametrize("spec", [M2, M3, M5, M6], ids=["M2", "M3", "M5", "M6"])
    def test_present_value_calls(self, counted, built, market_curve, spec):
        flow = CashFlow(lumps=((15.0, 1.0), (40.0, 2.0)), densities=((25.0, 35.0, 0.1),))
        curve = extrapolate(market_curve, spec)
        ufr_sensitivity(curve, flow)
        # nothing is priced by present_value, and each pass has its own family
        assert [call[0] for call in counted] == ["pass"] * len(counted)
        assert len({id(call[2]) for call in counted}) == len(counted)
        # the first pass prices the given curve with its family: the curve's
        # own level, then the oracle's theta +- h and theta +- h/2
        theta0 = curve.ufr
        h = 5e-5 * (abs(theta0) + 1.0)
        family, kind, ufrs = built[0]
        assert counted[0][1:] == (curve, family) and family.rows == 5
        steps = [theta0 + h, theta0 - h, theta0 + h / 2.0, theta0 - h / 2.0]
        assert (kind, ufrs) == (spec.kind, [theta0, *steps])
        # M6 also prices its low and high M3 curves, as one pass of two rows
        if spec is M6:
            low, bounds = built[1][0], built[2][0]
            bound_curves = [(kind, ufrs) for _, kind, ufrs in built[1:]]
            assert bound_curves == [("M3", [UFR]), ("M3", [UFR, UFR + M6.alpha])]
            assert counted[1][1:] == (low, bounds) and len(counted) == 2
        else:
            assert len(counted) == 1 and len(built) == 1

    @pytest.mark.parametrize("spec", [M1, M2, M3, M5, M6], ids=["M1", "M2", "M3", "M5", "M6"])
    def test_one_integral_per_density(self, monkeypatch, market_curve, spec):
        """One adaptive integral per density of the flow, two for M6 continuous,
        whose bound curves take a pass of their own."""
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
        passes = 2 if spec is M6 else 1
        assert calls == [(a, b) for a, b, _ in densities] * passes

    def test_given_total_is_the_priced_one(self, market_curve):
        flow = CashFlow(lumps=((15.0, 1.0), (40.0, 2.0)), densities=((25.0, 35.0, 0.1),))
        curve = extrapolate(market_curve, M5)
        total = present_value(curve, flow)
        for cut in (TAU, KAPPA):
            assert excess_duration(curve, flow, cut, total) == excess_duration(curve, flow, cut)

    def test_zero_total_is_undefined(self, market_curve):
        curve = extrapolate(market_curve, M3)
        with pytest.raises(UndefinedDurationError):
            excess_duration(curve, CashFlow.single_payment(30.0), TAU, 0.0)


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
        monkeypatch.setattr(curves_module, "gauss_panel", gauss_panel_counted)
        return count

    @pytest.mark.parametrize("density", DEEP_DENSITIES, ids=["25-33", "30-38"])
    @pytest.mark.parametrize("spec", [M2, M3, M5, M6], ids=["M2", "M3", "M5", "M6"])
    def test_residual_and_panels(self, panels, spec, density):
        curve = ForwardCurve.from_zero_yields(SAMPLE_TIMES, SAMPLE_YIELDS)
        flow = CashFlow(lumps=SAMPLE_LUMPS, densities=(density,))
        report = ufr_sensitivity(extrapolate(curve, spec), flow)
        assert report.rel_residual <= 1e-12
        assert panels[0] <= 100
