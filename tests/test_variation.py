import math

import numpy as np
import pytest

from curvehedge import (
    CashFlow,
    CurveShift,
    ForwardCurve,
    MethodSpec,
    clamp_functional,
    clamp_variation,
    dollar_duration,
    extrapolate,
    method_variation,
    method_variation_pv,
    numeric_variation,
    present_value,
    second_order_pv,
    sw_variation_coefficient,
)
from curvehedge.errors import DomainError, EvaluationError
from curvehedge.variation import EPS_SCHEDULE, _richardson
import curvehedge.quadrature as quadrature_module

from conftest import random_curve, random_lump_flow, random_shift, suite_shifts, variation_report

UFR = 0.042
TAU = 10.0
KAPPA = 20.0


def all_specs():
    return [
        MethodSpec("M1", tau=TAU, ufr=UFR),
        MethodSpec("M2", tau=TAU),
        MethodSpec("M3", tau=TAU, ufr=UFR),
        MethodSpec("M4", tau=TAU),
        MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR),
        MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2),
    ]


class TestNumericVariation:
    def test_discount_factor_direction(self, flat3):
        """The numeric variation of D(t) recovers -t Dz(t) D(t)."""
        rng = np.random.default_rng(61)
        t = 17.0
        for _ in range(5):
            shift = random_shift(rng)
            report = numeric_variation(lambda c: c.discount_factor(t), flat3, shift)
            expected = -t * shift.delta_z(t) * flat3.discount_factor(t)
            assert report.numeric == pytest.approx(expected, abs=1e-7)

    def test_linear_functional_is_exact(self, flat3):
        shift = CurveShift.parallel(0.01)
        report = numeric_variation(lambda c: c.zero_yield(25.0), flat3, shift)
        np.testing.assert_allclose(report.quotients, 0.01, rtol=1e-10)
        assert report.numeric == pytest.approx(0.01, rel=1e-12)

    def test_constant_shift_pv(self, flat3):
        flow = CashFlow(lumps=((12.0, 1.0), (40.0, 0.5)))
        c = 0.0007
        report = numeric_variation(
            lambda cur: present_value(cur, flow), flat3, CurveShift.parallel(c)
        )
        expected = -c * dollar_duration(flat3, flow)
        assert report.numeric == pytest.approx(expected, rel=1e-7)

    def test_non_finite_functional_raises(self, flat3):
        def bad(curve):
            return math.inf if curve.zero_yield(50.0) > 0.03 else 1.0

        with pytest.raises(EvaluationError) as info:
            numeric_variation(bad, flat3, CurveShift.parallel(0.01))
        assert info.value.eps is not None  # names the failing step

    def test_report_json_fields(self, flat3):
        report = numeric_variation(
            lambda c: c.discount_factor(5.0), flat3, CurveShift.parallel(0.01), analytic=0.0
        )
        assert report.analytic == 0.0 and report.residual == abs(report.numeric)
        assert report.eps_schedule == EPS_SCHEDULE


class TestRichardson:
    def test_stacked_table_matches_scalar_calls_bitwise(self):
        rng = np.random.default_rng(17)
        eps = np.asarray(EPS_SCHEDULE)[:, None]
        n = 9
        # a smooth expansion in eps plus roundoff-sized noise, so the
        # stability pick lands on different rows for different columns
        table = (
            rng.normal(size=n)
            + rng.normal(size=n) * eps
            + rng.normal(size=n) * eps**2
            + rng.normal(scale=1e-12, size=(len(EPS_SCHEDULE), n)) / eps
        )
        estimate, column = _richardson(table, (2.0, 4.0, 8.0))
        scalar = [_richardson(table[:, j], (2.0, 4.0, 8.0)) for j in range(n)]
        assert estimate.tobytes() == np.array([e for e, _ in scalar]).tobytes()
        assert column.tobytes() == np.stack([c for _, c in scalar], axis=1).tobytes()
        picked_rows = {int(np.flatnonzero(c == e)[0]) for e, c in scalar}
        assert len(picked_rows) > 1

    def test_central_difference_step(self):
        """One step with the factor 4 is the oracle's (4 d2 - d1) / 3, bit for bit."""
        rng = np.random.default_rng(3)
        for d1, d2 in rng.normal(size=(50, 2)).tolist():
            estimate, column = _richardson([d1, d2], (4.0,))
            assert estimate == (4.0 * d2 - d1) / 3.0 and column.shape == (1,)

    def test_report_keeps_its_types(self, flat3):
        report = numeric_variation(lambda c: c.zero_yield(25.0), flat3, CurveShift.parallel(0.01))
        assert type(report.numeric) is float
        assert isinstance(report.extrapolated, tuple)
        assert isinstance(report.quotients, tuple)


class TestClosedFormVariations:
    """Flows up to tau, where every method's curve is the market curve and
    ``method_variation_pv`` is -int t Dz(t) dC*(t)."""

    def test_zero_shift(self, flat3):
        zero = CurveShift.parallel(0.0)
        spec = MethodSpec("M2", tau=TAU)
        assert method_variation(extrapolate(flat3, spec), zero, 10.0) == 0.0
        assert method_variation_pv(extrapolate(flat3, spec), zero, CashFlow.single_payment(10.0)) == 0.0

    def test_dv01_of_ten_year_flow(self):
        curve = ForwardCurve.flat(0.0)
        shift = CurveShift.parallel(0.0001)
        spec = MethodSpec("M2", tau=TAU)
        value = method_variation_pv(extrapolate(curve, spec), shift, CashFlow.single_payment(10.0))
        assert value == pytest.approx(-0.001, rel=1e-14)

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(67)
        spec = MethodSpec("M2", tau=150.0)
        for _ in range(10):
            curve = random_curve(rng)
            shift = random_shift(rng)
            flow = random_lump_flow(rng, 0.0, 150.0)
            analytic = method_variation_pv(extrapolate(curve, spec), shift, flow)
            report = numeric_variation(lambda c: present_value(c, flow), curve, shift)
            assert report.numeric == pytest.approx(analytic, rel=1e-7, abs=1e-9)


class TestMethodVariation:
    def test_m1_is_insensitive(self, flat3):
        rng = np.random.default_rng(71)
        spec = MethodSpec("M1", tau=TAU, ufr=UFR)
        for _ in range(5):
            shift = random_shift(rng)
            assert method_variation(extrapolate(flat3, spec), shift, 30.0) == 0.0

    def test_m2_carries_the_last_yield_shift(self, flat3):
        shift = CurveShift.from_forward_values([0.0, 10.0, 200.0], [0.01, 0.03, 0.0])
        spec = MethodSpec("M2", tau=TAU)
        expected = shift.delta_z(TAU)
        for t in (15.0, 70.0):
            assert method_variation(extrapolate(flat3, spec), shift, t) == expected

    def test_m3_scaling_example(self, flat3):
        spec = MethodSpec("M3", tau=TAU, ufr=UFR)
        assert method_variation(extrapolate(flat3, spec), CurveShift.parallel(1.0), 20.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_m4_mixed_exposure(self, flat3):
        shift = CurveShift.from_forward_values([0.0, 10.0, 200.0], [0.0, 0.02, 0.02])
        spec = MethodSpec("M4", tau=TAU)
        t = 40.0
        expected = (TAU / t) * shift.delta_z(TAU) + (1 - TAU / t) * 0.02
        assert method_variation(extrapolate(flat3, spec), shift, t) == pytest.approx(expected, rel=1e-13)

    def test_m5_unit_shift_closed_forms(self, flat3):
        """Parallel unit shift: quadratic inside the blend, (kappa+tau)/2t beyond."""
        spec = MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR)
        unit = CurveShift.parallel(1.0)
        for t in (12.0, 16.0, 20.0):
            expected = (KAPPA**2 - TAU**2 - (KAPPA - t) ** 2) / (2 * t * (KAPPA - TAU))
            assert method_variation(extrapolate(flat3, spec), unit, t) == pytest.approx(expected, rel=1e-13)
        for t in (25.0, 100.0):
            expected = (KAPPA + TAU) / (2 * t)
            assert method_variation(extrapolate(flat3, spec), unit, t) == pytest.approx(expected, rel=1e-13)

    def test_identity_region(self, flat3):
        rng = np.random.default_rng(73)
        shift = random_shift(rng)
        for spec in all_specs():
            assert method_variation(extrapolate(flat3, spec), shift, 7.0) == pytest.approx(
                shift.delta_z(7.0), rel=1e-14
            )

    def test_m6_small_speed_limit(self, flat3):
        """As the reversion speed vanishes, c(t) -> (1 - tau/t) / (1 + (ufr - f_tau)(t - tau))."""
        f_tau = 0.03
        for t in (15.0, 30.0, 60.0):
            c = sw_variation_coefficient(t, TAU, 1e-6, UFR, f_tau)
            limit = (1 - TAU / t) / (1 + (UFR - f_tau) * (t - TAU))
            assert abs(c - limit) < 1e-5

    def test_homogeneity(self, flat3):
        """Positive homogeneity of degree one, for every method and the clamp."""
        rng = np.random.default_rng(79)
        shift = random_shift(rng)
        lam = 2.5
        for spec in all_specs():
            for t in (15.0, 25.0, 90.0):
                one = method_variation(extrapolate(flat3, spec), shift, t)
                scaled = method_variation(extrapolate(flat3, spec), shift.scaled(lam), t)
                assert scaled == pytest.approx(lam * one, rel=1e-12, abs=1e-18)
        v1 = clamp_variation(flat3, shift, 0.03, 50.0)
        v2 = clamp_variation(flat3, shift.scaled(lam), 0.03, 50.0)
        assert v2 == pytest.approx(lam * v1, rel=1e-12, abs=1e-18)

    def test_times_of_any_shape(self, flat3):
        """Times on both sides of tau, in an array of any shape, give each
        time's own variation in the shape of the times; a 0-d array gives a float."""
        shift = random_shift(np.random.default_rng(83))
        times = np.array([[5.0, 20.0, 40.0], [8.0, 12.0, 90.0]])
        for spec in all_specs():
            curve = extrapolate(flat3, spec)
            for t in (times, times.T, times[:, :2], times.ravel()):
                got = method_variation(curve, shift, t)
                want = [method_variation(curve, shift, s) for s in t.ravel().tolist()]
                assert got.shape == t.shape and got.ravel().tolist() == want
            zero_d = method_variation(curve, shift, np.array(20.0))
            assert type(zero_d) is float and zero_d == method_variation(curve, shift, 20.0)

    def test_discrete_sw_rejected(self, flat3):
        spec = MethodSpec("M6_SW_discrete", tau=TAU, ufr=UFR, alpha=0.1)
        with pytest.raises(DomainError):
            method_variation(extrapolate(flat3, spec), CurveShift.parallel(1.0), 20.0)

    def test_m6_defective_region_rejected(self):
        """No variation where the Smith-Wilson discount factor has gone negative."""
        from curvehedge.errors import DefectiveCurveError

        alpha = 0.1
        steep = ForwardCurve.from_forwards([0.0, 10.0], [0.03, UFR + alpha + 0.01])
        spec = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha)
        assert extrapolate(steep, spec).is_defective
        shift = CurveShift.parallel(0.01)
        # fine where the blending factor is still positive
        assert np.isfinite(method_variation(extrapolate(steep, spec), shift, 15.0))
        with pytest.raises(DefectiveCurveError):
            method_variation(extrapolate(steep, spec), shift, 150.0)

    def test_oracle_agreement_with_offset(self, flat3):
        """The offset relocates the expansion point; analytic tracks that."""
        ts = np.arange(0.0, 200.5, 0.5)
        shift = CurveShift.from_forward_values(
            ts,
            0.006 * np.exp(-0.5 * ((ts - 8.0) / 4.0) ** 2)
            - 0.004 * np.exp(-0.5 * ((ts - 16.0) / 6.0) ** 2),
        )
        flow = CashFlow(lumps=((18.0, 1.0), (45.0, 0.7)))
        for kind_spec in (
            MethodSpec("M3", tau=TAU, ufr=UFR, offset=0.002),
            MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR, offset=0.002),
            MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2, offset=0.002),
        ):
            report = variation_report(kind_spec, flat3, shift, flow)
            scale = max(abs(report.analytic), abs(report.numeric), 1e-8)
            assert report.residual / scale < 1e-6, kind_spec.kind


class TestMethodVariationReport:
    def test_m1_zero_both_ways(self, flat3):
        spec = MethodSpec("M1", tau=TAU, ufr=UFR)
        flow = CashFlow.single_payment(30.0)
        report = variation_report(spec, flat3, CurveShift.parallel(0.01), flow)
        assert report.analytic == 0.0
        assert abs(report.numeric) < 1e-12
        assert report.residual < 1e-12

    def test_m2_single_lump(self, flat3):
        spec = MethodSpec("M2", tau=TAU)
        sigma = 30.0
        flow = CashFlow.single_payment(sigma)
        unit = CurveShift.parallel(1.0)
        curve = extrapolate(flat3, spec)
        report = variation_report(spec, flat3, unit, flow)
        expected = -sigma * curve.discount_factor(sigma)
        assert report.analytic == pytest.approx(expected, rel=1e-13)
        assert report.residual <= 1e-6 * abs(expected)

    def test_oracle_agreement_randomized(self, flat3):
        """Analytic and numeric first variations agree across methods and shifts."""
        rng = np.random.default_rng(83)
        specs = all_specs()
        curves = [flat3] + [random_curve(rng, low=0.0, high=0.05) for _ in range(3)]
        checked = 0
        for i in range(200):
            spec = specs[i % len(specs)]
            curve = curves[i % len(curves)]
            shift = random_shift(rng)
            flow = random_lump_flow(rng, TAU + 2.0, 150.0)
            pv = present_value(extrapolate(curve, spec), flow)
            report = variation_report(spec, curve, shift, flow)
            # floor the scale so variations that are numerically zero
            # (shift mass far from the liability) don't fail on noise
            scale = max(abs(report.analytic), abs(report.numeric), 1e-6 * (1.0 + pv))
            assert report.residual / scale < 1e-6, (spec.kind, i)
            checked += 1
        assert checked == 200

    def test_remainder_decay(self, flat3):
        """|F[z + e Dz] - F[z] - e dF| / e shrinks along the halving schedule."""
        rng = np.random.default_rng(89)
        spec = MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR)
        flow = random_lump_flow(rng, KAPPA, 120.0)
        # a bump centered inside the blend window keeps the remainder well
        # above roundoff so its decay is visible
        ts = np.arange(0.0, 200.5, 0.5)
        shift = CurveShift.from_forward_values(
            ts, 0.008 * np.exp(-0.5 * ((ts - 15.0) / 4.0) ** 2)
        )
        analytic = method_variation_pv(extrapolate(flat3, spec), shift, flow)
        f0 = present_value(extrapolate(flat3, spec), flow)
        ratios = []
        for eps in EPS_SCHEDULE:
            value = present_value(extrapolate(flat3.ray(shift)(eps), spec), flow)
            ratios.append(abs(value - f0 - eps * analytic) / eps)
        tail = ratios[-4:]
        assert all(a > b for a, b in zip(tail, tail[1:])), ratios


class TestClamp:
    def test_case_table(self):
        at = ForwardCurve.flat(0.03)       # z(t) = c exactly
        below = ForwardCurve.flat(0.02)
        above = ForwardCurve.flat(0.05)
        c, t = 0.03, 20.0
        down = CurveShift.parallel(-0.01)
        up = CurveShift.parallel(0.01)
        assert clamp_variation(below, up, c, t) == 0.0
        assert clamp_variation(at, down, c, t) == 0.0
        assert clamp_variation(at, up, c, t) == 0.01
        assert clamp_variation(above, down, c, t) == -0.01
        assert clamp_variation(above, up, c, t) == 0.01

    def test_numeric_agreement_at_kink(self):
        at = ForwardCurve.flat(0.03)
        c, t = 0.03, 20.0
        functional = clamp_functional(c, t)
        for dz in (0.01, -0.01):
            report = numeric_variation(functional, at, CurveShift.parallel(dz))
            assert report.numeric == pytest.approx(
                clamp_variation(at, CurveShift.parallel(dz), c, t), abs=1e-8
            )

    def test_nonadditivity_witness(self):
        """At the kink the up and down variations do not cancel."""
        at = ForwardCurve.flat(0.03)
        c, t = 0.03, 20.0
        up = CurveShift.parallel(0.01)
        assert clamp_variation(at, up, c, t) + clamp_variation(at, up.negated(), c, t) == 0.01
        report = numeric_variation(
            clamp_functional(c, t), at, up, check_additivity=True
        )
        assert report.additivity_defect == pytest.approx(0.01, abs=1e-8)


class TestSecondOrder:
    def test_m2_parallel_unit(self, flat3):
        spec = MethodSpec("M2", tau=TAU)
        sigma = 30.0
        curve = extrapolate(flat3, spec)
        value = second_order_pv(curve, CurveShift.parallel(1.0), CashFlow.single_payment(sigma))
        assert value == pytest.approx(sigma**2 * curve.discount_factor(sigma), rel=1e-12)

    def test_zero_shift(self, flat3):
        spec = MethodSpec("M3", tau=TAU, ufr=UFR)
        curve = extrapolate(flat3, spec)
        value = second_order_pv(curve, CurveShift.parallel(0.0), CashFlow.single_payment(30.0))
        assert value == 0.0

    def test_against_numeric_second_difference(self, flat3):
        """Chain-rule formula vs direct second differencing of the composite value."""
        rng = np.random.default_rng(97)
        ts = np.arange(0.0, 200.5, 0.5)
        for spec in (
            MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR),
            MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2),
            MethodSpec("M2", tau=TAU),
        ):
            # a fixed bump near tau keeps the second variation well away from
            # zero; the random part makes the shift genuinely non-parallel
            values = 0.008 * np.exp(-0.5 * ((ts - 12.0) / 5.0) ** 2)
            for _ in range(3):
                values = values + rng.uniform(-0.004, 0.004) * np.exp(
                    -0.5 * ((ts - rng.uniform(0, 120)) / rng.uniform(3, 20)) ** 2
                )
            shift = CurveShift.from_forward_values(ts, values)
            flow = random_lump_flow(rng, TAU + 2.0, 100.0)
            analytic = second_order_pv(extrapolate(flat3, spec), shift, flow)
            report = numeric_variation(
                lambda c: present_value(extrapolate(c, spec), flow), flat3, shift, order=2
            )
            scale = max(abs(analytic), abs(report.numeric), 1e-10)
            # the Smith-Wilson side is closed-form too; the gap is the one-sided
            # order-2 oracle's own error: it reads 8.8e-6, while a central second
            # difference matches the closed form to 1.5e-7, so M6 keeps 2e-5
            bound = 2e-5 if spec.kind == "M6_SW_continuous" else 1e-5
            assert abs(analytic - report.numeric) / scale < bound, spec.kind


#: the bundled sample market curve (zero yields to 20 years) and liabilities
SAMPLE_TIMES = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 12.0, 15.0, 20.0)
SAMPLE_YIELDS = (0.0210, 0.0222, 0.0239, 0.0252, 0.0270, 0.0282, 0.0294, 0.0300, 0.0306, 0.0312)
SAMPLE_FLOW = CashFlow(
    lumps=((15.0, 1.0), (25.0, 0.8), (40.0, 0.6), (60.0, 0.4)), densities=((12.0, 30.0, 0.05),)
)
SAMPLE_SW = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.1)

#: quadrature panels one second variation may take before the test stops it
PANEL_LIMIT = 10_000


class TestSmithWilsonSecondVariation:
    """t d2zbar(t) = (t c(t) Df(tau))^2 past tau, in closed form."""

    @pytest.fixture
    def panels(self, monkeypatch):
        """Quadrature panels taken, counted from the sizes of the panel ends;
        past ``PANEL_LIMIT`` the integral is stopped before it allocates more."""
        count = [0]
        original = quadrature_module.gauss_panel

        def gauss_panel_counted(func, a, b):
            count[0] += np.asarray(a).size
            if count[0] > PANEL_LIMIT:
                raise AssertionError(f"more than {PANEL_LIMIT} quadrature panels")
            return original(func, a, b)

        monkeypatch.setattr(quadrature_module, "gauss_panel", gauss_panel_counted)
        return count

    def test_against_central_second_difference(self):
        """The closed form against (PV(h) - 2 PV(0) + PV(-h)) / h^2 at h = 1e-2 and
        h/2, combined by one Richardson step; they agree to 1.3e-9 relative."""
        z = ForwardCurve.from_zero_yields(SAMPLE_TIMES, SAMPLE_YIELDS)
        ts = np.arange(0.0, 200.5, 0.5)
        shift = CurveShift.from_forward_values(ts, 0.008 * np.exp(-0.5 * ((ts - 12.0) / 5.0) ** 2))
        flow = CashFlow(lumps=((15.0, 1.0), (25.0, 1.0), (40.0, 1.0), (60.0, 1.0)))
        analytic = second_order_pv(extrapolate(z, SAMPLE_SW), shift, flow)

        def pv(e):
            return present_value(extrapolate(z.ray(shift)(e), SAMPLE_SW), flow)

        def second_difference(h):
            return (pv(h) - 2.0 * pv(0.0) + pv(-h)) / (h * h)

        central = (4.0 * second_difference(5e-3) - second_difference(1e-2)) / 3.0
        assert abs(analytic - central) <= 1e-8 * abs(central)

    def test_density_liabilities_take_few_panels(self, panels):
        """A shift that barely moves the curve at tau on liabilities with a density:
        the second variation is of the order of that movement squared, from a
        shallow quadrature."""
        z = ForwardCurve.from_zero_yields(SAMPLE_TIMES, SAMPLE_YIELDS)
        shift = suite_shifts(3, 7)[0]
        assert abs(shift.delta_z(TAU)) < 1e-11 and abs(shift.delta_f_at_boundary(TAU)) < 1e-11
        value = second_order_pv(extrapolate(z, SAMPLE_SW), shift, SAMPLE_FLOW)
        assert np.isfinite(value) and abs(value) < 1e-18
        assert panels[0] <= 200
