import math

import numpy as np
import pytest

from curvehedge import (
    CashFlow,
    CurveShift,
    EPS_SCHEDULE,
    DiscountedFlow,
    ForwardCurve,
    MethodSpec,
    TimeGrid,
    convexity,
    dollar_duration,
    duration,
    excess_duration,
    extrapolate,
    present_value,
)
from curvehedge.errors import DomainError, UndefinedDurationError

from conftest import random_curve, random_lump_flow, random_shift


# ---- independent oracles -----------------------------------------------------


def trapezoid_forward_integral(curve, t, n=100_000):
    """Brute-force int_0^t f by trapezoid on a fine grid including the kinks."""
    s = np.union1d(np.linspace(0.0, t, n), curve.grid.nodes[curve.grid.nodes < t])
    return np.trapezoid(curve.forward_rate(s), s)


def midpoint_forward_integral(curve, t, n=100_000):
    """Brute-force int_0^t f by midpoint sums; panels never straddle a node."""
    edges = np.union1d(np.linspace(0.0, t, n), curve.grid.nodes[curve.grid.nodes < t])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(curve.forward_rate(mids) * np.diff(edges)))


def riemann_density_moment(curve, a, b, rate, power, n=2_000_000):
    """Midpoint Riemann sum of int t^power D(t) rate dt."""
    edges = np.linspace(a, b, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (b - a) / n
    return float(np.sum(mids**power * curve.discount_factor(mids) * rate) * h)


# ---- grids and construction ---------------------------------------------------


class TestTimeGrid:
    def test_invariants(self):
        g = TimeGrid([0.0, 1.0, 5.0, 200.0])
        assert g.horizon == 200.0
        with pytest.raises(DomainError):
            TimeGrid([1.0, 2.0])
        with pytest.raises(DomainError):
            TimeGrid([0.0, 2.0, 2.0])
        with pytest.raises(DomainError):
            TimeGrid([0.0])

    def test_nodes_read_only(self):
        g = TimeGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            g.nodes[0] = 3.0


class TestCurveConstruction:
    def test_round_trip_zero_yields(self):
        """Curves built from zero yields reproduce them at all input nodes."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            times = np.sort(rng.uniform(0.25, 60.0, size=8))
            times = np.unique(times)
            zs = rng.uniform(-0.01, 0.05, size=times.size)
            curve = ForwardCurve.from_zero_yields(times, zs)
            back = curve.zero_yield(times)
            np.testing.assert_allclose(back, zs, rtol=0, atol=1e-10)

    def test_zero_yield_input_rejects_origin(self):
        with pytest.raises(DomainError):
            ForwardCurve.from_zero_yields([0.0, 10.0], [0.02, 0.02])

    def test_segment_index_matches_clipped_search(self):
        """Searching the interior nodes equals clipping a search over all of them."""
        rng = np.random.default_rng(29)
        for _ in range(50):
            curve = random_curve(rng, n_nodes=int(rng.integers(2, 9)))
            nodes = curve.grid.nodes
            ts = np.concatenate((nodes, rng.uniform(0.0, curve.horizon, 40)))
            for side in ("left", "right"):
                reference = np.clip(np.searchsorted(nodes, ts, side=side) - 1, 0, len(nodes) - 2)
                np.testing.assert_array_equal(curve._segment_index(ts, side), reference)

    def test_forward_curve_is_piecewise_linear(self):
        curve = ForwardCurve.from_forwards([0.0, 10.0, 20.0], [0.01, 0.03, 0.02])
        assert curve.forward_rate(5.0) == pytest.approx(0.02, abs=1e-15)
        assert curve.forward_rate(15.0) == pytest.approx(0.025, abs=1e-15)

    def test_forward_sides_at_jump(self):
        curve = ForwardCurve.from_zero_yields([10.0, 20.0], [0.02, 0.03])
        # 10y at 2% then forwards jump to (0.6-0.2)/10 = 4%
        assert curve.forward_rate(10.0, side="left") == pytest.approx(0.02, abs=1e-14)
        assert curve.forward_rate(10.0, side="right") == pytest.approx(0.04, abs=1e-14)


# ---- discounting ---------------------------------------------------------------


class TestDiscountFactor:
    def test_zero_rate_identity(self):
        assert ForwardCurve.flat(0.0).discount_factor(10.0) == 1.0

    def test_flat_two_percent(self):
        assert ForwardCurve.flat(0.02).discount_factor(10.0) == pytest.approx(
            math.exp(-0.2), rel=1e-15
        )

    def test_piecewise_constant_against_quadrature(self):
        curve = ForwardCurve.from_zero_yields([5.0, 10.0], [0.01, 0.02])
        # forwards: 1% on [0,5], 3% on (5,10] -> int f = 0.05 + 0.15
        assert curve.discount_factor(10.0) == pytest.approx(math.exp(-0.2), rel=1e-14)
        oracle = midpoint_forward_integral(curve, 10.0)
        assert curve.discount_factor(10.0) == pytest.approx(math.exp(-oracle), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ForwardCurve.flat(0.02, horizon=50.0).discount_factor(50.1)
        with pytest.raises(DomainError):
            ForwardCurve.flat(0.02).discount_factor(-0.5)

    def test_monotone_when_forwards_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            curve = random_curve(rng, low=0.0, high=0.06)
            ts = np.linspace(0.0, curve.horizon, 400)
            d = curve.discount_factor(ts)
            assert np.all(np.diff(d) <= 1e-16)


class TestZeroYieldAndForward:
    def test_flat_curve(self):
        curve = ForwardCurve.flat(0.037)
        ts = np.array([0.0, 0.5, 10.0, 200.0])
        np.testing.assert_allclose(curve.zero_yield(ts), 0.037, rtol=1e-15)

    def test_linear_ramp_average(self):
        curve = ForwardCurve.from_forwards([0.0, 10.0], [0.0, 0.04])
        assert curve.zero_yield(10.0) == pytest.approx(0.02, abs=1e-16)

    def test_against_trapezoid_oracle(self):
        rng = np.random.default_rng(11)
        curve = random_curve(rng, horizon=50.0)
        for t in (7.3, 21.0, 49.9):
            oracle = trapezoid_forward_integral(curve, t) / t
            assert curve.zero_yield(t) == pytest.approx(oracle, abs=1e-12)

    def test_time_weighted_integral_closed_form(self):
        rng = np.random.default_rng(13)
        curve = random_curve(rng, horizon=40.0)
        s = np.linspace(4.0, 31.0, 300_001)
        oracle = np.trapezoid(s * curve.zero_yield(s), s)
        val = curve.cumulative_time_weighted_yield(31.0) - curve.cumulative_time_weighted_yield(4.0)
        assert val == pytest.approx(oracle, rel=1e-9)


# ---- cash flows and present values ---------------------------------------------


class TestCashFlow:
    def test_ties_merge_by_summation(self):
        flow = CashFlow(lumps=((10.0, 1.0), (10.0, 2.0), (5.0, 1.0)))
        assert flow.lumps == ((5.0, 1.0), (10.0, 3.0))

    def test_overlapping_densities_rejected(self):
        with pytest.raises(DomainError):
            CashFlow(densities=((0.0, 2.0, 1.0), (1.5, 3.0, 1.0)))

    def test_touching_densities_allowed(self):
        flow = CashFlow(densities=((0.0, 2.0, 1.0), (2.0, 3.0, 1.0)))
        assert len(flow.densities) == 2

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            CashFlow(lumps=((-1.0, 1.0),))


class TestPresentValue:
    def test_lump_zero_curve(self):
        assert present_value(ForwardCurve.flat(0.0), CashFlow.single_payment(10.0)) == 1.0

    def test_lump_equals_discount_factor(self):
        curve = ForwardCurve.flat(0.02)
        assert present_value(curve, CashFlow.single_payment(10.0)) == pytest.approx(
            math.exp(-0.2), rel=1e-15
        )

    def test_unit_density_zero_curve(self):
        flow = CashFlow(densities=((0.0, 1.0, 1.0),))
        assert present_value(ForwardCurve.flat(0.0), flow) == pytest.approx(1.0, rel=1e-14)

    def test_linearity(self):
        """PV(C1 + C2) = PV(C1) + PV(C2) to 1e-12 relative."""
        rng = np.random.default_rng(23)
        curve = random_curve(rng)
        for _ in range(30):
            c1 = random_lump_flow(rng, 0.0, 150.0)
            c2 = random_lump_flow(rng, 0.0, 150.0)
            lhs = present_value(curve, c1 + c2)
            rhs = present_value(curve, c1) + present_value(curve, c2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_flow_beyond_horizon_rejected(self):
        with pytest.raises(DomainError):
            present_value(ForwardCurve.flat(0.02, horizon=30.0), CashFlow.single_payment(31.0))


class TestDiscountedFlow:
    def test_lump_scaling(self):
        curve = ForwardCurve.flat(0.02)
        df = DiscountedFlow(CashFlow.single_payment(10.0), curve)
        assert df.cumulative(10.0) == pytest.approx(math.exp(-0.2), rel=1e-15)
        assert df.cumulative(9.9) == 0.0
        assert df.total == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_empty_flow(self):
        df = DiscountedFlow(CashFlow(), ForwardCurve.flat(0.02))
        assert df.total == 0.0

    def test_totals_add(self):
        curve = ForwardCurve.flat(0.02)
        a = CashFlow.single_payment(5.0, 2.0)
        b = CashFlow.single_payment(15.0, 3.0)
        assert DiscountedFlow(a + b, curve).total == pytest.approx(
            DiscountedFlow(a, curve).total + DiscountedFlow(b, curve).total, rel=1e-14
        )

    def test_cumulative_includes_lump_at_t(self):
        curve = ForwardCurve.flat(0.0)
        df = DiscountedFlow(CashFlow(lumps=((5.0, 1.0), (10.0, 2.0))), curve)
        assert df.cumulative(5.0) == 1.0
        assert df.cumulative(9.99) == 1.0
        assert df.cumulative(10.0) == 3.0

    @pytest.mark.parametrize(
        "spec",
        [
            MethodSpec("M1", tau=10.0, ufr=0.042),
            MethodSpec("M2", tau=10.0),
            MethodSpec("M3", tau=10.0, ufr=0.042),
            MethodSpec("M4", tau=10.0),
            MethodSpec("M5_SFSA", tau=10.0, ufr=0.042, kappa=20.0),
            MethodSpec("M6_SW_continuous", tau=10.0, ufr=0.042, alpha=0.1),
            MethodSpec("M6_SW_discrete", tau=10.0, ufr=0.042, alpha=0.1),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_total_is_present_value(self, spec):
        """One rule for dL*: the measure's total is the present value, bit for bit."""
        market = ForwardCurve.from_forwards([0.0, 5.0, 12.0, 20.0, 60.0], [0.01, 0.025, 0.028, 0.03, 0.035])
        curve = extrapolate(market, spec)
        lumps = ((3.0, 0.5), (14.0, 0.6), (35.0, 1.0), (90.0, 0.7))
        for near, far in [
            ((12.0, 17.5, 0.2), (40.0, 75.0, 0.05)),
            ((12.0, 17.5, 0.2), (40.0, 75.0, 0.06)),
            ((12.0, 17.5, 0.2), (40.0, 80.0, 0.05)),
            ((12.0, 17.5, 0.2), (45.0, 75.0, 0.05)),
            ((12.0, 18.5, 0.2), (40.0, 75.0, 0.05)),
        ]:
            flow = CashFlow(lumps=lumps, densities=(near, far))
            lstar = DiscountedFlow(flow, curve)
            assert lstar.total == present_value(curve, flow)
            assert lstar.cumulative(curve.horizon) == pytest.approx(lstar.total, rel=1e-14)

    def test_stieltjes_consistency_randomized(self):
        """Totals of the discounted measure equal the present value, 1000 cases."""
        rng = np.random.default_rng(101)
        for i in range(1000):
            curve = random_curve(rng, n_nodes=6)
            flow = random_lump_flow(rng, 0.0, 180.0)
            if i % 5 == 0:
                a = float(rng.uniform(0.0, 150.0))
                b = a + float(rng.uniform(0.5, 30.0))
                flow = flow + CashFlow(densities=((a, b, float(rng.uniform(0.1, 1.0))),))
            total = DiscountedFlow(flow, curve).total
            pv = present_value(curve, flow)
            assert abs(total - pv) <= 1e-10 * max(1.0, abs(pv))


# ---- duration, convexity, excess duration --------------------------------------


class TestDurationConvexity:
    def test_single_lump_duration_is_maturity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            curve = random_curve(rng)
            assert duration(curve, CashFlow.single_payment(10.0)) == pytest.approx(
                10.0, abs=1e-12
            )

    def test_symmetric_average(self):
        curve = ForwardCurve.flat(0.0)
        flow = CashFlow(lumps=((5.0, 1.0), (15.0, 1.0)))
        assert duration(curve, flow) == pytest.approx(10.0, abs=1e-14)

    def test_density_duration_against_riemann(self):
        curve = ForwardCurve.flat(0.03)
        flow = CashFlow(densities=((0.0, 20.0, 1.0),))
        num = riemann_density_moment(curve, 0.0, 20.0, 1.0, 1)
        den = riemann_density_moment(curve, 0.0, 20.0, 1.0, 0)
        assert duration(curve, flow) == pytest.approx(num / den, abs=1e-9)

    def test_convexity_single_lump(self):
        curve = ForwardCurve.flat(0.02)
        assert convexity(curve, CashFlow.single_payment(10.0)) == pytest.approx(100.0, abs=1e-10)

    def test_convexity_two_lumps_equal_weights(self):
        curve = ForwardCurve.flat(0.0)
        flow = CashFlow(lumps=((5.0, 1.0), (15.0, 1.0)))
        assert convexity(curve, flow) == pytest.approx(125.0, abs=1e-12)

    def test_convexity_against_riemann(self):
        curve = ForwardCurve.flat(0.03)
        flow = CashFlow(densities=((0.0, 20.0, 1.0),))
        num = riemann_density_moment(curve, 0.0, 20.0, 1.0, 2)
        den = riemann_density_moment(curve, 0.0, 20.0, 1.0, 0)
        assert convexity(curve, flow) == pytest.approx(num / den, abs=1e-9)

    def test_single_lump_identities_exact(self):
        # exact up to one rounding in the final divide
        curve = ForwardCurve.flat(0.025)
        sigma = 37.0
        flow = CashFlow.single_payment(sigma, 3.0)
        assert duration(curve, flow) == pytest.approx(sigma, rel=1e-15)
        assert convexity(curve, flow) == pytest.approx(sigma**2, rel=1e-15)
        assert excess_duration(curve, flow, 10.0) == pytest.approx(sigma - 10.0, rel=1e-15)
        assert excess_duration(curve, flow, sigma + 1.0) == 0.0

    def test_zero_pv_raises(self):
        with pytest.raises(UndefinedDurationError):
            duration(ForwardCurve.flat(0.02), CashFlow())
        with pytest.raises(UndefinedDurationError):
            convexity(ForwardCurve.flat(0.02), CashFlow())

    def test_dv01_scale(self):
        # a 1bp constant shift moves a 10y unit flow by about -t*dy*D
        curve = ForwardCurve.flat(0.0)
        dd = dollar_duration(curve, CashFlow.single_payment(10.0))
        assert dd == pytest.approx(10.0, abs=1e-14)


class TestExcessDuration:
    def test_lump_beyond_tau(self):
        curve = ForwardCurve.flat(0.02)
        assert excess_duration(curve, CashFlow.single_payment(20.0), 10.0) == pytest.approx(
            10.0, abs=1e-13
        )

    def test_lump_at_or_before_tau(self):
        curve = ForwardCurve.flat(0.02)
        assert excess_duration(curve, CashFlow.single_payment(7.0), 10.0) == 0.0
        assert excess_duration(curve, CashFlow.single_payment(10.0), 10.0) == 0.0

    def test_identity_with_duration_when_all_mass_beyond(self):
        rng = np.random.default_rng(17)
        curve = random_curve(rng)
        flow = random_lump_flow(rng, 25.0, 120.0, max_lumps=5)
        tau = 20.0
        assert excess_duration(curve, flow, tau) == pytest.approx(
            duration(curve, flow) - tau, rel=1e-12
        )

    def test_tau_outside_domain(self):
        with pytest.raises(DomainError):
            excess_duration(ForwardCurve.flat(0.02), CashFlow.single_payment(10.0), -1.0)


# ---- shifts ---------------------------------------------------------------------


class TestCurveShift:
    def test_parallel_is_exact(self):
        sh = CurveShift.parallel(0.0001)
        ts = np.array([0.0, 1.0, 37.5, 200.0])
        np.testing.assert_array_equal(sh.delta_z(ts), 0.0001)
        assert sh.delta_f_at_boundary(10.0) == 0.0001

    def test_shifted_curve_adds_forwards(self):
        base = ForwardCurve.flat(0.03, horizon=50.0)
        sh = CurveShift.from_forward_values([0.0, 25.0, 50.0], [0.0, 0.01, 0.0])
        shifted = base.ray(sh)(2.0)
        assert shifted.forward_rate(25.0) == pytest.approx(0.05, abs=1e-15)
        assert shifted.forward_rate(12.5) == pytest.approx(0.04, abs=1e-15)

    def test_shift_extends_flat(self):
        base = ForwardCurve.flat(0.03, horizon=100.0)
        sh = CurveShift.from_forward_values([0.0, 10.0], [0.01, 0.01])
        shifted = base.ray(sh)(1.0)
        assert shifted.forward_rate(90.0) == pytest.approx(0.04, abs=1e-15)
        # delta_z consistent with the same flat extension
        assert sh.delta_z(20.0) == pytest.approx(0.01, abs=1e-15)

    def test_delta_z_is_running_average(self):
        sh = CurveShift.from_forward_values([0.0, 10.0], [0.0, 0.01])
        assert sh.delta_z(10.0) == pytest.approx(0.005, abs=1e-16)

    def test_scaling(self):
        sh = CurveShift.from_forward_values([0.0, 10.0], [0.002, 0.004])
        assert sh.scaled(3.0).delta_z(10.0) == pytest.approx(3.0 * sh.delta_z(10.0), rel=1e-15)
        assert sh.negated().delta_z(10.0) == -sh.delta_z(10.0)

    def test_time_weighted_cumulative_matches_quadrature(self):
        rng = np.random.default_rng(29)
        sh = CurveShift.from_forward_values(
            np.linspace(0.0, 40.0, 9), rng.uniform(-0.01, 0.01, 9)
        )
        s = np.linspace(3.0, 27.0, 200_001)
        oracle = np.trapezoid(s * sh.delta_z(s), s)
        value = sh.time_weighted_cumulative(27.0) - sh.time_weighted_cumulative(3.0)
        assert value == pytest.approx(oracle, abs=1e-9)


def _per_scale_reference(z, shift, scale):
    """z + scale*Dz with the merged grid and the edge forwards rebuilt for
    every scale, as one curve per scale would be built without ``ray``."""
    other = shift.delta_forward
    nodes = np.union1d(z.grid.nodes, other.grid.nodes)
    nodes = nodes[nodes <= z.horizon]
    if nodes[-1] != z.horizon:
        nodes = np.concatenate((nodes, [z.horizon]))
    base_l, base_r = z._edge_values(nodes)
    if other.horizon >= z.horizon:
        sh_l, sh_r = other._edge_values(nodes)
    else:
        tail = other.f_right[-1]
        inside = nodes <= other.horizon
        sh_l = np.where(
            inside[:-1], other.forward_rate(np.minimum(nodes[:-1], other.horizon), "right"), tail
        )
        sh_r = np.where(
            inside[1:], other.forward_rate(np.minimum(nodes[1:], other.horizon), "left"), tail
        )
    return ForwardCurve(TimeGrid(nodes), base_l + scale * sh_l, base_r + scale * sh_r, z.quote_nodes)


class TestRay:
    FIELDS = ("f_left", "f_right", "quote_nodes", "_cum_f", "_cum_tz")

    def cases(self):
        rng = np.random.default_rng(12)
        z = random_curve(rng)
        quoted = ForwardCurve.from_zero_yields([1.0, 5.0, 10.0, 30.0], [0.01, 0.02, 0.025, 0.03])
        quoted = quoted.ray(random_shift(rng, horizon=30.0))(0.5)  # quotes unlike its grid
        return [
            (z, random_shift(rng)),
            (z, random_shift(rng, horizon=60.0)),  # shorter than the curve: flat tail
            (z, CurveShift.parallel(0.0025)),
            (z.with_constant_added(0.001), random_shift(rng)),
            (z.with_constant_added(-0.002), random_shift(rng, horizon=35.25)),
            (quoted, random_shift(rng, horizon=12.0)),
        ]

    def test_ray_curves_equal_the_per_scale_build_bitwise(self):
        for z, shift in self.cases():
            along = z.ray(shift)
            for e in EPS_SCHEDULE + (1.0,):
                want = _per_scale_reference(z, shift, e)
                for got in (along(e), z.ray(shift)(e)):
                    assert got.grid.nodes.tobytes() == want.grid.nodes.tobytes()
                    for name in self.FIELDS:
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, e)

    METHODS = (
        ("forward_rate", ()),
        ("forward_rate", ("left",)),
        ("integrated_forward", ()),
        ("zero_yield", ()),
        ("discount_factor", ()),
        ("cumulative_time_weighted_yield", ()),
    )

    def test_stacked_ray_rows_equal_the_per_scale_curves_bitwise(self):
        """An array of scales gives one stacked curve; row i is the curve of
        scale i, as stored and as evaluated at array and float times."""
        rng = np.random.default_rng(31)
        scales = np.array(EPS_SCHEDULE + (1.0,))
        for z, shift in self.cases():
            along = z.ray(shift)
            stack = along(scales)
            assert stack.rows == scales.size and stack.grid is along(0.5).grid
            ts = np.concatenate((stack.grid.nodes, rng.uniform(0.0, z.horizon, 200)))
            floats = [0.0, float(stack.grid.nodes[3]), 0.37 * z.horizon, z.horizon]
            for i, e in enumerate(scales.tolist()):
                want = along(e)
                assert want.rows is None and want.grid is stack.grid
                assert stack.quote_nodes is want.quote_nodes
                for name in ("f_left", "f_right", "_cum_f", "_cum_tz"):
                    assert getattr(stack, name)[i].tobytes() == getattr(want, name).tobytes(), (name, e)
                for name, args in self.METHODS:
                    got = getattr(stack, name)(ts, *args)
                    assert got.shape == (scales.size, ts.size)
                    assert got[i].tobytes() == getattr(want, name)(ts, *args).tobytes(), (name, e)
                    for t in floats:
                        value = getattr(stack, name)(t, *args)
                        assert value.shape == (scales.size,)
                        assert value[i] == getattr(want, name)(t, *args), (name, e, t)
                for got, expected in zip(stack._evaluation(ts), want._evaluation(ts)):
                    assert got[i].tobytes() == expected.tobytes()

    def test_stacked_present_value_equals_the_rows(self):
        """Lumps (more than eight, which ``np.sum`` adds pairwise) and a density."""
        rng = np.random.default_rng(37)
        flow = random_lump_flow(rng, 0.0, 150.0, max_lumps=12, min_lumps=11) + CashFlow(
            densities=((12.0, 17.5, 0.2), (40.0, 95.0, 0.05))
        )
        for z, shift in self.cases()[:4]:
            along = z.ray(shift)
            stack = along(np.array(EPS_SCHEDULE))
            values = present_value(stack, flow)
            assert values.shape == (len(EPS_SCHEDULE),)
            want = [present_value(along(e), flow) for e in EPS_SCHEDULE]
            assert values.tobytes() == np.array(want).tobytes()

    def test_ray_curves_share_one_grid_and_the_quotes(self):
        z, shift = self.cases()[-1]
        along = z.ray(shift)
        first, second = along(EPS_SCHEDULE[0]), along(EPS_SCHEDULE[1])
        assert first.grid is second.grid
        assert first.quote_nodes is z.quote_nodes and second.quote_nodes is z.quote_nodes
        assert first.horizon == z.horizon
