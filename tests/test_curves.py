import ast
import math
import pathlib
import warnings

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
    stieltjes_integral,
)
from curvehedge import curves as curves_module
from curvehedge import quadrature as quadrature_module
from curvehedge.curves import PASS_WEIGHTS
from curvehedge.errors import DomainError, UndefinedDurationError
from curvehedge.io import read_curve
from curvehedge.variation import variation_weight

from conftest import random_curve, random_lump_flow, random_shift, suite_shifts

SAMPLE_DATA = pathlib.Path(__file__).resolve().parents[1] / "sample_data"

class _CountedCurve:
    """A curve whose discount factor counts the points it is asked for."""

    def __init__(self, curve):
        self.curve, self.points = curve, 0

    def __getattr__(self, name):
        return getattr(self.curve, name)

    def discount_factor(self, t):
        self.points += np.size(t)
        return self.curve.discount_factor(t)


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

    @pytest.mark.parametrize("queries", [1, 7, 1000])
    def test_running_total_evaluates_each_panel_once(self, monkeypatch, queries):
        """The constructor evaluates the curve only at the lumps and on the
        pass's quadrature nodes; the first ``cumulative`` call evaluates it
        at the 24 nodes of each accepted panel, however many times it is
        asked for, and later calls not at all."""
        panels, nodes = [], [0]
        adaptive, gauss = curves_module.adaptive_panels, quadrature_module.gauss_panel

        def adaptive_counted(*args, **kwargs):
            out = adaptive(*args, **kwargs)
            panels.append(len(out[0]))
            return out

        def gauss_counted(func, a, b):
            nodes[0] += 24 * np.size(a)
            return gauss(func, a, b)

        monkeypatch.setattr(curves_module, "adaptive_panels", adaptive_counted)
        monkeypatch.setattr(quadrature_module, "gauss_panel", gauss_counted)
        market = ForwardCurve.from_forwards([0.0, 5.0, 12.0, 20.0, 60.0], [0.01, 0.025, 0.028, 0.03, 0.035])
        curve = _CountedCurve(extrapolate(market, MethodSpec("M5_SFSA", tau=10.0, ufr=0.042, kappa=20.0)))
        flow = CashFlow(lumps=((3.0, 0.5), (14.0, 0.6), (90.0, 0.7)),
                        densities=((12.0, 17.5, 0.2), (17.5, 30.0, 0.1), (40.0, 75.0, 0.05)))
        lstar = DiscountedFlow(flow, curve)
        assert len(panels) == 3 and sum(panels) > 3
        assert curve.points == len(flow.lumps) + nodes[0]

        t = np.linspace(0.0, 100.0, queries)
        curve.points = 0
        first = lstar.cumulative(t)
        assert curve.points == 24 * sum(panels)
        curve.points = 0
        assert lstar.cumulative(t).tobytes() == first.tobytes()
        lstar.cumulative(50.0)
        assert curve.points == 0

    @pytest.mark.parametrize("stacked", [False, True])
    def test_every_row_is_its_standalone_integral(self, stacked):
        """Each weight's row is ``stieltjes_integral`` on row 0 bit for bit,
        and each curve row's present value its own: with weights whose
        shifts split the flow's near density at other points than the
        curve's, the suite's half-year nodes and a node at 13.37, and with
        more weights than a pass stacks."""
        market = read_curve(str(SAMPLE_DATA / "curve.csv"))
        levels = [0.042, 0.05, 0.03] if stacked else [0.042]
        rows = [extrapolate(market, MethodSpec("M5_SFSA", tau=10.0, ufr=level, kappa=20.0)) for level in levels]
        curve = rows[0]
        measured = curve.with_ufr(levels) if stacked else curve
        flow = CashFlow(lumps=((25.0, 1.0),), densities=((11.3, 19.7, 0.05), (30.0, 40.0, 0.02)))
        mixed = suite_shifts(3, 1) + [CurveShift.from_forward_values([0.0, 13.37, 200.0], [0.001, -0.002, 0.003])]
        for shifts in (mixed, mixed + suite_shifts(PASS_WEIGHTS, 2)):
            weights = tuple(variation_weight(curve, shift) for shift in shifts)
            lstar = DiscountedFlow(flow, measured, weights)
            for integral, weight in zip(lstar.integrals, weights, strict=True):
                assert integral == stieltjes_integral(curve, flow, *weight)
            assert list(lstar.present_values) == [present_value(row, flow) for row in rows]

    def test_weights_past_a_pass_take_a_pass_of_their_own(self, monkeypatch):
        """``PASS_WEIGHTS`` + 1 weights that split no density where the
        curve does not: the curve's rows and the first ``PASS_WEIGHTS``
        weights are one pass, the last weight a pass of its own."""
        rows = []
        density_integrals = curves_module._density_integrals

        def counted(densities, *args):
            a, _, shape, _, _ = densities[0]
            rows.append(np.atleast_2d(shape(np.array([a]))).shape[0])
            return density_integrals(densities, *args)

        monkeypatch.setattr(curves_module, "_density_integrals", counted)
        market = ForwardCurve.from_forwards([0.0, 5.0, 12.0, 20.0, 60.0], [0.01, 0.025, 0.028, 0.03, 0.035])
        curve = extrapolate(market, MethodSpec("M5_SFSA", tau=10.0, ufr=0.042, kappa=20.0))
        family = curve.with_ufr([0.042, 0.05, 0.03])
        flow = CashFlow(lumps=((14.0, 0.6), (35.0, 1.0)), densities=((12.0, 17.5, 0.2), (40.0, 75.0, 0.05)))
        weights = tuple((lambda t, k=k: np.cos(k * t / 50.0), (12.0, 20.0)) for k in range(PASS_WEIGHTS + 1))
        lstar = DiscountedFlow(flow, family, weights)
        assert rows == [3 + PASS_WEIGHTS, 1]
        monkeypatch.setattr(curves_module, "_density_integrals", density_integrals)
        for integral, weight in zip(lstar.integrals, weights, strict=True):
            assert integral == stieltjes_integral(curve, flow, *weight)

    def test_non_finite_pass_raises(self):
        """An integral that overflows is a domain error, with no warning: in a
        pass, priced alone and in a duration."""
        flow = CashFlow(lumps=((15.0, 1e308), (25.0, 1e308)))
        curve = ForwardCurve.flat(0.03)
        assert np.isfinite(DiscountedFlow(flow, curve).total)
        overflowing = [
            lambda: DiscountedFlow(flow, curve, ((lambda t: t * t, ()),)),
            # undiscounted, the two lumps sum past the largest float
            lambda: present_value(ForwardCurve.flat(0.0), flow),
            lambda: stieltjes_integral(curve, flow, lambda t: t * t),
            lambda: duration(curve, flow),
        ]
        for price in overflowing:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="not finite"):
                    price()

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
        # the flat curve's closed form of int s*Dz(s) is 0.5 c t^2 as written
        assert sh.time_weighted_cumulative(ts).tobytes() == (0.5 * 0.0001 * ts * ts).tobytes()

    def test_shifted_curve_adds_forwards(self):
        base = ForwardCurve.flat(0.03, horizon=50.0)
        sh = CurveShift.from_forward_values([0.0, 25.0, 50.0], [0.0, 0.01, 0.0])
        shifted = base.ray(sh)(2.0)
        assert shifted.forward_rate(25.0) == pytest.approx(0.05, abs=1e-15)
        assert shifted.forward_rate(12.5) == pytest.approx(0.04, abs=1e-15)

    def test_short_shift_is_refused(self):
        """A shift lives on its own domain and is never extended: one shorter
        than the curve it perturbs gives no ray, and is not read past its horizon."""
        base = ForwardCurve.flat(0.03, horizon=100.0)
        sh = CurveShift.from_forward_values([0.0, 10.0], [0.01, 0.01])
        with pytest.raises(DomainError, match=r"outside curve domain \[0, 10.0\]"):
            base.ray(sh)
        for read in (sh.delta_z, sh.time_weighted_cumulative, sh.delta_f_at_boundary):
            with pytest.raises(DomainError, match="outside curve domain"):
                read(20.0)
        covering = CurveShift.from_forward_values([0.0, 100.0], [0.01, 0.01])
        assert base.ray(covering)(1.0).forward_rate(90.0) == pytest.approx(0.04, abs=1e-15)

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
    sh_l, sh_r = other._edge_values(nodes)
    return ForwardCurve(TimeGrid(nodes), base_l + scale * sh_l, base_r + scale * sh_r, z.quote_nodes)


class TestRay:
    FIELDS = ("f_left", "f_right", "quote_nodes", "_cum_f", "_cum_tz")

    def cases(self):
        rng = np.random.default_rng(12)
        z = random_curve(rng)
        quoted = ForwardCurve.from_zero_yields([1.0, 5.0, 10.0, 30.0], [0.01, 0.02, 0.025, 0.03])
        quoted = quoted.ray(random_shift(rng, horizon=30.0))(0.5)  # quotes unlike its grid
        # a shift covers its curve: one longer than the curve is read up to the
        # curve's horizon, and the last one's segment straddles that horizon
        return [
            (z, random_shift(rng)),
            (z, random_shift(rng, horizon=260.0)),
            (z, CurveShift.parallel(0.0025)),
            (z.with_constant_added(0.001), random_shift(rng)),
            (z.with_constant_added(-0.002), random_shift(rng, horizon=235.25)),
            (quoted, CurveShift.from_forward_values([0.0, 7.3, 12.0, 31.9], rng.uniform(-0.01, 0.01, 4))),
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

    @pytest.mark.parametrize("count", [1, 3])
    def test_suite_ray_rows_are_each_shifts_ray_bitwise(self, count):
        """Row i * S + j of a ray along a stacked shift is ray(shift i)(scale j),
        as stored and as evaluated; one scale gives one row per shift."""
        rng = np.random.default_rng(41)
        scales = np.array(EPS_SCHEDULE + (1.0,))
        ts = rng.uniform(0.0, 200.0, 300)
        for z, horizon in ((random_curve(rng), 200.0), (random_curve(rng).with_constant_added(0.001), 260.0)):
            shifts = [random_shift(rng, horizon=horizon) for _ in range(count)]
            stack = z.ray(CurveShift.stacked(shifts))(scales)
            assert stack.rows == count * scales.size and stack.quote_nodes is z.quote_nodes
            one = z.ray(CurveShift.stacked(shifts))(1.0)
            assert one.rows == (None if count == 1 else count)
            for i, shift in enumerate(shifts):
                want = z.ray(shift)(scales)
                assert stack.grid.nodes.tobytes() == want.grid.nodes.tobytes()
                rows = slice(i * scales.size, (i + 1) * scales.size)
                for name in ("f_left", "f_right", "_cum_f", "_cum_tz"):
                    assert getattr(stack, name)[rows].tobytes() == getattr(want, name).tobytes(), name
                assert stack.discount_factor(ts)[rows].tobytes() == want.discount_factor(ts).tobytes()
                got = one.f_left if count == 1 else one.f_left[i]
                assert got.tobytes() == z.ray(shift)(1.0).f_left.tobytes()

    def test_suite_ray_needs_one_grid(self):
        rng = np.random.default_rng(43)
        with pytest.raises(DomainError, match="one grid"):
            random_curve(rng).ray(CurveShift.stacked([random_shift(rng), random_shift(rng, horizon=60.0)]))
        with pytest.raises(DomainError, match="one grid"):
            CurveShift.stacked([CurveShift.parallel(0.01), CurveShift.parallel(0.02)])
        with pytest.raises(DomainError, match="at least one shift"):
            CurveShift.stacked([])

    def test_ray_curves_share_one_grid_and_the_quotes(self):
        z, shift = self.cases()[-1]
        along = z.ray(shift)
        first, second = along(EPS_SCHEDULE[0]), along(EPS_SCHEDULE[1])
        assert first.grid is second.grid
        assert first.quote_nodes is z.quote_nodes and second.quote_nodes is z.quote_nodes
        assert first.horizon == z.horizon


# ---- one integration route ---------------------------------------------------

#: the names of the integration route
ROUTE_NAMES = {"adaptive_panels", "_density_integrals", "_passes"}
#: what a module may name: the route's names, and in ``curves.py`` alone a
#: raise of the non-finite check
ALLOWED = {"curves.py": ROUTE_NAMES | {"raise"}, "quadrature.py": ROUTE_NAMES}


def _route_offences(tree) -> list:
    """(line, what) for every name of :data:`ROUTE_NAMES` that ``tree``
    uses, imports or defines, and every ``raise`` whose message says that
    a priced integral is not finite."""
    out = []
    for node in ast.walk(tree):
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, (ast.alias, ast.FunctionDef)):
            names.append(node.name)
        out += [(node.lineno, name) for name in names if name in ROUTE_NAMES]
        if isinstance(node, ast.Raise):
            # the literal parts of the message, also of an f-string
            parts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)]
            text = "".join(part for part in parts if isinstance(part, str))
            if "priced integral" in text and "not finite" in text:
                out.append((node.lineno, "raise"))
    return out


def test_one_integration_route():
    """Every integral over a measure, dL* or dA*, is priced in the passes of
    ``curves.Measure``: no other module names the route's pieces, and no
    other module raises the non-finite check of a pass."""
    package = pathlib.Path(curves_module.__file__).parent
    offences = {}
    for path in sorted(package.glob("*.py")):
        found = _route_offences(ast.parse(path.read_text(encoding="utf-8")))
        found = [(line, what) for line, what in found if what not in ALLOWED.get(path.name, ())]
        if found:
            offences[path.name] = found
    assert offences == {}


def test_route_guard_sees_every_form():
    snippet = """
from .curves import _density_integrals as m
import curvehedge.quadrature
def _passes():
    curves._density_integrals(x)
    quadrature.adaptive_panels(f, 0, 1)
    raise DomainError(f"a priced integral of {name} is not finite")
"""
    assert sorted(line for line, _ in _route_offences(ast.parse(snippet))) == [2, 4, 5, 6, 7]
