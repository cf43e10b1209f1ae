"""Invariants of curves and variations, checked as properties.

Examples come from the derandomized ``tier1`` profile in ``conftest.py``,
so every run checks the same ones. Each example draws a seed and builds
its random curve and shift from it with the shared builders.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehedge import (
    CashFlow,
    CurveShift,
    DiscountedFlow,
    ForwardCurve,
    MethodSpec,
    convexity_gap,
    extrapolate,
    hedge,
    method_variation,
    method_variation_pv,
    present_value,
    second_order_pv,
    stieltjes_integral,
    sw_fit_discrete,
    verify_first_order,
)
from curvehedge import curves as curves_module
from curvehedge import hedging
from curvehedge.cli import TOLERANCES
from curvehedge.errors import CurveHedgeError, DomainError
from curvehedge.hedging import hedge_summary, verification_checks
from curvehedge.sensitivity import ufr_sensitivity
from curvehedge.quadrature import REL_TOL, adaptive_panels, gauss_panel
from curvehedge.shifts import shift_suite
from curvehedge.variation import EPS_SCHEDULE, variation_weight

from conftest import random_curve, random_lump_flow, random_shift

UFR = 0.042
TAU = 10.0

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SPECS = {
    "M1": MethodSpec("M1", tau=TAU, ufr=UFR),
    "M2": MethodSpec("M2", tau=TAU),
    "M3": MethodSpec("M3", tau=TAU, ufr=UFR),
    "M4": MethodSpec("M4", tau=TAU),
    "M5_SFSA": MethodSpec("M5_SFSA", tau=TAU, kappa=20.0, ufr=UFR),
    "M6_SW_continuous": MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2),
}


def _times(rng, curve):
    """Random times on the curve's domain, its nodes and both ends."""
    inside = rng.uniform(0.0, curve.horizon, size=64)
    return np.concatenate(([0.0, curve.horizon], curve.grid.nodes, inside))


@given(seed=seeds, shift_horizon=st.sampled_from([200.0, 60.0]))
def test_zero_shift_leaves_the_curve(seed, shift_horizon):
    """z.ray(s)(0) evaluates as z, including past a shorter shift's horizon."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng)
    shifted = z.ray(random_shift(rng, horizon=shift_horizon))(0.0)
    assert shifted.horizon == z.horizon
    t = _times(rng, z)
    # the shift's nodes split z's segments, so values agree to rounding, not bitwise
    for side in ("left", "right"):
        np.testing.assert_allclose(
            shifted.forward_rate(t, side=side), z.forward_rate(t, side=side), rtol=0, atol=1e-16
        )
    for name in ("integrated_forward", "zero_yield", "discount_factor"):
        np.testing.assert_allclose(
            getattr(shifted, name)(t), getattr(z, name)(t), rtol=1e-13, atol=1e-16, err_msg=name
        )


@given(seed=seeds, kind=st.sampled_from(sorted(SPECS)), k=st.floats(min_value=1e-3, max_value=1e3))
def test_method_variation_positively_homogeneous(seed, kind, k):
    """dzbar[z | k*Dz] = k * dzbar[z | Dz] for every k > 0."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    shift = random_shift(rng)
    t = _times(rng, z)
    spec = SPECS[kind]
    base = method_variation(extrapolate(z, spec), shift, t)
    scaled = method_variation(extrapolate(z, spec), shift.scaled(k), t)
    np.testing.assert_allclose(scaled, k * base, rtol=1e-12, atol=1e-15 * k)


def _flow(rng, lo, hi):
    """Random lumps in (lo, hi] and one density segment inside (lo, hi)."""
    a = float(rng.uniform(lo, hi - 1.0))
    b = float(rng.uniform(a + 0.5, hi))
    return random_lump_flow(rng, lo, hi) + CashFlow(densities=((a, b, float(rng.uniform(0.01, 0.5))),))


@given(seed=seeds)
def test_m3_plan_value_is_the_liability_value(seed):
    """The M3 plan (the liability value as a lump at tau) is worth the liability value, exactly."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng)
    flow = _flow(rng, TAU, 190.0)
    spec = SPECS["M3"]
    assert hedge(extrapolate(z, spec), flow).value() == present_value(extrapolate(z, spec), flow)


@given(seed=seeds, k=st.floats(min_value=-10.0, max_value=10.0))
def test_present_value_is_linear_in_the_flow(seed, k):
    """PV[f + k*g] = PV[f] + k*PV[g], to the quadrature tolerance."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng)
    f, g = _flow(rng, 0.0, 90.0), _flow(rng, 100.0, 190.0)
    pv_f, pv_g = present_value(z, f), present_value(z, g)
    combined = present_value(z, f + g.scaled(k))
    assert abs(combined - (pv_f + k * pv_g)) <= REL_TOL * (abs(pv_f) + abs(k * pv_g))


CLOSED_FORM_KINDS = sorted(SPECS)


def _mixed_flow(rng, straddle):
    """Random lumps and three density segments on (0, 80]; with ``straddle``
    one segment runs across tau and kappa and lumps sit on both."""
    edges = np.sort(rng.uniform(0.0, 80.0, size=6))
    if straddle:
        edges[2], edges[3] = rng.uniform(TAU - 3.0, TAU), rng.uniform(20.0, 25.0)
        edges = np.sort(edges)
    rates = rng.uniform(-0.1, 0.5, size=3)
    densities = tuple((float(a), float(b), float(r)) for a, b, r in zip(edges[::2], edges[1::2], rates))
    count = int(rng.integers(0, 12))
    lumps = list(zip(rng.uniform(0.0, 80.0, size=count), rng.uniform(-1.0, 2.0, size=count)))
    if straddle:
        lumps += [(TAU, 0.7), (20.0, 0.3)]
    return CashFlow(lumps=tuple(lumps), densities=densities)


@pytest.mark.parametrize("parts", ["lumps_and_densities", "no_lumps", "no_densities"])
@given(
    seed=seeds,
    kind=st.sampled_from(["M1", "M2", "M3", "M5_SFSA", "M6_SW_continuous"]),
    straddle=st.booleans(),
)
def test_stacked_pass_rows_are_their_standalone_integrals(parts, seed, kind, straddle):
    """Each row of a DiscountedFlow pass equals its twin bit for bit: the
    family rows their curve's present value, the weight rows their
    standalone integral, and the running total that of the plain pass;
    also for a flow without lumps and for one without densities."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    curve = extrapolate(z, SPECS[kind])
    flow = _mixed_flow(rng, straddle)
    if parts == "no_lumps":
        flow = CashFlow(densities=flow.densities)
    elif parts == "no_densities":
        flow = CashFlow(lumps=flow.lumps)
    levels = [curve.ufr, *rng.uniform(0.0, 0.06, size=3)]
    weights = (*curve.method.ufr_weights(curve), (lambda t: t, ()))
    lstar = DiscountedFlow(flow, curve.with_ufr(levels), weights)

    assert lstar.total == present_value(curve, flow)
    for level, value in zip(levels, lstar.present_values, strict=True):
        assert value == present_value(curve.with_ufr([level]), flow)[0]
    for (weight, pts), value in zip(weights, lstar.integrals, strict=True):
        assert value == stieltjes_integral(curve, flow, weight, pts)
    t = np.concatenate((rng.uniform(0.0, 80.0, size=16), [TAU, 20.0, 80.0]))
    assert np.array_equal(lstar.cumulative(t), DiscountedFlow(flow, curve).cumulative(t))


def _density_panels(curve, a, b, rate):
    """The integrand D * rate of a density, the ends of its adaptive panels,
    split at the curve's breakpoints as the liability pass takes them, and
    the panel sums below each end."""
    integrand = lambda s: curve.discount_factor(s) * rate
    lows, panels, _ = adaptive_panels(integrand, a, b, breakpoints=curve.breakpoints_between(a, b))
    return integrand, np.append(lows, b), np.append(0.0, np.cumsum(panels))


def _partial_panel_cumulative(curve, flow, t):
    """C*(t) by the partial-panel rule: the lumps at or before t, and for
    each density the sum of its accepted panels below t plus one 24-point
    Gauss panel from t's panel's left end to t (t clipped to the density)."""
    lumps_only = DiscountedFlow(CashFlow(lumps=flow.lumps), curve).cumulative(t)
    out = lumps_only.copy()
    for a, b, rate in flow.densities:
        integrand, edges, cum = _density_panels(curve, a, b, rate)
        clipped = np.clip(t, a, b)
        seg = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(edges) - 2)
        out = out + cum[seg] + gauss_panel(integrand, edges[seg], clipped)
    return lumps_only, out


@settings(max_examples=60)
@given(
    seed=seeds,
    kind=st.sampled_from(sorted(SPECS) + ["M4"]),
    count=st.integers(min_value=1, max_value=4),
    lumps=st.integers(min_value=0, max_value=6),
    stacked=st.booleans(),
)
def test_running_total_is_the_partial_panel_rule(seed, kind, count, lumps, stacked):
    """``cumulative`` agrees with the partial-panel rule within 1e-14 L* on
    a nonnegative flow of lumps and several densities, on a curve or on
    row 0 of its ufr family, at random times, at the lumps and at the
    densities' and panels' ends. Before every density it is the lump sum
    bit for bit, at or past a density's end it adds that density's
    integral bit for bit, and it is nondecreasing to 4 ulps of L*: the
    partial panel that ends a hair before a panel's end is the 24-point
    estimate of the whole panel, not the accepted one."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    curve = extrapolate(z, SPECS.get(kind) or MethodSpec("M4", tau=TAU))
    edges = np.sort(rng.uniform(0.0, 180.0, size=2 * count)).tolist()
    flow = CashFlow(
        lumps=tuple(zip(rng.uniform(0.0, 180.0, size=lumps).tolist(), rng.uniform(0.1, 2.0, size=lumps).tolist())),
        densities=tuple(zip(edges[::2], edges[1::2], rng.uniform(0.05, 1.0, size=count).tolist())),
    )
    priced = curve.with_ufr([curve.ufr, *rng.uniform(0.0, 0.06, size=2)]) if stacked else curve
    lstar = DiscountedFlow(flow, priced)
    t = np.concatenate((
        rng.uniform(0.0, 200.0, size=64),
        [t for t, _ in flow.lumps],
        [end for a, b, _ in flow.densities for end in (a, b)],
        [np.nextafter(end, side) for a, b, _ in flow.densities for end in (a, b) for side in (0.0, np.inf)],
    ))
    t = np.sort(np.concatenate([t, *(_density_panels(curve, *density)[1] for density in flow.densities)]))
    got = lstar.cumulative(t)
    lumps_only, want = _partial_panel_cumulative(curve, flow, t)

    assert np.max(np.abs(got - want)) <= 1e-14 * lstar.total
    before = t <= min(a for a, _, _ in flow.densities)
    assert got[before].tobytes() == lumps_only[before].tobytes()
    for a, b, rate in flow.densities:
        alone = DiscountedFlow(CashFlow(densities=((a, b, rate),)), curve)
        assert alone.cumulative(np.array([b, np.nextafter(b, np.inf), 200.0])).tolist() == [alone.total] * 3
        assert alone.cumulative(np.array([0.0, a])).tolist() == [0.0, 0.0]
    assert np.all(np.diff(got) >= -4.0 * np.spacing(lstar.total))


def _glued_curve(seed, kind, offset):
    """A random market curve and its extrapolation by ``kind`` with an offset."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    spec = replace(SPECS[kind], offset=offset)
    return rng, z, spec, extrapolate(z, spec)


@given(seed=seeds, kind=st.sampled_from(CLOSED_FORM_KINDS), offset=st.sampled_from([0.0, 0.004, -0.0025]))
def test_market_plus_offset_up_to_tau(seed, kind, offset):
    """On [0, tau] the extrapolated curve is the market curve plus the offset, bit for bit;
    at tau itself the forward is the market's left limit."""
    rng, z, spec, ec = _glued_curve(seed, kind, offset)
    market = spec.market(z)
    nodes = z.grid.nodes
    t = np.concatenate(([0.0, TAU], nodes[nodes <= TAU], rng.uniform(0.0, TAU, size=64)))
    assert np.array_equal(ec.zero_yield(t), market.zero_yield(t))
    assert np.array_equal(ec.discount_factor(t), market.discount_factor(t))
    before = t < TAU
    for side in ("left", "right"):
        assert np.array_equal(ec.forward_rate(t[before], side=side), market.forward_rate(t[before], side=side))
        assert ec.forward_rate(TAU, side=side) == market.forward_rate(TAU, side="left")


@given(seed=seeds, kind=st.sampled_from(CLOSED_FORM_KINDS), offset=st.sampled_from([0.0, 0.004]))
def test_discount_factor_continuous_at_tau(seed, kind, offset):
    """D(tau -+ h) -> D(tau): |D(tau -+ h) / D(tau) - 1| is at most h times a bound on |f|,
    plus rounding. M1 pins the zero yield past tau to the ufr, so its D jumps there by
    exp(-tau (ufr - z(tau))) and is continuous from the left only."""
    _, _, spec, ec = _glued_curve(seed, kind, offset)
    d_tau = ec.discount_factor(TAU)
    jump = np.exp(-TAU * (spec.ufr - ec.z_tau)) if kind == "M1" else 1.0
    for h in (1e-3, 1e-6, 1e-9, 1e-12):
        assert abs(ec.discount_factor(TAU - h) / d_tau - 1.0) <= 0.2 * h + 1e-14
        assert abs(ec.discount_factor(TAU + h) / (jump * d_tau) - 1.0) <= 0.2 * h + 1e-14


@given(seed=seeds, kind=st.sampled_from(CLOSED_FORM_KINDS), offset=st.sampled_from([0.0, 0.004]))
def test_grid_equals_its_pieces(seed, kind, offset):
    """Evaluating a grid equals evaluating its pieces split at tau and kappa, bit for bit."""
    rng, _, spec, ec = _glued_curve(seed, kind, offset)
    kappa = SPECS["M5_SFSA"].kappa
    t = np.sort(np.concatenate(([0.0, TAU, kappa, ec.horizon], rng.uniform(0.0, ec.horizon, size=200))))
    pieces = (t[t <= TAU], t[(t > TAU) & (t <= kappa)], t[t > kappa])
    evaluations = [ec.zero_yield, ec.discount_factor]
    evaluations += [functools.partial(ec.forward_rate, side=side) for side in ("left", "right")]
    for evaluate in evaluations:
        whole = evaluate(t)
        assert np.array_equal(whole, np.concatenate([evaluate(p) for p in pieces]), equal_nan=True)
    for whole, parts in zip(ec._evaluation(t), zip(*(ec._evaluation(p) for p in pieces))):
        assert np.array_equal(whole, np.concatenate(parts), equal_nan=True)


#: the seven method kinds; the discrete Smith-Wilson form is fitted to the
#: market curve's quotes up to tau
ALL_SPECS = {**SPECS, "M6_SW_discrete": MethodSpec("M6_SW_discrete", tau=TAU, ufr=UFR, alpha=0.1)}


def _quoted_curve(rng):
    """A market curve bootstrapped from zero yields quoted on a half-year
    ladder out to 30 years, with at least one quote in (0, tau]."""
    ladder = np.arange(1, 60) * 0.5
    times = rng.choice(ladder, size=int(rng.integers(2, 12)), replace=False)
    times = np.unique(np.concatenate((times, [rng.choice(ladder[ladder <= TAU]), 30.0])))
    return ForwardCurve.from_zero_yields(times, rng.uniform(0.0, 0.04, size=times.size))


@given(seed=seeds, kind=st.sampled_from(sorted(ALL_SPECS)))
def test_zero_shift_prices_as_the_curve(seed, kind):
    """extrapolate(z.ray(s)(0)) prices as extrapolate(z), for all seven kinds.

    The shift's nodes split the market segments, and each density integral
    splits at them, so the values agree to the quadrature tolerance.
    """
    rng = np.random.default_rng(seed)
    z = _quoted_curve(rng)
    shifted = z.ray(random_shift(rng))(0.0)
    flow = _flow(rng, TAU, 190.0)
    spec = ALL_SPECS[kind]
    value = present_value(extrapolate(z, spec), flow)
    assert abs(present_value(extrapolate(shifted, spec), flow) - value) <= 10 * REL_TOL * abs(value)


@given(
    seed=seeds,
    ufr=st.sampled_from([0.0, 0.042, 0.08]),
    alpha=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
)
def test_sw_discrete_fit_reproduces_its_prices(seed, ufr, alpha):
    """A discrete Smith-Wilson fit returns its input prices at its nodes.

    D(u) = exp(-ufr u) + W(u, u) zeta, where zeta solves W(u, u) zeta = r
    with r = p - exp(-ufr u) by a backward-stable Cholesky solve. Its
    residual is at most a small multiple of n eps ||W|| ||zeta||, and
    ||W|| ||zeta|| <= cond(W) ||r||, so with n nodes

        |D(u_i) - p_i| <= 4 n eps (cond(W) max|r| + max p),

    the last term for the rounding of exp(-ufr u) + (W zeta)_i.
    """
    rng = np.random.default_rng(seed)
    nodes = _quoted_curve(rng).grid.nodes[1:]
    prices = np.exp(-nodes * rng.uniform(0.0, 0.05, size=nodes.size))
    fit = sw_fit_discrete(nodes, prices, ufr, alpha)
    rhs = prices - np.exp(-ufr * nodes)
    eps = np.finfo(float).eps
    bound = 4 * nodes.size * eps * (fit.condition * np.max(np.abs(rhs)) + np.max(prices))
    assert np.max(np.abs(fit.discount_factor(nodes) - prices)) <= bound


def _evaluations(curve):
    """The curve's evaluation methods, those the evaluation protocol wraps,
    with the forward rate from the left as well."""
    methods = {
        name: getattr(curve, name) for name, raw in vars(type(curve)).items() if hasattr(raw, "body")
    }
    methods["forward_rate_left"] = functools.partial(curve.forward_rate, side="left")
    return methods


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@given(
    seed=seeds,
    kind=st.sampled_from(sorted(ALL_SPECS)),
    offset=st.sampled_from([0.0, 0.004, -0.0025]),
)
def test_float_time_evaluates_as_a_one_element_array(seed, kind, offset):
    """A float time, Python or numpy, gives the value of np.array([t]) bit for bit,
    as a float (or a tuple of floats), on the market curve and its extrapolation.

    Times: 0, tau, kappa, the market and fit nodes, the horizon and random
    points. A NaN, a negative time and a time past the horizon are refused
    on both paths.
    """
    rng = np.random.default_rng(seed)
    z = _quoted_curve(rng) if kind == "M6_SW_discrete" else random_curve(rng, low=0.0, high=0.04)
    spec = replace(ALL_SPECS[kind], offset=offset)
    curve = extrapolate(z, spec)
    # random times inside every market segment: in the first one the cubic
    # term of the integral of s*z(s) is not swamped by the running sums
    inside = z.grid.nodes[:-1] + rng.uniform(size=(4, z.grid.nodes.size - 1)) * np.diff(z.grid.nodes)
    for c in (z, curve):
        nodes = getattr(c, "nodes", z.grid.nodes)
        ends = [0.0, TAU, SPECS["M5_SFSA"].kappa, c.horizon]
        times = np.concatenate((ends, nodes, inside.ravel(), rng.uniform(0.0, c.horizon, size=16)))
        bad = (np.nan, -1e-300, np.nextafter(c.horizon, np.inf), c.horizon + 1.0)
        for name, evaluate in _evaluations(c).items():
            for t in times[times <= c.horizon]:
                want = evaluate(np.array([t]))
                for scalar in (float(t), np.float64(t)):
                    got = evaluate(scalar)
                    if isinstance(want, tuple):
                        assert all(type(g) is float for g in got), name
                        assert [_bits(g) for g in got] == [_bits(w) for w in want], (name, t)
                    else:
                        assert type(got) is float, name
                        assert _bits(got) == _bits(want), (name, t)
            for t in bad:
                for arg in (float(t), np.float64(t), np.array([t])):
                    with pytest.raises(DomainError):
                        evaluate(arg)


@given(seed=seeds, shift_horizon=st.sampled_from([200.0, 60.0]))
def test_float_time_shift_evaluates_as_a_one_element_array(seed, shift_horizon):
    """A float time, Python or numpy, gives a shift's Delta-z and
    time-weighted cumulative of np.array([t]) bit for bit,
    as a float, for a constant and a curve shift, inside the shift's horizon
    and past it, where the shift extends flat."""
    rng = np.random.default_rng(seed)
    curve_shift = random_shift(rng, horizon=shift_horizon)
    constant = CurveShift.parallel(float(rng.uniform(-0.01, 0.01)), shift_horizon)
    nodes = curve_shift.delta_forward.grid.nodes
    times = np.concatenate((
        [0.0, TAU, shift_horizon, 200.0],
        nodes[:: nodes.size // 16],
        rng.uniform(0.0, shift_horizon, 16),
        rng.uniform(0.0, 200.0, 16),
    ))
    for shift in (curve_shift, constant):
        methods = {
            "delta_z": shift.delta_z,
            "time_weighted_cumulative": shift.time_weighted_cumulative,
        }
        for name, evaluate in methods.items():
            for t in times:
                want = evaluate(np.array([t]))
                for scalar in (float(t), np.float64(t)):
                    got = evaluate(scalar)
                    assert type(got) is float, name
                    assert _bits(got) == _bits(want), (name, t)


#: every kind with a variation; M4 and M6 continuous have no plan to verify
VARIATION_KINDS = CLOSED_FORM_KINDS
PLAN_KINDS = ("M1", "M2", "M3", "M5_SFSA")


def _suite_flow(rng, tau, inside, before):
    """Lumps past tau and a density past kappa; with ``inside`` a density in
    (tau, kappa), and with ``before`` a lump and a density before tau too."""
    lumps = list(zip(rng.uniform(tau + 0.1, 80.0, size=3), rng.uniform(0.2, 1.5, size=3)))
    a = float(rng.uniform(22.0, 40.0))
    densities = [(a, a + float(rng.uniform(1.0, 30.0)), float(rng.uniform(0.01, 0.3)))]
    if inside:
        a = float(rng.uniform(tau, 15.0))
        densities.append((a, float(rng.uniform(a + 0.3, 20.0)), float(rng.uniform(0.01, 0.3))))
    if before:
        lumps.append((float(rng.uniform(0.5, tau)), 0.4))
        a = float(rng.uniform(0.5, tau - 1.0))
        densities.append((a, float(rng.uniform(a + 0.3, tau + 0.5)), 0.1))
    return CashFlow(lumps=tuple(lumps), densities=tuple(densities))


def _close(got, want, scale):
    """Agreement to 1e-13 relative to ``scale``, the size of the terms compared."""
    return abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("kind", VARIATION_KINDS)
@settings(max_examples=15)
@given(
    seed=seeds,
    count=st.integers(min_value=1, max_value=4),
    tau=st.sampled_from([TAU, 10.3]),
    inside=st.booleans(),
    before=st.booleans(),
    parallel=st.booleans(),
)
def test_stacked_rows_are_the_one_shift_functions(kind, seed, count, tau, inside, before, parallel):
    """The liability passes and the plan passes of ``hedge`` and ``verify``
    give every shift what the one-shift functions give.

    The liability value is the flow's present value bit for bit, and the
    curve's panels are the plain pass's: the variation weights whose
    breakpoints fall inside a density where the curve has none, all at
    the suite grid's nodes, take a pass of their own. Each variation row
    is ``method_variation_pv`` bit for bit, each hedge-equation row
    ``verify_first_order`` and the gap ``convexity_gap`` to 1e-13
    relative; each ladder's present values are its own ray's, bit for bit. A parallel shift adds a second grid.
    Flows with mass before tau are verified for the kinds without a plan.
    """
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    spec = replace(SPECS[kind], tau=tau)
    curve = extrapolate(z, spec)
    hedgeable = kind in PLAN_KINDS
    flow = _suite_flow(rng, tau, inside, before and not hedgeable)
    shifts = shift_suite(count, int(rng.integers(0, 2**31)))
    if parallel:
        shifts.append(CurveShift.parallel(float(rng.uniform(-0.01, 0.01))))

    passes = []
    real = curves_module._density_integrals

    def counted(densities, *args):
        passes.append(len(densities))
        return real(densities, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curves_module, "_density_integrals", counted)
        lstar = DiscountedFlow(flow, curve, tuple(variation_weight(curve, shift) for shift in shifts))
    plain = DiscountedFlow(flow, curve)
    assert lstar.total == present_value(curve, flow)
    for got, want in zip(lstar._pieces, plain._pieces, strict=True):
        assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])
    reach = spec.method.reach(spec)
    split = any(
        a < p < b and p not in curve.breakpoints_between(a, b)
        for shift in shifts
        for p in shift.breakpoints_between(0.0, reach)
        for a, b, _ in flow.densities
    )
    assert passes == [len(flow.densities)] * (1 + split)

    variations = [method_variation_pv(curve, shift, flow) for shift in shifts]
    for integral, want in zip(lstar.integrals, variations, strict=True):
        assert -integral == want
    if not hedgeable:
        return

    plan = hedge(curve, flow)
    unit = CurveShift.parallel(1.0, curve.horizon)
    summary = hedge_summary(curve, flow, shifts)
    assert summary["liability_value"] == lstar.total
    gap = convexity_gap(curve, flow, unit, plan)
    # the gap is the plan side less the liability side
    sides = abs(gap) + 2.0 * abs(second_order_pv(curve, unit, flow))
    assert _close(summary["convexity_gap_parallel_unit"], gap, sides)
    # a residual is |lhs + variation|, with lhs near -variation
    residuals = [verify_first_order(plan, curve, flow, shift) for shift in shifts]
    assert _close(summary["max_first_order_residual"], max(residuals), max(map(abs, variations)))

    scales = np.array(EPS_SCHEDULE)
    terms = [hedging._hedge_term(shift, curve.horizon) for shift in shifts]
    values = hedging._suite_values(plan, curve, flow, shifts, scales, terms)
    for shift, variation, residual, (liabs, lhs, assets) in zip(shifts, variations, residuals, values, strict=True):
        ladder = z.ray(shift)(scales)
        assert liabs == present_value(extrapolate(ladder, spec), flow).tolist()
        assert _close(abs(lhs + variation), residual, abs(variation))
        for got, want in zip(assets, plan.value_under(ladder, z).tolist(), strict=True):
            assert _close(got, want, abs(want))


def _outcome(call, *args):
    """(type, message) of the error ``call`` raises, or None."""
    try:
        call(*args)
    except CurveHedgeError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kind", VARIATION_KINDS)
@settings(max_examples=12)
@given(seed=seeds, before=st.booleans(), negative=st.booleans(), gap=st.sampled_from([None, 0.005, 0.05]))
def test_every_liability_pass_checks_the_same_rules(kind, seed, before, negative, gap):
    """``verify`` rejects a flow exactly when ``hedge`` does, with the same
    error, and so does ``sensitivity`` for a kind with a UFR: the flow past
    tau, the method's premises and L* > 0 are checked in their one pass.
    Flows may hold a lump at or before tau and negative amounts, and an M6
    curve may have ufr = f(tau) - ``gap`` at alpha 0.01: for a gap above
    alpha its discount factor turns negative 22 years past tau."""
    rng = np.random.default_rng(seed)
    z = random_curve(rng, low=0.0, high=0.04)
    spec = SPECS[kind]
    if kind == "M6_SW_continuous" and gap is not None:
        spec = replace(spec, ufr=float(extrapolate(z, spec).f_tau - gap), alpha=0.01)
    curve = extrapolate(z, spec)
    lumps = [(float(rng.uniform(TAU + 0.1, 80.0)), float(rng.uniform(0.2, 1.5))) for _ in range(2)]
    if before:
        lumps.append((float(rng.choice([TAU, rng.uniform(0.5, TAU)])), 0.4))
    if negative:
        lumps.append((float(rng.uniform(TAU + 0.1, 80.0)), -float(rng.uniform(0.5, 3.0))))
    a = float(rng.uniform(TAU + 1.0, 40.0))
    flow = CashFlow(lumps=tuple(lumps), densities=((a, a + float(rng.uniform(1.0, 30.0)), 0.05),))

    want = _outcome(hedge, curve, flow)
    assert _outcome(verification_checks, curve, flow, shift_suite(1, seed % 2**31), TOLERANCES) == want
    if spec.method.no_ufr is None:
        assert _outcome(ufr_sensitivity, curve, flow) == want
