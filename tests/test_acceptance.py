"""End-to-end acceptance checks for the whole package.

Every check prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and then asserts. Expected values come from
closed forms evaluated in place or from independent numeric oracles
(finite differences, brute-force revaluation, Monte Carlo simulation);
no expected value is asserted that is not computed here.
"""

import math

import numpy as np
import pytest

from curvehedge import (
    CashFlow,
    CurveShift,
    ForwardCurve,
    MethodSpec,
    arbitrage_scan,
    clamp_functional,
    clamp_variation,
    convexity_gap,
    duration,
    extrapolate,
    hedge,
    numeric_variation,
    present_value,
    sw_fit_discrete,
    sw_kernel,
    sw_variation_coefficient,
    ufr_sensitivity,
    verify_perfect,
)
from curvehedge.shifts import shift_suite
from curvehedge.variation import EPS_SCHEDULE

UFR = 0.042
TAU = 10.0
KAPPA = 20.0

FLAT = ForwardCurve.flat(0.03, horizon=200.0)
M2 = MethodSpec("M2", tau=TAU)
M3 = MethodSpec("M3", tau=TAU, ufr=UFR)
M5 = MethodSpec("M5_SFSA", tau=TAU, kappa=KAPPA, ufr=UFR)


def smooth_market_curve():
    ts = np.linspace(0.0, 200.0, 81)
    return ForwardCurve.from_forwards(ts, 0.02 + 0.015 * (1.0 - np.exp(-ts / 4.0)))


def _criterion(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def local_shift_suite(count, seed, center_range=(0.0, 30.0)):
    """Random smooth shifts whose bumps load the region the methods read."""
    rng = np.random.default_rng(seed)
    ts = np.arange(0.0, 200.5, 0.5)
    shifts = []
    for _ in range(count):
        values = np.zeros_like(ts)
        for _ in range(int(rng.integers(1, 6))):
            values += rng.uniform(-0.01, 0.01) * np.exp(
                -0.5 * ((ts - rng.uniform(*center_range)) / rng.uniform(2.0, 10.0)) ** 2
            )
        shifts.append(CurveShift.from_forward_values(ts, values))
    return shifts


def random_liability(rng, lo, hi):
    count = int(rng.integers(1, 7))
    times = rng.uniform(lo + 1e-6, hi, size=count)
    amounts = rng.uniform(0.2, 2.0, size=count)
    return CashFlow(lumps=tuple(zip(times, amounts)))


def test_criterion_01_phased_method_convexity_surplus_far_lumps():
    """Convexity gap of the blend-window hedge equals (kappa-tau)^2/12 per unit."""
    unit = CurveShift.parallel(1.0)
    expected = (KAPPA - TAU) ** 2 / 12.0
    curve = extrapolate(FLAT, M5)
    worst_analytic = worst_numeric = 0.0
    for sigma in (25.0, 40.0, 100.0):
        flow = CashFlow.single_payment(sigma)
        d_sigma = curve.discount_factor(sigma)
        analytic = convexity_gap(extrapolate(FLAT, M5), flow, unit) / d_sigma
        worst_analytic = max(worst_analytic, abs(analytic - expected))

        plan = hedge(extrapolate(FLAT, M5), flow)
        rep_asset = numeric_variation(
            lambda c: plan.value_under(c, FLAT), FLAT, unit, order=2
        )
        rep_liab = numeric_variation(
            lambda c: present_value(extrapolate(c, M5), flow), FLAT, unit, order=2
        )
        numeric = (rep_asset.numeric - rep_liab.numeric) / d_sigma
        worst_numeric = max(worst_numeric, abs(numeric - expected))
    _criterion(
        1,
        worst_analytic < 1e-8 and worst_numeric < 1e-4,
        f"gap ratio vs {expected:.6f}: analytic err {worst_analytic:.2e} (<1e-8), "
        f"numeric err {worst_numeric:.2e} (<1e-4)",
    )


def test_criterion_02_phased_method_convexity_surplus_inside_blend():
    """Strictly positive gap on (tau, kappa], with the predicted derivative."""
    unit = CurveShift.parallel(1.0)
    curve = extrapolate(FLAT, M5)
    span = KAPPA - TAU

    def closed_form(sigma):
        a = (sigma**3 - TAU**3) / (3 * span) + sigma**2 * (KAPPA - sigma) / span
        l = (KAPPA**2 - TAU**2 - (KAPPA - sigma) ** 2) ** 2 / (4 * span**2)
        return a - l

    def unit_pv_gap(sigma):
        flow = CashFlow.single_payment(sigma, 1.0 / curve.discount_factor(sigma))
        return convexity_gap(extrapolate(FLAT, M5), flow, unit)

    sigmas = np.arange(10.5, 20.25, 0.5)
    positive = True
    worst_match = worst_deriv = 0.0
    h = 1e-4
    for sigma in sigmas:
        sigma = float(sigma)
        gap = unit_pv_gap(sigma)
        positive = positive and gap > 0.0
        worst_match = max(worst_match, abs(gap - closed_form(sigma)))
        lam = (sigma - TAU) / span
        expected_slope = span * lam**2 * (1.0 - lam)
        if sigma < KAPPA:
            slope = (unit_pv_gap(sigma + h) - unit_pv_gap(sigma - h)) / (2 * h)
        else:
            # the gap goes flat past kappa; the stated slope is the left
            # derivative, so difference one-sidedly at the endpoint
            slope = (
                3 * unit_pv_gap(sigma) - 4 * unit_pv_gap(sigma - h) + unit_pv_gap(sigma - 2 * h)
            ) / (2 * h)
        worst_deriv = max(worst_deriv, abs(slope - expected_slope))
    _criterion(
        2,
        positive and worst_match < 1e-9 and worst_deriv < 1e-6,
        f"positive on grid: {positive}, closed-form err {worst_match:.2e}, "
        f"derivative err {worst_deriv:.2e} (<1e-6)",
    )


def test_criterion_03_constant_yield_convexity_deficit():
    """Constant-yield hedge runs short of convexity by sigma (sigma - tau) D."""
    unit = CurveShift.parallel(1.0)
    curve = extrapolate(FLAT, M2)
    worst = 0.0
    for sigma in (25.0, 40.0, 100.0):
        gap = convexity_gap(extrapolate(FLAT, M2), CashFlow.single_payment(sigma), unit)
        expected = -sigma * (sigma - TAU) * curve.discount_factor(sigma)
        worst = max(worst, abs(gap - expected) / max(1.0, abs(expected)))
    _criterion(3, worst < 1e-10, f"deficit vs closed form, rel err {worst:.2e} (<1e-10)")


def test_criterion_04_perfect_hedge_revaluation():
    """Plans for the two perfectly hedgeable methods track full repricing."""
    market = smooth_market_curve()
    flow = CashFlow(lumps=((20.0, 1.0), (45.0, 0.6)), densities=((25.0, 35.0, 0.1),))
    shifts = shift_suite(50, seed=20)  # bump amplitudes cap the shift at 5%
    worst = 0.0
    for spec in (MethodSpec("M1", tau=TAU, ufr=UFR), M3):
        liability = present_value(extrapolate(market, spec), flow)
        plan = hedge(extrapolate(market, spec), flow)
        gap = verify_perfect(plan, extrapolate(market, spec), flow, shifts)
        worst = max(worst, gap / abs(liability))
    _criterion(4, worst < 1e-9, f"max revaluation gap {worst:.2e} of liability value (<1e-9)")


def test_criterion_05_first_order_residual_decay():
    """Hedge tracking error shrinks faster than the shift size, shift by shift."""
    flow = CashFlow(lumps=((15.0, 1.0), (25.0, 0.8), (60.0, 0.5), (120.0, 0.3)))
    shifts = local_shift_suite(20, seed=1)
    ok = True
    for spec in (M2, M5):
        plan = hedge(extrapolate(FLAT, spec), flow)
        base_asset = plan.value()
        base_liab = present_value(extrapolate(FLAT, spec), flow)
        for shift in shifts:
            ratios = []
            for eps in EPS_SCHEDULE:
                shifted = FLAT.ray(shift)(eps)
                asset = plan.value_under(shifted, FLAT)
                liab = present_value(extrapolate(shifted, spec), flow)
                ratios.append(abs((asset - base_asset) - (liab - base_liab)) / eps)
            ok = ok and all(a > b for a, b in zip(ratios, ratios[1:]))
    _criterion(5, ok, "residual/eps falls monotonically over the halving schedule")


def test_criterion_06_ufr_sensitivities():
    """Durations for the simple methods; bound and oracle checks for the rest."""
    rng = np.random.default_rng(60)
    m6 = MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.2)
    worst_identity = worst_oracle = 0.0
    bounds_ok = True
    for i in range(100):
        curve = (
            FLAT
            if i % 2
            else ForwardCurve.from_forwards(
                np.linspace(0.0, 200.0, 41),
                rng.uniform(0.0, 0.035, size=41),
            )
        )
        flow = random_liability(rng, TAU + 0.5, 150.0)
        r2 = ufr_sensitivity(extrapolate(curve, M2), flow)
        worst_identity = max(
            worst_identity, abs(r2.S - duration(extrapolate(curve, M2), flow))
        )
        r3 = ufr_sensitivity(extrapolate(curve, M3), flow)
        worst_identity = max(
            worst_identity,
            abs(r3.S - (duration(extrapolate(curve, M3), flow) - TAU)),
        )
        for spec in (M5, m6):
            report = ufr_sensitivity(extrapolate(curve, spec), flow)
            bounds_ok = bounds_ok and (
                report.lower - 1e-10 <= report.S <= report.upper + 1e-10
            )
            worst_oracle = max(worst_oracle, report.rel_residual)
        worst_oracle = max(worst_oracle, r2.rel_residual, r3.rel_residual)
    _criterion(
        6,
        worst_identity < 1e-10 and bounds_ok and worst_oracle < 1e-6,
        f"duration identities err {worst_identity:.2e} (<1e-10), bounds hold: {bounds_ok}, "
        f"oracle rel err {worst_oracle:.2e} (<1e-6)",
    )


def test_criterion_07_smith_wilson_negative_discounts():
    """A last forward above ufr + alpha drives the discount factor negative."""
    alpha = 0.1
    steep = ForwardCurve.from_forwards([0.0, 10.0], [0.03, UFR + alpha + 0.01])
    ec = extrapolate(steep, MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=alpha))
    report = arbitrage_scan(ec)
    detected = bool(report.nonpositive_discount) and ec.is_defective
    _criterion(
        7,
        detected,
        f"nonpositive discount intervals {list(report.nonpositive_discount)[:2]}",
    )


def test_criterion_08_single_par_bond_starts_with_negative_yields():
    """Fitting one par bond makes the discount factor rise from 1 at t = 0."""
    fit = sw_fit_discrete([10.0], [1.0], UFR, 0.1, horizon=200.0)
    report = arbitrage_scan(fit, step=0.01)
    rising = fit.discount_factor(0.01) > fit.discount_factor(0.0) == 1.0
    near_zero = bool(report.negative_forward) and report.negative_forward[0][0] <= 0.01
    _criterion(
        8,
        rising and near_zero,
        f"D(0.01)-1 = {fit.discount_factor(0.01) - 1.0:.3e} > 0, "
        f"negative forwards from t = {report.negative_forward[0][0] if report.negative_forward else None}",
    )


def test_criterion_09_discrete_fit_converges_to_continuous():
    """Dense node grids reproduce the continuous closed form ever better."""
    market = smooth_market_curve()
    cont = extrapolate(market, MethodSpec("M6_SW_continuous", tau=TAU, ufr=UFR, alpha=0.15))
    ts = np.linspace(TAU + 0.25, 200.0, 760)
    reference = cont.discount_factor(ts)
    errors = []
    for n in (25, 50, 100, 200):
        nodes = TAU * np.arange(1, n + 1) / n
        fit = sw_fit_discrete(nodes, market.discount_factor(nodes), UFR, 0.15)
        errors.append(float(np.max(np.abs(fit.discount_factor(ts) - reference))))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    _criterion(9, monotone, f"max errors {['%.2e' % e for e in errors]} strictly decreasing")


def integrated_ou_snapshots(n_paths, dt, alpha, obs, seed):
    """Euler paths of dX = -alpha X dt + alpha^{3/2} dB, X0 ~ N(0, alpha^2).

    Returns the running integral of X at the requested times (trapezoid
    accumulation, telescoped to one endpoint correction per snapshot).
    """
    rng = np.random.Generator(np.random.SFC64(seed))
    x = rng.normal(0.0, alpha, size=n_paths)
    x0 = x.copy()
    xstar = np.zeros(n_paths)
    decay = 1.0 - alpha * dt
    sig = alpha**1.5 * math.sqrt(dt)
    steps = int(round(max(obs) / dt))
    snap_at = {int(round(s / dt)): s for s in obs}
    snaps = {}
    for k in range(1, steps + 1):
        xstar += dt * x
        x = decay * x + sig * rng.standard_normal(n_paths)
        if k in snap_at:
            snaps[snap_at[k]] = xstar + 0.5 * dt * (x - x0)
    return snaps


@pytest.mark.slow
def test_criterion_10_kernel_is_integrated_ou_covariance():
    """Monte Carlo covariances of the damped integrated OU match the kernel."""
    alpha, n_paths, dt = 0.5, 200_000, 1e-3
    snaps = integrated_ou_snapshots(n_paths, dt, alpha, (1.0, 2.0, 5.0), seed=12345)
    worst_z = 0.0
    details = []
    for s, t in ((1.0, 2.0), (2.0, 5.0), (5.0, 5.0)):
        ys, yt = 1.0 + snaps[s], 1.0 + snaps[t]  # zero damping: Y = 1 + X*
        cov = float(np.cov(ys, yt, ddof=1)[0, 1])
        m22 = float(np.mean((ys - ys.mean()) ** 2 * (yt - yt.mean()) ** 2))
        se = math.sqrt((m22 - cov * cov) / n_paths)
        z = abs(cov - sw_kernel(s, t, 0.0, alpha)) / se
        worst_z = max(worst_z, z)
        details.append(f"({s:g},{t:g}): z={z:.2f}")
    _criterion(10, worst_z <= 3.0, f"covariances within 3 SE: {', '.join(details)}")


def test_criterion_11_smith_wilson_slow_reversion_coefficient():
    """The forward-exposure coefficient approaches its closed slow-speed limit."""
    f_tau = FLAT.forward_rate(TAU, side="left")
    worst = 0.0
    for t in (15.0, 30.0, 60.0):
        c = sw_variation_coefficient(t, TAU, 1e-6, UFR, f_tau)
        limit = (1.0 - TAU / t) / (1.0 + (UFR - f_tau) * (t - TAU))
        worst = max(worst, abs(c - limit))
    _criterion(11, worst < 1e-5, f"coefficient vs limit, err {worst:.2e} (<1e-5)")


def test_criterion_12_hedge_value_identities():
    """Plan values: matched for M3/M5, levered by duration/tau for M2."""
    rng = np.random.default_rng(120)
    worst_match = worst_lever = 0.0
    for _ in range(50):
        flow = random_liability(rng, TAU + 0.5, 180.0)
        for spec in (M3, M5):
            liability = present_value(extrapolate(FLAT, spec), flow)
            plan = hedge(extrapolate(FLAT, spec), flow)
            worst_match = max(
                worst_match, abs(plan.value() - liability) / max(1.0, liability)
            )
        curve2 = extrapolate(FLAT, M2)
        liability = present_value(curve2, flow)
        plan = hedge(extrapolate(FLAT, M2), flow)
        worst_lever = max(
            worst_lever,
            abs(plan.value() / liability - duration(curve2, flow) / TAU),
        )
    _criterion(
        12,
        worst_match < 1e-10 and worst_lever < 1e-10,
        f"value match err {worst_match:.2e}, leverage identity err {worst_lever:.2e} (<1e-10)",
    )


def test_criterion_13_clamp_case_table():
    """The clamped-yield variation follows its four-way case split exactly."""
    c, t = 0.03, 20.0
    at = ForwardCurve.flat(c)
    below = ForwardCurve.flat(c - 0.01)
    above = ForwardCurve.flat(c + 0.01)
    up = CurveShift.parallel(0.01)
    down = CurveShift.parallel(-0.01)
    table_ok = (
        clamp_variation(below, up, c, t) == 0.0
        and clamp_variation(at, down, c, t) == 0.0
        and clamp_variation(at, up, c, t) == 0.01
        and clamp_variation(above, down, c, t) == -0.01
        and clamp_variation(above, up, c, t) == 0.01
    )
    worst = 0.0
    for shift in (up, down):
        report = numeric_variation(clamp_functional(c, t), at, shift)
        worst = max(worst, abs(report.numeric - clamp_variation(at, shift, c, t)))
    _criterion(
        13,
        table_ok and worst < 1e-8,
        f"case table exact: {table_ok}, numeric agreement at the kink {worst:.2e} (<1e-8)",
    )
