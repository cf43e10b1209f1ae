import math
import pathlib
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvehedge import (
    EPS_SCHEDULE,
    CashFlow,
    ExtrapolatedCurve,
    ForwardCurve,
    MethodSpec,
    arbitrage_scan,
    extrapolate,
    present_value,
    sw_alpha_calibrate,
    sw_fit_discrete,
    sw_kernel,
)
from curvehedge.errors import AlphaNotWellDefinedError, CalibrationError, DomainError
import curvehedge.extrapolation as extrapolation_module
from curvehedge.extrapolation import _SCAN_CHUNK, SwDiscreteFit, _unproven_runs, sample_grid
from curvehedge.io import read_curve
from curvehedge.methods import ALL_KINDS, METHODS

from conftest import random_curve, random_shift

UFR = 0.042
SAMPLE_DATA = pathlib.Path(__file__).resolve().parents[1] / "sample_data"


# ---- independent oracle for the phased method ---------------------------------


def phased_yield_oracle(curve, tau, kappa, ufr, t, n=200_001):
    """t*zbar(t) = tau*z(tau) + int_tau^t fbar, with fbar integrated by trapezoid.

    fbar blends the market forward into the long-term rate linearly on
    (tau, kappa] and equals it beyond; the integrand is smooth there, so
    a fine trapezoid pins the value far below the comparison tolerance.
    """
    s = np.linspace(tau, t, n)
    fbar = np.where(
        s <= kappa,
        (kappa - s) / (kappa - tau) * curve.forward_rate(np.minimum(s, kappa))
        + (s - tau) / (kappa - tau) * ufr,
        ufr,
    )
    if t > kappa:
        s2 = np.union1d(s, [kappa])
        fbar = np.where(
            s2 <= kappa,
            (kappa - s2) / (kappa - tau) * curve.forward_rate(np.minimum(s2, kappa))
            + (s2 - tau) / (kappa - tau) * ufr,
            ufr,
        )
        s = s2
    integral = np.trapezoid(fbar, s)
    return (tau * curve.zero_yield(tau) + integral) / t


class TestMethodSpec:
    def test_json_round_trip(self):
        spec = MethodSpec.from_json(
            {"kind": "M5_SFSA", "tau": 10, "kappa": 20, "ufr": 0.042, "offset": 0.0}
        )
        assert spec.kappa == 20
        assert MethodSpec.from_json(spec.to_json()) == spec

    def test_validation(self):
        with pytest.raises(DomainError):
            MethodSpec("M7", tau=10)
        with pytest.raises(DomainError):
            MethodSpec("M2", tau=10, ufr=0.042)  # constant-yield method has no ufr
        with pytest.raises(DomainError):
            MethodSpec("M3", tau=10)  # needs a ufr
        with pytest.raises(DomainError):
            MethodSpec("M5_SFSA", tau=10, ufr=0.042)  # needs kappa
        with pytest.raises(DomainError):
            MethodSpec("M5_SFSA", tau=10, kappa=5, ufr=0.042)
        with pytest.raises(DomainError):
            MethodSpec("M6_SW_continuous", tau=10, ufr=0.042)  # alpha or (kappa, epsilon)
        with pytest.raises(DomainError):
            MethodSpec("M1", tau=-1, ufr=0.042)
        # JSON's Infinity is a number, but not a convergence point or a tolerance
        with pytest.raises(DomainError, match="kappa must be finite"):
            MethodSpec("M6_SW_continuous", tau=10, ufr=0.042, kappa=math.inf, epsilon=1e-4)
        with pytest.raises(DomainError, match="epsilon must be finite"):
            MethodSpec("M6_SW_continuous", tau=10, ufr=0.042, alpha=0.1, epsilon=math.inf)
        # alpha and epsilon configure Smith-Wilson alone
        with pytest.raises(DomainError, match="M3 does not take alpha"):
            MethodSpec("M3", tau=10, ufr=0.042, alpha=math.inf)
        with pytest.raises(DomainError, match="M1 does not take alpha"):
            MethodSpec("M1", tau=10, ufr=0.042, alpha=-1e308)
        with pytest.raises(DomainError, match="M5_SFSA does not take epsilon"):
            MethodSpec("M5_SFSA", tau=10, kappa=20, ufr=0.042, epsilon=1e-4)
        with pytest.raises(DomainError, match="M4 does not take alpha"):
            MethodSpec("M4", tau=10, alpha=0.1)
        # kappa is M5's convergence point and the Smith-Wilson calibration's
        for kind, ufr in (("M1", 0.042), ("M2", None), ("M3", 0.042), ("M4", None)):
            with pytest.raises(DomainError, match=f"{kind} does not take kappa"):
                MethodSpec(kind, tau=10, ufr=ufr, kappa=30)

    def test_sw_spec_with_calibration_fields(self):
        spec = MethodSpec("M6_SW_continuous", tau=10, ufr=0.042, kappa=60, epsilon=1e-4)
        assert spec.alpha is None


class TestClosedFormMethods:
    def test_m3_flat_example(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR))
        assert ec.zero_yield(20.0) == pytest.approx(0.036, abs=1e-15)

    def test_m1_constant_yield_and_jump(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M1", tau=10.0, ufr=UFR))
        assert ec.zero_yield(10.0) == pytest.approx(0.03, abs=1e-15)
        assert ec.zero_yield(10.0 + 1e-9) == pytest.approx(UFR, abs=1e-15)
        assert ec.discount_factor(50.0) == pytest.approx(math.exp(-UFR * 50.0), rel=1e-14)

    def test_m2_power_identity(self):
        rng = np.random.default_rng(2)
        curve = random_curve(rng)
        ec = extrapolate(curve, MethodSpec("M2", tau=10.0))
        d_tau = curve.discount_factor(10.0)
        for t in (12.0, 30.0, 150.0):
            assert ec.zero_yield(t) == pytest.approx(curve.zero_yield(10.0), rel=1e-14)
            assert ec.discount_factor(t) == pytest.approx(d_tau ** (t / 10.0), rel=1e-12)

    def test_m4_constant_forward(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M4", tau=10.0))
        assert ec.forward_rate(50.0) == pytest.approx(0.03, abs=1e-15)
        assert ec.discount_factor(50.0) == pytest.approx(math.exp(-50 * 0.03), rel=1e-13)

    def test_m5_flat_at_ufr_is_fixed_point(self):
        curve = ForwardCurve.flat(UFR)
        ec = extrapolate(curve, MethodSpec("M5_SFSA", tau=10.0, kappa=20.0, ufr=UFR))
        ts = np.array([12.0, 17.5, 20.0, 25.0, 120.0])
        np.testing.assert_allclose(ec.zero_yield(ts), UFR, rtol=0, atol=1e-14)

    def test_m5_against_brute_force(self):
        # linear zero-yield curve: z = a + b t comes from the linear forward a + 2 b t
        a, b = 0.02, 0.0005
        curve = ForwardCurve.from_forwards([0.0, 200.0], [a, a + 2 * b * 200.0])
        spec = MethodSpec("M5_SFSA", tau=10.0, kappa=20.0, ufr=UFR)
        ec = extrapolate(curve, spec)
        for t in (15.0, 25.0):
            oracle = phased_yield_oracle(curve, 10.0, 20.0, UFR, t)
            assert ec.zero_yield(t) == pytest.approx(oracle, abs=1e-9)

    def test_m5_needs_market_data_to_kappa(self):
        short = ForwardCurve.flat(0.03, horizon=15.0)
        with pytest.raises(DomainError):
            extrapolate(short, MethodSpec("M5_SFSA", tau=10.0, kappa=20.0, ufr=UFR))

    def test_m6_reduces_to_m3_when_forward_hits_ufr(self):
        curve = ForwardCurve.flat(UFR)
        ec = extrapolate(curve, MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=0.1))
        d_tau = curve.discount_factor(10.0)
        for t in (15.0, 40.0, 190.0):
            assert ec.discount_factor(t) == pytest.approx(
                math.exp(-UFR * (t - 10.0)) * d_tau, rel=1e-14
            )
            assert ec.forward_rate(t) == pytest.approx(UFR, abs=1e-14)

    def test_m6_closed_form(self, flat3):
        spec = MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=0.1)
        ec = extrapolate(flat3, spec)
        t = 25.0
        u = t - 10.0
        factor = 1.0 + (UFR - 0.03) * (1.0 - math.exp(-0.1 * u)) / 0.1
        expected_d = math.exp(-UFR * u) * flat3.discount_factor(10.0) * factor
        assert ec.discount_factor(t) == pytest.approx(expected_d, rel=1e-14)
        expected_z = (
            (10.0 / t) * 0.03 + (1.0 - 10.0 / t) * UFR - math.log(factor) / t
        )
        assert ec.zero_yield(t) == pytest.approx(expected_z, rel=1e-14)

    def test_extension_domain_error(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR), horizon=200.0)
        with pytest.raises(DomainError):
            ec.zero_yield(200.5)


class TestContinuityInvariants:
    TAU = 10.0
    KAPPA = 20.0

    def specs(self):
        return [
            MethodSpec("M2", tau=self.TAU),
            MethodSpec("M3", tau=self.TAU, ufr=UFR),
            MethodSpec("M4", tau=self.TAU),
            MethodSpec("M5_SFSA", tau=self.TAU, kappa=self.KAPPA, ufr=UFR),
            MethodSpec("M6_SW_continuous", tau=self.TAU, ufr=UFR, alpha=0.1),
        ]

    def test_yield_continuous_at_tau(self):
        rng = np.random.default_rng(31)
        curve = random_curve(rng)
        for spec in self.specs():
            ec = extrapolate(curve, spec)
            below = ec.zero_yield(self.TAU - 1e-9)
            above = ec.zero_yield(self.TAU + 1e-9)
            assert abs(below - above) < 1e-10, spec.kind

    def test_m5_forward_continuous_at_tau_and_kappa(self, market_curve):
        ec = extrapolate(market_curve, MethodSpec("M5_SFSA", tau=self.TAU, kappa=self.KAPPA, ufr=UFR))
        assert abs(ec.forward_rate(self.TAU - 1e-9) - ec.forward_rate(self.TAU + 1e-9)) < 1e-10
        assert abs(ec.forward_rate(self.KAPPA - 1e-9) - ec.forward_rate(self.KAPPA + 1e-9)) < 1e-10

    def test_m5_forward_is_yield_derivative(self, market_curve):
        """d/dt (t zbar) recovers fbar inside both extension branches."""
        ec = extrapolate(market_curve, MethodSpec("M5_SFSA", tau=self.TAU, kappa=self.KAPPA, ufr=UFR))
        h = 1e-5
        for t in (12.0, 16.0, 19.0, 22.0, 60.0, 150.0):
            tz = lambda x: x * ec.zero_yield(x)
            numeric = (tz(t + h) - tz(t - h)) / (2 * h)
            assert numeric == pytest.approx(ec.forward_rate(t), abs=1e-6)

    def test_m6_forward_monotone_toward_ufr(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            curve = random_curve(rng, low=0.0, high=0.05)
            ec = extrapolate(curve, MethodSpec("M6_SW_continuous", tau=self.TAU, ufr=UFR, alpha=0.15))
            if ec.is_defective:
                continue
            ts = np.linspace(self.TAU + 1e-6, 200.0, 500)
            gap = ec.forward_rate(ts) - UFR
            assert np.all(gap * gap[0] >= -1e-18)  # no sign change
            assert np.all(np.diff(np.abs(gap)) <= 1e-12)  # monotone approach

    def test_offset_commutation(self):
        """With a constant offset c, discounting below tau picks up exp(-t c)."""
        rng = np.random.default_rng(41)
        curve = random_curve(rng)
        c = 0.001
        for spec in self.specs():
            shifted_spec = MethodSpec(
                spec.kind,
                tau=spec.tau,
                ufr=spec.ufr,
                kappa=spec.kappa,
                alpha=spec.alpha,
                offset=c,
            )
            ec = extrapolate(curve, shifted_spec)
            for t in (2.0, 7.5, 10.0):
                assert ec.discount_factor(t) == pytest.approx(
                    math.exp(-t * c) * curve.discount_factor(t), rel=1e-13
                )


class TestM5Blend:
    """M5's evaluations on (tau, kappa] take the market integrals from one
    segment search; they equal the blend composed of the market curve's
    public calls bit for bit."""

    TAU = 10.0
    KAPPA = 20.0

    def _reference_zero_yield(self, curve, s):
        eff, spec = curve.eff, curve.spec
        span = self.KAPPA - self.TAU
        w = self.TAU / s
        integral = eff.cumulative_time_weighted_yield(s) - curve._tz_tau
        return (
            (self.KAPPA - s) / span * eff.zero_yield(s)
            + integral / (s * span)
            + (s - self.TAU) / span * (1.0 - w) * spec.ufr / 2.0
        )

    @pytest.mark.parametrize("offset", [0.0, 0.001])
    def test_blend_equals_public_composition_bitwise(self, offset):
        rng = np.random.default_rng(53)
        z = random_curve(rng, n_nodes=40)
        spec = MethodSpec("M5_SFSA", tau=self.TAU, kappa=self.KAPPA, ufr=UFR, offset=offset)
        curve = extrapolate(z, spec)
        nodes = z.grid.nodes[(z.grid.nodes > self.TAU) & (z.grid.nodes <= self.KAPPA)]
        assert nodes.size
        times = np.concatenate(
            (nodes, [np.nextafter(self.TAU, np.inf), self.KAPPA], rng.uniform(self.TAU, self.KAPPA, 32))
        )
        for t in [*times.tolist(), times]:
            want_z = self._reference_zero_yield(curve, t)
            want_d = np.exp(-t * want_z)
            got_z, got_f, got_d = curve._evaluation(t)
            for got, want in (
                (curve.zero_yield(t), want_z),
                (got_z, want_z),
                (curve.discount_factor(t), want_d),
                (got_d, want_d),
                (got_f, curve.forward_rate(t)),
            ):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), t
        # the market side, below tau, is the market curve's own
        for t in z.grid.nodes[z.grid.nodes <= self.TAU]:
            assert curve.zero_yield(float(t)) == curve.eff.zero_yield(float(t))


class TestSwKernel:
    def test_zero_argument(self):
        for t in (0.5, 3.0, 80.0):
            assert sw_kernel(0.0, t, UFR, 0.1) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        s = rng.uniform(0.0, 60.0, size=200)
        t = rng.uniform(0.0, 60.0, size=200)
        np.testing.assert_array_equal(
            sw_kernel(s, t, UFR, 0.13), sw_kernel(t, s, UFR, 0.13)
        )

    def test_unit_value(self):
        # W(1,1) with zero damping and unit speed: 1 - e^{-1} sinh(1) = (1 + e^{-2}) / 2
        expected = 1.0 - math.exp(-1.0) * math.sinh(1.0)
        assert expected == pytest.approx(0.567667, abs=1e-6)
        assert sw_kernel(1.0, 1.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            sw_kernel(-1.0, 1.0, UFR, 0.1)
        with pytest.raises(DomainError):
            sw_kernel(1.0, 1.0, UFR, -0.1)


def _sw_kernel_dt_reference(t, nodes, ufr, alpha):
    """d/dt W(t, t_i) as one M x N matrix, each element from its own branch."""
    t = np.asarray(t, dtype=float)[..., None]
    ti = np.asarray(nodes, dtype=float)[None, :]
    lo = np.minimum(t, ti)
    hi = np.maximum(t, ti)
    k = alpha * lo - np.exp(-alpha * hi) * np.sinh(alpha * lo)
    # cosh(alpha t) of the branch t < t_i may overflow where the other is taken
    with np.errstate(over="ignore"):
        dk = np.where(
            t < ti,
            alpha * (1.0 - np.exp(-alpha * ti) * np.cosh(alpha * t)),
            alpha * np.exp(-alpha * t) * np.sinh(alpha * ti),
        )
    return np.exp(-ufr * (t + ti)) * (dk - ufr * k)


#: the closed form's error allowed, in ulps of the magnitude of the kernel terms
_SW_ULPS = 16


def _assert_twin_of_kernel_matrices(fit, t):
    """D = exp(-ufr t) + W(t, u) zeta to a few ulps of exp(-ufr t) + sum_j |zeta_j W_j|,
    and f = -D'/D to the error that D and D' so bounded give it."""
    eps = np.finfo(float).eps
    _, f, d = fit._evaluation(t)
    decay = np.exp(-fit.ufr * t)
    kern = sw_kernel(t[:, None], fit.nodes[None, :], fit.ufr, fit.alpha)
    dkern = _sw_kernel_dt_reference(t, fit.nodes, fit.ufr, fit.alpha)
    d_ref = decay + kern @ fit.zeta
    scale = decay + np.abs(kern) @ np.abs(fit.zeta)
    dprime_ref = -fit.ufr * decay + dkern @ fit.zeta
    dscale = abs(fit.ufr) * decay + np.abs(dkern) @ np.abs(fit.zeta)
    f_ref = -dprime_ref / d_ref
    assert np.all(np.abs(d - d_ref) <= _SW_ULPS * eps * scale)
    assert np.all(
        np.abs(f - f_ref) * np.abs(d_ref) <= _SW_ULPS * eps * (dscale + np.abs(f_ref) * scale)
    )


class TestFusedSwKernel:
    """The kernel sum of a discrete fit, fused into four cached prefix and
    suffix sums, against the whole M x N kernel matrices."""

    @pytest.fixture(scope="class")
    def fit(self):
        nodes = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
        prices = np.exp(-nodes * (0.02 + 0.001 * nodes))
        return sw_fit_discrete(nodes, prices, UFR, 0.1)

    @pytest.mark.parametrize(
        "t",
        [
            np.array([0.0]),
            np.array([0.25]),
            np.array([5.0]),
            np.array([150.0]),
            np.array([200.0]),
            # t = 0, below the first node, at every node, between and above them
            np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 2.5, 3.0, 5.0, 7.0, 9.99, 10.0, 10.01, 200.0]),
            np.arange(100_001) * 0.002,
        ],
        ids=["zero", "below-node", "at-node", "above-nodes", "horizon", "mixed", "scan-grid"],
    )
    def test_twin_of_separate_matrices(self, fit, t):
        _assert_twin_of_kernel_matrices(fit, t)

    def test_twin_of_random_fits(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 16))
            nodes = np.sort(rng.uniform(0.25, 30.0, n)) + 0.1 * np.arange(n)
            prices = np.exp(-nodes * rng.uniform(0.0, 0.05))
            fit = sw_fit_discrete(nodes, prices, rng.uniform(0.0, 0.06), rng.uniform(0.05, 1.0), 300.0)
            t = np.concatenate((np.linspace(0.0, 300.0, 20_001), nodes))
            _assert_twin_of_kernel_matrices(fit, t)

    def test_fast_reversion_far_horizon(self):
        """alpha = 1 to a horizon of 1,000: sinh(alpha t) would overflow past
        t = 710, but it is taken only before the last node."""
        nodes = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
        prices = np.exp(-nodes * (0.02 + 0.001 * nodes))
        fit = sw_fit_discrete(nodes, prices, UFR, 1.0, horizon=1000.0)
        t = np.linspace(0.0, 1000.0, 100_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fit._evaluation(t)
            scalars = [fit._evaluation(x) for x in (0.0, 5.0, 709.0, 711.0, 1000.0)]
            report = arbitrage_scan(fit, 0.01)
        assert all(np.isfinite(v).all() for v in values)
        assert np.isfinite(scalars).all()
        assert report.is_clean
        _assert_twin_of_kernel_matrices(fit, t)
        assert values[1][-1] == pytest.approx(UFR, abs=1e-15)

    @pytest.mark.parametrize(
        "block, size",
        [(2048, n) for n in (2047, 2048, 2049, 100_001)]
        + [(16, n) for n in (1, 2, 15, 16, 17, 33, 47, 500)],
    )
    def test_blocks_equal_whole_matrices(self, fit, block, size):
        """Blocks of times give the values of one pass over them all, bit for
        bit, in any order of times and with times on the nodes, in the first
        and last blocks; and each time alone, as a float, its value."""
        t = np.random.default_rng(size).uniform(0.0, 200.0, size)
        # t = 0 and the nodes at the start, around the end of the first block and at the end
        special = np.concatenate(([0.0], fit.nodes))
        for at in (0, max(min(block, size) - 4, 0), max(size - special.size, 0)):
            piece = t[at: at + special.size]
            piece[:] = special[: piece.size]
        whole = fit._evaluation(t)
        blocks = [fit._evaluation(t[i: i + block]) for i in range(0, size, block)]
        for j, values in enumerate(whole):
            assert np.array_equal(values, np.concatenate([b[j] for b in blocks]), equal_nan=True)
        for i in np.unique(np.linspace(0, size - 1, 40).astype(int)):
            alone = fit._evaluation(float(t[i]))
            assert all(isinstance(x, float) for x in alone)
            assert np.array_equal(alone, [v[i] for v in whole], equal_nan=True)

    def test_scan_values_equal_public_evaluations(self, fit):
        """The scan's one pass gives what the public methods give, its yield
        is -log(D)/t where D > 0 (t z is compared with -log(D), which the
        division by a small t would amplify) and its forward the kernel
        matrices' -D'/D."""
        ts = np.arange(100_001) * 0.002
        z, f, d = fit._evaluation(ts)
        assert np.array_equal(z, fit.zero_yield(ts))
        assert np.array_equal(f, fit.forward_rate(ts))
        assert np.array_equal(d, fit.discount_factor(ts))
        positive = (d > 0.0) & (ts > 0.0)
        np.testing.assert_allclose(
            z[positive] * ts[positive], -np.log(d[positive]), rtol=1e-13, atol=1e-15
        )
        assert z[0] == f[0]
        _assert_twin_of_kernel_matrices(fit, ts)


class TestSwDiscreteFit:
    def test_observation_on_prior_mean(self):
        fit = sw_fit_discrete([10.0], [math.exp(-UFR * 10.0)], UFR, 0.1)
        assert fit.zeta[0] == 0.0
        for t in (0.0, 5.0, 10.0, 50.0):
            assert fit.discount_factor(t) == pytest.approx(math.exp(-UFR * t), rel=1e-14)

    def test_single_zero_yield_bond_weight(self):
        """One bond at par pins zeta to its closed form."""
        t1, alpha = 10.0, 0.1
        fit = sw_fit_discrete([t1], [1.0], UFR, alpha)
        denom = alpha * t1 - math.exp(-alpha * t1) * math.sinh(alpha * t1)
        expected = math.exp(UFR * t1) * (math.exp(UFR * t1) - 1.0) / denom
        assert fit.zeta[0] == pytest.approx(expected, rel=1e-13)
        assert fit.discount_factor(t1) == pytest.approx(1.0, rel=1e-13)

    def test_node_reproduction_randomized(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            nodes = np.sort(rng.uniform(0.5, 25.0, size=5))
            nodes += np.arange(5) * 1e-3  # keep distinct
            curve = random_curve(rng, low=0.0, high=0.04)
            prices = curve.discount_factor(nodes)
            fit = sw_fit_discrete(nodes, prices, UFR, 0.12)
            np.testing.assert_allclose(
                fit.discount_factor(nodes), prices, rtol=1e-10, atol=0
            )

    def test_ill_conditioned_gram_rejected(self):
        with pytest.raises(CalibrationError, match="closest nodes"):
            sw_fit_discrete([1.0, 1.0 + 1e-12, 10.0], [0.99, 0.99, 0.9], UFR, 0.1)

    @pytest.mark.parametrize("ufr, alpha", [(UFR, 1000.0), (UFR, 2000.0), (-1000.0, 0.1)])
    def test_overflowing_gram_rejected_quietly(self, capfd, ufr, alpha):
        """sinh(alpha u) or exp(-ufr (s + t)) overflows: the fit raises before
        LAPACK sees a non-finite matrix, and nothing reaches fd 2."""
        nodes = [0.5, 1.0, 2.0, 5.0, 10.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="Gram matrix overflows"):
                sw_fit_discrete(nodes, [0.99, 0.98, 0.96, 0.9, 0.8], ufr, alpha)
        assert capfd.readouterr() == ("", "")

    def test_validation(self):
        with pytest.raises(DomainError):
            sw_fit_discrete([10.0], [-1.0], UFR, 0.1)
        with pytest.raises(DomainError):
            sw_fit_discrete([10.0, 5.0], [0.9, 0.95], UFR, 0.1)

    @pytest.mark.parametrize(
        "path, defective",
        [
            (pathlib.Path("sample_data") / "curve.csv", False),
            (pathlib.Path("tests") / "golden" / "bond_curve.csv", False),
            (pathlib.Path("tests") / "golden" / "steep_curve.csv", True),
        ],
        ids=["sample", "bond", "steep"],
    )
    def test_is_defective_past_the_last_node(self, path, defective):
        """A fit is defective unless the tail sign bound proves its discount
        factor positive past the last node; the scan agrees."""
        spec = MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1)
        fit = extrapolate(read_curve(str(SAMPLE_DATA.parent / path)), spec)
        assert fit.spec is spec and fit.is_defective is defective
        assert bool(arbitrage_scan(fit, step=0.25).nonpositive_discount) is defective
        assert sw_fit_discrete(fit.nodes, fit.prices, UFR, 0.1).spec is None

    def test_extrapolate_dispatch_uses_market_nodes(self):
        curve = ForwardCurve.from_zero_yields([5.0, 10.0], [0.02, 0.025])
        spec = MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1)
        fit = extrapolate(curve, spec)
        np.testing.assert_allclose(fit.nodes, [5.0, 10.0])
        np.testing.assert_allclose(
            fit.discount_factor(np.array([5.0, 10.0])),
            curve.discount_factor(np.array([5.0, 10.0])),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 9.5])
    def test_fit_rejects_unsampleable_horizon(self, horizon):
        """A fit is sampled on [0, horizon], so the horizon is finite and
        reaches the last node; an infinite one once built a fit whose scan
        raised OverflowError."""
        nodes, prices = [2.0, 5.0, 10.0], [0.96, 0.9, 0.8]
        with pytest.raises(DomainError, match="horizon must be finite and not precede the last node"):
            sw_fit_discrete(nodes, prices, UFR, 0.1, horizon=horizon)
        fit = sw_fit_discrete(nodes, prices, UFR, 0.1, horizon=10.0)
        assert arbitrage_scan(fit, 0.5).horizon == 10.0

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf, 9.5])
    def test_extrapolate_rejects_unsampleable_horizon(self, horizon):
        """The closed-form kinds' horizon rule: finite and not before tau."""
        curve = ForwardCurve.from_zero_yields([5.0, 10.0], [0.02, 0.025])
        spec = MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1)
        with pytest.raises(DomainError, match="horizon must be finite and not precede tau"):
            extrapolate(curve, spec, horizon)
        assert extrapolate(curve, spec, 10.0).horizon == 10.0


class TestDiscreteToContinuousConvergence:
    def test_error_halves_as_nodes_double(self, market_curve):
        """Dense fits on (0, tau] approach the continuous closed form."""
        tau, alpha = 10.0, 0.15
        spec = MethodSpec("M6_SW_continuous", tau=tau, ufr=UFR, alpha=alpha)
        cont = extrapolate(market_curve, spec)
        ts = np.linspace(tau + 0.25, 200.0, 760)
        reference = cont.discount_factor(ts)
        errors = []
        for n in (25, 50, 100, 200, 400):
            nodes = tau * np.arange(1, n + 1) / n
            prices = market_curve.discount_factor(nodes)
            fit = sw_fit_discrete(nodes, prices, UFR, alpha)
            errors.append(np.max(np.abs(fit.discount_factor(ts) - reference)))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors


class TestForwardAccessor:
    def test_dispatches_to_either_curve_flavor(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR))
        assert ec.forward_rate(50.0) == pytest.approx(UFR, abs=1e-15)
        fit = sw_fit_discrete([10.0], [math.exp(-UFR * 10.0)], UFR, 0.1)
        assert fit.forward_rate(30.0) == pytest.approx(UFR, rel=1e-12)


class TestShiftSuite:
    def test_reproducible_and_bounded(self):
        from curvehedge import shift_suite

        a = shift_suite(5, seed=9)
        b = shift_suite(5, seed=9)
        ts = np.linspace(0.0, 200.0, 401)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.delta_z(ts), s2.delta_z(ts))
            # at most five bumps of 100 bp each
            assert np.max(np.abs(s1.delta_forward.forward_rate(ts))) <= 0.05 + 1e-12

    def test_suite_size_checked_before_any_shift(self, monkeypatch):
        """A suite of too many nodes is rejected before it is built; 10^4
        shifts over the default horizon (4.01e6 nodes) are still built."""
        from curvehedge import shifts

        class Built(Exception):
            pass

        def building(rng, horizon):
            raise Built

        monkeypatch.setattr(shifts, "gaussian_bump_shift", building)
        for count, horizon in ((10**8, 200.0), (12_469, 200.0), (294_118, 8.0)):
            with pytest.raises(DomainError, match=f"more than {shifts.MAX_SUITE_NODES}"):
                shifts.shift_suite(count, 0, horizon)
        for count, horizon in ((10_000, 200.0), (12_468, 200.0), (294_117, 8.0)):
            with pytest.raises(Built):
                shifts.shift_suite(count, 0, horizon)


class TestAlphaCalibration:
    def test_boundary_returns_alpha_min(self, flat3):
        # generous tolerance: the criterion already holds at the lower bound
        alpha = sw_alpha_calibrate(flat3, 10.0, 60.0, UFR, epsilon=8e-3)
        assert alpha == 1e-4

    def test_forward_at_ufr_not_well_defined(self):
        curve = ForwardCurve.flat(UFR)
        with pytest.raises(AlphaNotWellDefinedError):
            sw_alpha_calibrate(curve, 10.0, 60.0, UFR, epsilon=1e-4)

    def test_generic_smallest_alpha(self, flat3):
        kappa, eps = 60.0, 1e-4
        alpha = sw_alpha_calibrate(flat3, 10.0, kappa, UFR, epsilon=eps)

        def miss(a):
            ec = extrapolate(flat3, MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=a))
            return abs(ec.forward_rate(kappa) - UFR)

        assert miss(alpha) <= eps
        assert miss(0.9 * alpha) > eps

    def test_unattainable_within_bounds(self, flat3):
        with pytest.raises(CalibrationError):
            sw_alpha_calibrate(flat3, 10.0, 10.5, UFR, epsilon=1e-4)


class TestCalibratingExtrapolate:
    """A Smith-Wilson spec without alpha: ``extrapolate`` calibrates it on the
    market curve the method sees, once, and the curve holds it fixed."""

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    @pytest.mark.parametrize("kind", ["M6_SW_continuous", "M6_SW_discrete"])
    def test_equals_the_curve_of_the_calibrated_alpha(self, market_curve, kind, offset):
        spec = MethodSpec(kind, tau=10.0, ufr=UFR, kappa=60.0, epsilon=1e-4, offset=offset)
        got = extrapolate(market_curve, spec)
        alpha = sw_alpha_calibrate(spec.market(market_curve), 10.0, 60.0, UFR, 1e-4)
        want = extrapolate(market_curve, replace(spec, alpha=alpha))
        assert got.spec == want.spec
        assert (got.spec.alpha, got.spec.kappa, got.spec.epsilon) == (alpha, 60.0, 1e-4)
        t = np.concatenate((np.linspace(0.0, 200.0, 801), [10.0, 60.0]))
        for a, b in zip(got._evaluation(t), want._evaluation(t)):
            assert a.tobytes() == b.tobytes()

    def test_stacked_market_needs_alpha(self, market_curve):
        ladder = market_curve.ray(random_shift(np.random.default_rng(5)))(np.array(EPS_SCHEDULE))
        for kind in ("M6_SW_continuous", "M6_SW_discrete"):
            spec = MethodSpec(kind, tau=10.0, ufr=UFR, kappa=60.0, epsilon=1e-4)
            with pytest.raises(DomainError, match="calibrated per market curve"):
                extrapolate(ladder, spec)

    def test_direct_curve_needs_alpha(self, market_curve):
        spec = MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, kappa=60.0, epsilon=1e-4)
        with pytest.raises(DomainError, match="extrapolate"):
            ExtrapolatedCurve(market_curve, spec)


class TestArbitrageScan:
    def test_m3_nonnegative_is_clean(self):
        rng = np.random.default_rng(53)
        curve = random_curve(rng, low=0.0, high=0.05)
        ec = extrapolate(curve, MethodSpec("M3", tau=10.0, ufr=UFR))
        assert arbitrage_scan(ec).is_clean

    def test_single_par_bond_fit_has_negative_short_forwards(self):
        fit = sw_fit_discrete([10.0], [1.0], UFR, 0.1, horizon=200.0)
        report = arbitrage_scan(fit, step=0.01)
        assert report.negative_forward
        start, _ = report.negative_forward[0]
        assert start < 0.02  # the defect sits right at the short end
        # discount factors rise above 1 near zero
        assert fit.discount_factor(0.5) > 1.0

    def test_m6_defective_discounts_detected(self, flat3):
        alpha = 0.1
        steep = ForwardCurve.from_forwards([0.0, 10.0, 200.0], [0.03, UFR + alpha + 0.01, UFR + alpha + 0.01])
        ec = extrapolate(steep, MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=alpha))
        assert ec.is_defective
        report = arbitrage_scan(ec)
        assert report.nonpositive_discount

    def test_report_json(self):
        fit = sw_fit_discrete([10.0], [1.0], UFR, 0.1)
        data = arbitrage_scan(fit, step=0.01).to_json()
        assert all({"kind", "start", "end"} <= set(item) for item in data)

    def test_step_validation(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR))
        with pytest.raises(DomainError):
            arbitrage_scan(ec, step=0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, flat3, step):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR))
        with pytest.raises(DomainError):
            arbitrage_scan(ec, step=step)

    def test_unallocatable_grid_rejected(self, flat3):
        ec = extrapolate(flat3, MethodSpec("M3", tau=10.0, ufr=UFR), 1e300)
        with pytest.raises(DomainError, match="exceeds"):
            arbitrage_scan(ec, step=0.25)

    def test_discrete_fit_where_discounts_underflow(self):
        """Far out, exp(-ufr t) and D fall below the normal floats while 1 + B
        stays near 1.23: the yield is ufr - log(1 + B)/t, the forward
        ufr - B'/(1 + B), and no discount factor counts as nonpositive."""
        market = read_curve(str(SAMPLE_DATA / "curve.csv"))
        fit = extrapolate(market, MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1), 20000.0)
        assert arbitrage_scan(fit, step=1.0).is_clean
        ts = np.array([17000.0, 17741.0, 17742.0, 19000.5, 20000.0])
        z, f, d = fit._evaluation(ts)
        assert np.all(d < sys.float_info.min) and d[-1] == 0.0
        # past the last node: 1 + B = 1 + sum c_j (alpha u_j - exp(-alpha t) sinh(alpha u_j))
        c = fit.zeta * np.exp(-UFR * fit.nodes)
        decay = np.exp(-fit.alpha * ts)[:, None]
        one_b = 1.0 + np.sum(c * (fit.alpha * fit.nodes - decay * np.sinh(fit.alpha * fit.nodes)), axis=1)
        db = fit.alpha * np.sum(c * decay * np.sinh(fit.alpha * fit.nodes), axis=1)
        np.testing.assert_allclose(z, UFR - np.log(one_b) / ts, rtol=1e-13)
        np.testing.assert_allclose(f, UFR - db / one_b, rtol=1e-13)
        for t, zt, ft in zip(ts.tolist(), z.tolist(), f.tolist()):
            assert fit.zero_yield(t) == zt and fit.forward_rate(t) == ft

    @pytest.mark.parametrize(
        "horizon, step",
        [(200.0, 200.0 / 39), (7.3, 0.004171428571428572)],
    )
    def test_grid_ends_at_the_horizon(self, horizon, step):
        # the last multiple of these steps rounds past the horizon
        assert math.floor(horizon / step) * step > horizon
        report = arbitrage_scan(ForwardCurve.flat(-0.01, horizon), step=step)
        assert report.negative_forward == ((0.0, horizon),)


def _unique_grid(horizon, step):
    """The sample grid as a sort of the clipped multiples and the horizon."""
    n = int(np.floor(horizon / step))
    return np.unique(np.concatenate((np.minimum(np.arange(n + 1) * step, horizon), [horizon])))


def _one_chunk_scan(curve, step):
    """The defect scan as one evaluation of the public methods over the whole grid."""
    ts = sample_grid(curve.horizon, step)
    f, d = curve.forward_rate(ts), curve.discount_factor(ts)
    return f < 0.0, d <= 0.0


def _scan_curves():
    market = ForwardCurve.from_forwards([0.0, 5.0, 20.0, 60.0], [0.01, 0.025, 0.03, 0.035])
    steep = ForwardCurve.from_forwards([0.0, 10.0, 200.0], [0.03, UFR + 0.11, UFR + 0.11])
    specs = [
        MethodSpec("M1", tau=10.0, ufr=UFR),
        MethodSpec("M2", tau=10.0),
        MethodSpec("M3", tau=10.0, ufr=UFR),
        MethodSpec("M4", tau=10.0),
        MethodSpec("M5_SFSA", tau=10.0, ufr=UFR, kappa=20.0),
        MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=0.1),
        MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1),
    ]
    curves = {"market": market}
    curves.update((spec.kind, extrapolate(market, spec)) for spec in specs)
    # defective: discount factors turn negative, and forwards with them
    curves["M6_SW_continuous-steep"] = extrapolate(steep, specs[5])
    curves["M6_SW_continuous-low-ufr"] = extrapolate(
        market, MethodSpec("M6_SW_continuous", tau=10.0, ufr=0.0, alpha=0.01)
    )
    curves["M6_SW_discrete-par-bond"] = sw_fit_discrete([10.0], [1.0], UFR, 0.1)
    # a curve per kind of piece whose sign bounds cannot clear it, so the
    # scan evaluates the grid there: a market forward below 0 before tau,
    dip = ForwardCurve.from_forwards([0.0, 3.0, 6.0, 20.0, 60.0], [0.01, -0.01, 0.02, 0.03, 0.035])
    curves["M3-market-dip"] = extrapolate(dip, specs[2])
    # and in M5's blend on (tau, kappa],
    blend_dip = ForwardCurve.from_forwards([0.0, 10.0, 12.0, 15.0, 60.0], [0.01, 0.02, -0.05, 0.03, 0.035])
    curves["M5_SFSA-blend-dip"] = extrapolate(blend_dip, specs[4])
    # a level below 0: a ufr, z(tau) and f(tau),
    for spec in (specs[0], specs[2]):
        curves[f"{spec.kind}-negative-ufr"] = extrapolate(market, replace(spec, ufr=-0.01))
    low = ForwardCurve.from_forwards([0.0, 5.0, 10.0, 60.0], [-0.01, -0.02, -0.01, 0.03])
    curves["M2-negative-z-tau"] = extrapolate(low, specs[1])
    drop = ForwardCurve.from_forwards([0.0, 5.0, 10.0, 60.0], [0.03, 0.02, -0.01, 0.03])
    curves["M4-negative-f-tau"] = extrapolate(drop, specs[3])
    # a Smith-Wilson forward whose end value, f(tau) = 0, lies inside the margin,
    flat_at_tau = ForwardCurve.from_forwards([0.0, 5.0, 10.0, 60.0], [0.02, 0.01, 0.0, 0.03])
    curves["M6_SW_continuous-zero-f-tau"] = extrapolate(flat_at_tau, specs[5])
    # and a discrete fit whose discount factor turns negative past its last node
    steep_fit = read_curve(str(pathlib.Path(__file__).resolve().parent / "golden" / "steep_curve.csv"))
    curves["M6_SW_discrete-steep"] = extrapolate(steep_fit, specs[6])
    return curves


SCAN_CURVES = _scan_curves()

#: a time of each fallback curve in a piece its sign bounds cannot clear
FALLBACK_TIMES = {
    "M3-market-dip": 4.0,
    "M5_SFSA-blend-dip": 13.0,
    "M1-negative-ufr": 100.0,
    "M3-negative-ufr": 100.0,
    "M2-negative-z-tau": 100.0,
    "M4-negative-f-tau": 100.0,
    "M6_SW_continuous-zero-f-tau": 100.0,
    "M6_SW_discrete-steep": 100.0,
}


class TestChunkedScan:
    @pytest.mark.parametrize("name", sorted(SCAN_CURVES))
    @pytest.mark.parametrize("chunk", [_SCAN_CHUNK, 2048, 4097])
    def test_equals_one_chunk(self, monkeypatch, name, chunk):
        curve = SCAN_CURVES[name]
        step = curve.horizon / 100_000
        monkeypatch.setattr(extrapolation_module, "_SCAN_CHUNK", chunk)
        report = arbitrage_scan(curve, step)
        negative, nonpositive = _one_chunk_scan(curve, step)
        ts = sample_grid(curve.horizon, step)
        assert ts.size > 10 * chunk
        assert report.negative_forward == extrapolation_module._mask_intervals(ts, negative)
        assert report.nonpositive_discount == extrapolation_module._mask_intervals(ts, nonpositive)

    def test_defective_curves_have_intervals(self):
        """The equality above is checked on scans that find something."""
        for name in (
            "M6_SW_continuous-steep", "M6_SW_continuous-low-ufr", "M6_SW_discrete-par-bond",
            "M3-market-dip", "M5_SFSA-blend-dip", "M1-negative-ufr", "M3-negative-ufr",
            "M2-negative-z-tau", "M4-negative-f-tau", "M6_SW_discrete-steep",
        ):
            assert not arbitrage_scan(SCAN_CURVES[name], 0.01).is_clean, name

    @pytest.mark.parametrize("name", sorted(FALLBACK_TIMES))
    def test_fallback_on_every_piece_kind(self, name):
        """The equality above is checked on a grid fallback of each kind of piece."""
        curve = SCAN_CURVES[name]
        ts = sample_grid(curve.horizon, curve.horizon / 100_000)
        at = np.searchsorted(ts, FALLBACK_TIMES[name])
        assert any(lo <= at < hi for lo, hi in _unproven_runs(ts, curve._sign_bounds()))

    @pytest.mark.parametrize("horizon", [200.0, 7.3, 1.0, 123.456])
    def test_sample_grid_equals_sorted_unique_form(self, horizon):
        steps = [horizon / k for k in range(1, 401)] + [200.0 / 39, 0.004171428571428572, 0.05, 0.002]
        for step in steps:
            grid = sample_grid(horizon, step)
            assert np.array_equal(grid, _unique_grid(horizon, step)), step
            assert grid[-1] == horizon


def _counting_evaluations(monkeypatch):
    """The sizes of the time arrays passed to an extrapolated curve's or a
    discrete fit's ``_evaluation`` from now on."""
    sizes = []
    for cls in (ExtrapolatedCurve, SwDiscreteFit):
        evaluate = cls._evaluation

        def counting(self, t, evaluate=evaluate):
            sizes.append(np.size(t))
            return evaluate(self, t)

        counting.body = evaluate.body
        monkeypatch.setattr(cls, "_evaluation", counting)
    return sizes


class TestBoundedScan:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_points_evaluated_on_sample_data(self, monkeypatch, kind):
        """On the bundled curve the sign bounds clear every glued kind's
        whole domain, and the discrete fit's past its last node."""
        market = read_curve(str(SAMPLE_DATA / "curve.csv"))
        curve = extrapolate(market, SCAN_CURVES[kind].spec)
        sizes = _counting_evaluations(monkeypatch)
        assert arbitrage_scan(curve, 0.002).is_clean
        if kind == "M6_SW_discrete":
            ts = sample_grid(curve.horizon, 0.002)
            assert sum(sizes) == np.searchsorted(ts, curve.nodes[-1], "right") == 5001
        else:
            assert sizes == []

    @pytest.mark.parametrize("stack", ["ufr-family", "ray-ladder"])
    def test_stacked_curve_rejected_before_the_grid(self, monkeypatch, market_curve, stack):
        if stack == "ufr-family":
            curve = extrapolate(market_curve, MethodSpec("M3", tau=10.0, ufr=UFR)).with_ufr([0.03, 0.04])
        else:
            curve = market_curve.ray(random_shift(np.random.default_rng(7)))(np.array([0.5, 1.0]))
        assert curve.rows == 2

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(extrapolation_module, "sample_grid", no_grid)
        with pytest.raises(DomainError, match="stacked"):
            arbitrage_scan(curve, 0.002)


def _random_spec(rng, kind):
    """A spec of ``kind`` at tau = 10 with a random ufr (below 0 at times),
    kappa and alpha, each where the kind takes it."""
    method = METHODS[kind]
    fields = {}
    if method.takes_ufr:
        fields["ufr"] = float(rng.uniform(-0.03, 0.08))
    if method.needs_kappa:
        fields["kappa"] = float(rng.uniform(11.0, 40.0))
    if method.smith_wilson:
        fields["alpha"] = float(rng.uniform(0.01, 0.5))
    return MethodSpec(kind, tau=10.0, **fields)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.sampled_from(ALL_KINDS))
def test_bounded_scan_equals_grid_scan(seed, kind):
    """On random markets, negative forwards allowed, the scan that skips the
    pieces its sign bounds clear reports what the whole grid shows."""
    rng = np.random.default_rng(seed)
    knots = np.unique(np.concatenate(([0.0, 10.0, 200.0], rng.integers(1, 60, size=6))))
    market = ForwardCurve.from_forwards(knots, rng.uniform(rng.uniform(-0.03, 0.01), 0.06, size=knots.size))
    curve = extrapolate(market, _random_spec(rng, kind))
    step = 0.05
    report = arbitrage_scan(curve, step)
    negative, nonpositive = _one_chunk_scan(curve, step)
    ts = sample_grid(curve.horizon, step)
    assert report.negative_forward == extrapolation_module._mask_intervals(ts, negative)
    assert report.nonpositive_discount == extrapolation_module._mask_intervals(ts, nonpositive)


class TestBranchOwnership:
    """Each time is evaluated only by the branch that owns it."""

    class _NoMarket:
        def __getattr__(self, name):
            def evaluate(*args, **kwargs):
                raise AssertionError(f"the market curve was asked for {name}")

            return evaluate

    @pytest.mark.parametrize("kind", ["M1", "M2", "M3", "M4", "M5_SFSA", "M6_SW_continuous"])
    def test_past_tau_never_reads_the_market(self, kind):
        ec = extrapolate(SCAN_CURVES["market"], SCAN_CURVES[kind].spec)
        # M5 blends the market forward into the ufr up to kappa
        start = ec.spec.kappa if kind == "M5_SFSA" else ec.spec.tau
        t = np.linspace(start, 200.0, 1001)[1:]
        expected = (ec.zero_yield(t), ec.forward_rate(t), ec.discount_factor(t), ec._evaluation(t))
        ec.eff = self._NoMarket()
        got = (ec.zero_yield(t), ec.forward_rate(t), ec.discount_factor(t), ec._evaluation(t))
        for a, b in zip(expected[:3] + expected[3], got[:3] + got[3]):
            assert np.array_equal(a, b)


class TestWithSpec:
    """A curve rebuilt for another spec from an extrapolated curve's
    ``base`` and ``horizon``, as M6's UFR bound is, is the curve
    ``extrapolate`` builds from the market curve, bit for bit: ``base``
    is the market curve before any offset."""

    TARGETS = {
        "M1": MethodSpec("M1", tau=10.0, ufr=UFR),
        "M2": MethodSpec("M2", tau=10.0),
        "M3": MethodSpec("M3", tau=10.0, ufr=UFR),
        "M4": MethodSpec("M4", tau=10.0),
        "M5_SFSA": MethodSpec("M5_SFSA", tau=10.0, kappa=20.0, ufr=UFR),
        "M6_SW_continuous": MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=0.1),
    }

    @staticmethod
    def _sources(offset):
        """Source specs: the same tau and offset, with the target's kappa or
        another; another tau or offset."""
        return [
            MethodSpec("M3", tau=10.0, ufr=0.05, offset=offset),
            MethodSpec("M5_SFSA", tau=10.0, kappa=20.0, ufr=0.03, offset=offset),
            MethodSpec("M5_SFSA", tau=10.0, kappa=25.0, ufr=UFR, offset=offset),
            MethodSpec("M3", tau=12.0, ufr=UFR, offset=offset),
            MethodSpec("M2", tau=10.0, offset=offset + 0.001),
        ]

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_equals_a_fresh_extrapolation(self, market_curve, kind, offset):
        spec = replace(self.TARGETS[kind], offset=offset)
        fresh = extrapolate(market_curve, spec)
        t = np.concatenate((np.linspace(0.0, 200.0, 801), [10.0, 20.0], np.linspace(9.0, 21.0, 97)))
        for source_spec in self._sources(offset):
            source = extrapolate(market_curve, source_spec)
            derived = extrapolate(source.base, spec, source.horizon)
            assert type(derived) is ExtrapolatedCurve and derived.spec == spec
            assert derived.horizon == fresh.horizon and derived.base is market_curve
            for name in ("z_tau", "f_tau", "d_tau", "_tz_tau", "_tz_kappa"):
                assert np.float64(getattr(derived, name)).tobytes() == np.float64(
                    getattr(fresh, name)
                ).tobytes(), name
            for a, b in zip(derived._evaluation(t), fresh._evaluation(t)):
                assert a.tobytes() == b.tobytes()

    def test_discrete_fit_and_validation(self, market_curve):
        source = extrapolate(market_curve, self.TARGETS["M3"])
        discrete = MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1)
        fit = extrapolate(source.base, discrete, source.horizon)
        assert fit.zeta.tobytes() == extrapolate(market_curve, discrete).zeta.tobytes()
        uncalibrated = MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, kappa=30.0, epsilon=1e-4)
        calibrated = extrapolate(source.base, uncalibrated, source.horizon)
        alpha = sw_alpha_calibrate(market_curve, 10.0, 30.0, UFR, 1e-4)
        fresh = extrapolate(market_curve, replace(uncalibrated, alpha=alpha))
        assert calibrated.spec == fresh.spec
        t = np.linspace(0.0, 200.0, 801)
        for got, want in zip(calibrated._evaluation(t), fresh._evaluation(t)):
            assert got.tobytes() == want.tobytes()
        short = ForwardCurve.from_forwards([0.0, 15.0], [0.02, 0.03])
        with pytest.raises(DomainError, match="kappa"):
            extrapolate(extrapolate(short, self.TARGETS["M3"]).base, self.TARGETS["M5_SFSA"])


class TestStackedMarket:
    """The extrapolation of a stacked market curve (the eps-ladder of a
    shift) is, row by row, the extrapolation of each of its curves."""

    SPECS = TestWithSpec.TARGETS

    @staticmethod
    def _ladders():
        rng = np.random.default_rng(41)
        z = random_curve(rng, low=0.0, high=0.04)
        return [(z, random_shift(rng)), (z, random_shift(rng, horizon=60.0))]  # the second is shorter

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_rows_equal_the_per_curve_extrapolations(self, kind, offset):
        spec = replace(self.SPECS[kind], offset=offset)
        flow = CashFlow(
            lumps=tuple((11.0 + 7.5 * k, 0.5 + 0.1 * k) for k in range(10)),
            densities=((12.0, 17.5, 0.2), (22.0, 90.0, 0.03)),
        )
        t = np.concatenate((np.linspace(0.0, 200.0, 801), [10.0, 20.0], np.linspace(9.0, 21.0, 97)))
        for z, shift in self._ladders():
            along = z.ray(shift)
            stacked = extrapolate(along(np.array(EPS_SCHEDULE)), spec)
            assert stacked.rows == len(EPS_SCHEDULE)
            values = present_value(stacked, flow)
            for i, e in enumerate(EPS_SCHEDULE):
                want = extrapolate(along(e), spec)
                for name in ("z_tau", "f_tau", "d_tau", "_tz_tau", "_tz_kappa"):
                    got = np.broadcast_to(getattr(stacked, name), (len(EPS_SCHEDULE), 1))[i, 0]
                    assert got.tobytes() == np.float64(getattr(want, name)).tobytes(), name
                for name in ("zero_yield", "forward_rate", "discount_factor"):
                    got = getattr(stacked, name)(t)
                    assert got.shape == (len(EPS_SCHEDULE), t.size)
                    assert got[i].tobytes() == getattr(want, name)(t).tobytes(), name
                    for s in (5.0, 10.0, 15.0, 20.0, 150.0):
                        assert getattr(stacked, name)(s)[i] == getattr(want, name)(s), (name, s)
                for got, expected in zip(stacked._evaluation(t), want._evaluation(t)):
                    assert got[i].tobytes() == expected.tobytes()
                assert values[i] == present_value(want, flow)


class TestUfrFamily:
    """A family along the ufr (``with_ufr``) is, row by row, the curve that
    ``extrapolate`` builds for each of its values."""

    SPECS = {kind: TestWithSpec.TARGETS[kind] for kind in ("M1", "M3", "M5_SFSA", "M6_SW_continuous")}
    #: the oracle's four values around UFR, and two far from it; at 0.01 the
    #: Smith-Wilson factor turns negative and its zero yields NaN
    THETAS = np.array([UFR + 4e-5, UFR - 4e-5, UFR + 2e-5, UFR - 2e-5, 0.01, 0.07])
    #: below tau, at tau, on (tau, kappa] and past kappa
    POINTS = (5.0, 10.0, 15.0, 20.0, 150.0)

    @classmethod
    def _families(cls, market, offset):
        """(family, the curve of each of its rows) for every kind with a ufr,
        and for the M1 family that the oracle varies for M2."""
        out = []
        for spec in cls.SPECS.values():
            curve = extrapolate(market, replace(spec, offset=offset))
            rows = [extrapolate(market, replace(curve.spec, ufr=theta)) for theta in cls.THETAS]
            out.append((curve.with_ufr(cls.THETAS), rows))
        level = extrapolate(market, MethodSpec("M2", tau=10.0, offset=offset))
        m1 = MethodSpec("M1", tau=10.0, ufr=level.z_tau, offset=offset)
        rows = [extrapolate(market, replace(m1, ufr=theta)) for theta in cls.THETAS]
        out.append((extrapolate(market, m1).with_ufr(cls.THETAS), rows))
        return out

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    def test_rows_equal_the_per_ufr_curves(self, market_curve, offset):
        t = np.concatenate((np.linspace(0.0, 200.0, 801), [10.0, 20.0], np.linspace(9.0, 21.0, 97)))
        below = np.linspace(0.0, 9.5, 20)
        for family, rows in self._families(market_curve, offset):
            assert family.rows == len(self.THETAS) and family.eff.rows is None
            for name in ("zero_yield", "forward_rate", "discount_factor"):
                evaluate = getattr(family, name)
                got = evaluate(t)
                assert got.shape == (family.rows, t.size)
                # the market side too gives every row its own C-ordered copy
                assert evaluate(below).flags.c_contiguous
                for i, row in enumerate(rows):
                    assert got[i].tobytes() == getattr(row, name)(t).tobytes(), name
                    for s in self.POINTS:
                        want = np.float64(getattr(row, name)(s))
                        assert evaluate(s)[i].tobytes() == want.tobytes(), (name, s)
                    assert evaluate(below)[i].tobytes() == getattr(row, name)(below).tobytes()
            for i, row in enumerate(rows):
                for got, want in zip(family._evaluation(t), row._evaluation(t)):
                    assert got[i].tobytes() == want.tobytes()
                for s in self.POINTS:
                    for got, want in zip(family._evaluation(s), row._evaluation(s)):
                        assert got[i].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    def test_present_value_rows(self, market_curve, offset):
        """Lumps and densities on both sides of tau and kappa."""
        flow = CashFlow(
            lumps=((4.0, 1.0), (10.0, 0.5), (15.0, 1.0), (40.0, 2.0)),
            densities=((2.0, 8.0, 0.1), (9.0, 12.5, 0.2), (18.0, 35.0, 0.1), (60.0, 90.0, 0.03)),
        )
        for family, rows in self._families(market_curve, offset):
            values = present_value(family, flow)
            assert values.shape == (len(rows),)
            for value, row in zip(values.tolist(), rows):
                assert value == present_value(row, flow)

    def test_family_contract(self, market_curve):
        curve = extrapolate(market_curve, self.SPECS["M3"])
        family = curve.with_ufr([0.03, 0.05])
        assert family.spec == curve.spec and family.eff is curve.eff
        assert family.ufr.shape == (2, 1) and curve.ufr == UFR
        # a family's market curve extrapolates to an ordinary curve again
        single = extrapolate(family.base, family.spec, family.horizon)
        assert single.rows is None and single.ufr == UFR
        assert single.zero_yield(50.0) == curve.zero_yield(50.0)
        # M2 and M4 vary their level as M1 and M3 vary the ufr, bit for bit
        t = np.concatenate((np.linspace(0.0, 200.0, 801), [10.0]))
        for level, pinned in (("M2", "M1"), ("M4", "M3")):
            family = extrapolate(market_curve, MethodSpec(level, tau=10.0)).with_ufr(self.THETAS)
            for i, theta in enumerate(self.THETAS):
                row = extrapolate(market_curve, MethodSpec(pinned, tau=10.0, ufr=theta))
                for got, want in zip(family._evaluation(t), row._evaluation(t)):
                    assert got[i].tobytes() == want.tobytes(), (level, theta)
        rng = np.random.default_rng(3)
        ladder = market_curve.ray(random_shift(rng))(np.array(EPS_SCHEDULE))
        with pytest.raises(DomainError, match="ufr family"):
            extrapolate(ladder, self.SPECS["M3"]).with_ufr([0.03])

    @pytest.mark.parametrize("offset", [0.0, 0.004])
    def test_level_is_the_market_anchor(self, market_curve, offset):
        """M2 holds z(tau) and M4 f(tau) as their level, also row by row of a stacked market."""
        rng = np.random.default_rng(5)
        ladder = market_curve.ray(random_shift(rng))(np.array(EPS_SCHEDULE))
        for market in (market_curve, ladder):
            m2 = extrapolate(market, MethodSpec("M2", tau=10.0, offset=offset))
            m4 = extrapolate(market, MethodSpec("M4", tau=10.0, offset=offset))
            assert np.float64(m2.ufr).tobytes() == np.float64(m2.z_tau).tobytes()
            assert np.float64(m4.ufr).tobytes() == np.float64(m4.f_tau).tobytes()
            # a curve rebuilt from another's market curve holds the level of its own spec
            rebuilt = extrapolate(m2.base, m4.spec, m2.horizon)
            assert np.float64(rebuilt.ufr).tobytes() == np.float64(m4.f_tau).tobytes()

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf])
    @pytest.mark.parametrize("kind", sorted(TestWithSpec.TARGETS))
    def test_non_finite_horizon_rejected(self, market_curve, kind, horizon):
        with pytest.raises(DomainError, match="horizon must be finite"):
            extrapolate(market_curve, TestWithSpec.TARGETS[kind], horizon)


# ---- the evaluation protocol shared by every curve class ---------------------


def _protocol_curves():
    market = ForwardCurve.from_forwards([0.0, 5.0, 20.0, 60.0], [0.01, 0.025, 0.03, 0.035])
    specs = [
        MethodSpec("M1", tau=10.0, ufr=UFR),
        MethodSpec("M2", tau=10.0),
        MethodSpec("M3", tau=10.0, ufr=UFR),
        MethodSpec("M4", tau=10.0),
        MethodSpec("M5_SFSA", tau=10.0, ufr=UFR, kappa=20.0),
        MethodSpec("M6_SW_continuous", tau=10.0, ufr=UFR, alpha=0.1),
        MethodSpec("M6_SW_discrete", tau=10.0, ufr=UFR, alpha=0.1),
    ]
    curves = {"ForwardCurve": market}
    curves.update((spec.kind, extrapolate(market, spec, horizon=100.0)) for spec in specs)
    return curves


PROTOCOL_CURVES = _protocol_curves()
MARKET_METHODS = (
    "forward_rate",
    "integrated_forward",
    "zero_yield",
    "discount_factor",
    "cumulative_time_weighted_yield",
)
EXTRAPOLATED_METHODS = ("forward_rate", "zero_yield", "discount_factor")
PROTOCOL_CASES = [
    (name, method)
    for name in PROTOCOL_CURVES
    for method in (MARKET_METHODS if name == "ForwardCurve" else EXTRAPOLATED_METHODS)
]


@pytest.mark.parametrize("name, method", PROTOCOL_CASES)
def test_evaluation_protocol(name, method):
    """Float in, float out; any shape in, that shape out; [0, horizon] enforced, NaN rejected."""
    evaluate = getattr(PROTOCOL_CURVES[name], method)
    horizon = PROTOCOL_CURVES[name].horizon
    assert type(evaluate(0.3 * horizon)) is float

    ts = np.linspace(0.0, horizon, 6).reshape(2, 3)
    out = evaluate(ts)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    np.testing.assert_array_equal(out, evaluate(ts.ravel()).reshape(2, 3))

    for bad in (-1e-9, horizon + 1e-9, math.nan, np.array([[0.0, 1.0], [2.0, 1.5 * horizon]])):
        with pytest.raises(DomainError):
            evaluate(bad)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CURVES))
def test_evaluation_triple(name):
    """``_evaluation`` keeps the protocol and equals the three public methods bit for bit."""
    curve = PROTOCOL_CURVES[name]
    horizon = curve.horizon
    ts = np.concatenate((np.linspace(0.0, horizon, 4001), [10.0, 20.0], np.linspace(9.0, 21.0, 97)))
    z, f, d = curve._evaluation(ts.reshape(2, -1))
    assert z.shape == f.shape == d.shape == (2, ts.size // 2)
    assert np.array_equal(z.ravel(), curve.zero_yield(ts), equal_nan=True)
    assert np.array_equal(f.ravel(), curve.forward_rate(ts), equal_nan=True)
    assert np.array_equal(d.ravel(), curve.discount_factor(ts))
    point = curve._evaluation(0.3 * horizon)
    assert all(type(x) is float for x in point)
    with pytest.raises(DomainError):
        curve._evaluation(horizon + 1e-9)
