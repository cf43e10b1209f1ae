"""Shared builders for randomized test inputs."""

import numpy as np
import pytest
from hypothesis import settings

from curvehedge import (
    CashFlow,
    CurveShift,
    ForwardCurve,
    extrapolate,
    method_variation_pv,
    numeric_variation,
    present_value,
)

#: property tests are part of tier-1, so they run the same examples every
#: time and keep no example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def random_curve(rng, horizon=200.0, low=-0.005, high=0.05, n_nodes=12):
    """A random segment-wise linear forward curve on [0, horizon]."""
    interior = np.sort(rng.uniform(0.5, horizon - 0.5, size=n_nodes - 2))
    times = np.concatenate(([0.0], interior, [horizon]))
    values = rng.uniform(low, high, size=times.size)
    return ForwardCurve.from_forwards(times, values)


def random_lump_flow(rng, lo, hi, max_lumps=6, min_lumps=1):
    """Random positive lump portfolio supported strictly inside (lo, hi]."""
    count = int(rng.integers(min_lumps, max_lumps + 1))
    times = rng.uniform(lo + 1e-6, hi, size=count)
    amounts = rng.uniform(0.2, 2.0, size=count)
    return CashFlow(lumps=tuple(zip(times, amounts)))


def random_shift(rng, horizon=200.0, amplitude=0.01):
    """A smooth random shift: a few Gaussian bumps in the forward curve."""
    ts = np.arange(0.0, horizon + 0.25, 0.5)
    values = np.zeros_like(ts)
    for _ in range(int(rng.integers(1, 6))):
        a = rng.uniform(-amplitude, amplitude)
        c = rng.uniform(0.0, horizon)
        w = rng.uniform(1.0, 25.0)
        values += a * np.exp(-0.5 * ((ts - c) / w) ** 2)
    return CurveShift.from_forward_values(ts, values)


def variation_report(spec, z, shift, flow):
    """The closed-form first variation of the liability value,
    ``method_variation_pv``, against its finite-difference twin."""

    def functional(curve):
        return present_value(extrapolate(curve, spec), flow)

    analytic = method_variation_pv(extrapolate(z, spec), shift, flow)
    return numeric_variation(functional, z, shift, analytic=analytic)


@pytest.fixture
def market_curve():
    """A smooth upward-sloping market curve out to the full horizon."""
    ts = np.linspace(0.0, 200.0, 81)
    f = 0.02 + 0.015 * (1.0 - np.exp(-ts / 4.0))
    return ForwardCurve.from_forwards(ts, f)


@pytest.fixture
def flat3():
    return ForwardCurve.flat(0.03, horizon=200.0)
