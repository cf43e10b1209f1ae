"""Seeded suites of smooth random curve shifts.

Each shift perturbs the forward curve by a sum of at most five Gaussian
bumps with random centers, widths and amplitudes (capped at 100 bp),
sampled onto a half-year grid. Smooth bumps stay inside the
representable curve space and exercise genuinely non-parallel movements;
a fixed seed makes every suite reproducible.
"""

from __future__ import annotations

import numpy as np

from .curves import DEFAULT_HORIZON, MAX_SAMPLES, CurveShift
from .errors import DomainError

DEFAULT_GRID_STEP = 0.5
MAX_BUMPS = 5
MAX_AMPLITUDE = 0.01  # 100 bp
#: bump widths are drawn from [1, horizon / 8] years, so the shortest
#: horizon a suite can sample
MIN_HORIZON = 8.0
#: most half-year nodes a whole suite may hold (10^4 shifts over 200 years hold 4.01e6)
MAX_SUITE_NODES = 5 * MAX_SAMPLES


def gaussian_bump_shift(rng: np.random.Generator, horizon: float = DEFAULT_HORIZON) -> CurveShift:
    """One random smooth forward-curve shift."""
    ts = np.arange(0.0, horizon + 0.5 * DEFAULT_GRID_STEP, DEFAULT_GRID_STEP)
    ts[-1] = min(ts[-1], horizon)
    count = int(rng.integers(1, MAX_BUMPS + 1))
    values = np.zeros_like(ts)
    for _ in range(count):
        amplitude = rng.uniform(-MAX_AMPLITUDE, MAX_AMPLITUDE)
        center = rng.uniform(0.0, horizon)
        width = rng.uniform(1.0, horizon / 8.0)
        values += amplitude * np.exp(-0.5 * ((ts - center) / width) ** 2)
    return CurveShift.from_forward_values(ts, values)


def check_suite(count: int, seed: int, horizon: float):
    """Raise unless a suite of ``count`` shifts can be built from ``seed``
    over ``horizon``: at least one shift, a non-negative integer seed, and
    a horizon that is finite, at least ``MIN_HORIZON`` years and holds
    fewer than ``MAX_SAMPLES`` nodes of the half-year grid, for at most
    ``MAX_SUITE_NODES`` nodes in all."""
    if count < 1:
        raise DomainError("a shift suite needs at least one shift")
    if seed < 0:
        raise DomainError(f"a shift suite needs a non-negative seed, got {seed}")
    if not (np.isfinite(horizon) and horizon >= MIN_HORIZON):
        raise DomainError(
            f"a shift suite needs a finite horizon of at least {MIN_HORIZON:g} years, got {horizon}"
        )
    if not horizon / DEFAULT_GRID_STEP < MAX_SAMPLES:
        raise DomainError(
            f"horizon {horizon} exceeds {MAX_SAMPLES} shift nodes {DEFAULT_GRID_STEP:g} years apart"
        )
    # count times the length of gaussian_bump_shift's grid
    nodes = count * int(np.ceil((horizon + 0.5 * DEFAULT_GRID_STEP) / DEFAULT_GRID_STEP))
    if nodes > MAX_SUITE_NODES:
        raise DomainError(f"{count} shifts over horizon {horizon} hold {nodes} nodes, more than {MAX_SUITE_NODES}")


def shift_suite(count: int, seed: int, horizon: float = DEFAULT_HORIZON) -> list:
    """A reproducible list of random smooth shifts, checked by
    :func:`check_suite` before any is built."""
    check_suite(count, seed, horizon)
    rng = np.random.default_rng(seed)
    return [gaussian_bump_shift(rng, horizon) for _ in range(count)]
