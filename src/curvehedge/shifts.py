"""Seeded suites of smooth random curve shifts.

Each shift perturbs the forward curve by a sum of at most five Gaussian
bumps with random centers, widths and amplitudes (capped at 100 bp),
sampled onto a half-year grid. Smooth bumps stay inside the
representable curve space and exercise genuinely non-parallel movements;
a fixed seed makes every suite reproducible.
"""

from __future__ import annotations

import numpy as np

from .curves import DEFAULT_HORIZON, CurveShift
from .errors import DomainError

DEFAULT_GRID_STEP = 0.5
MAX_BUMPS = 5
MAX_AMPLITUDE = 0.01  # 100 bp


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


def shift_suite(count: int, seed: int, horizon: float = DEFAULT_HORIZON) -> list:
    """A reproducible list of random smooth shifts."""
    if count < 1:
        raise DomainError("a shift suite needs at least one shift")
    rng = np.random.default_rng(seed)
    return [gaussian_bump_shift(rng, horizon) for _ in range(count)]
