"""Adaptive Gauss-Legendre quadrature for piecewise-smooth integrands.

Integrands here are smooth between known breakpoints (curve grid nodes,
hedge boundaries), so the strategy is: split at the breakpoints first,
then bisect each panel until the two-half refinement agrees with the
single-panel estimate. A 24-point rule nails analytic panels at machine
precision in one or two levels.

Refinement is level by level, as in ``scipy.integrate.quad_vec``: every
panel pending at one bisection depth has both halves evaluated in a
single ``func`` call, and only the rejected panels go on to the next
depth. An integral therefore costs at most ``max_depth + 2`` calls of
``func``, however many panels it needs; the per-call overhead of curve
evaluation, not the arithmetic, is what dominates on small panels.

The result is bit-for-bit that of a depth-first, one-panel-at-a-time
loop, which the tests keep as a reference. Two rules make that hold:

- each panel is reduced by its own BLAS ``ddot``: one ``np.vecdot`` per
  batch of panels gives a 1-D ``np.dot`` per panel bit for bit, while a
  matrix product (``vals @ _WEIGHTS``, a gemv) or ``np.einsum``
  accumulates in a different order and moves panel sums by a few ulp;
- the segment scale is summed with the built-in ``sum`` in segment
  order, and the accepted panels are added with a plain ``+=`` fold in
  the order the depth-first loop accepted them, which is descending
  left endpoint.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)

#: relative tolerance of every integral the package takes; kept two
#: orders below the 1e-10 contract so quadrature noise stays far beneath
#: hedge-residual tolerances
REL_TOL = 1e-12


def gauss_panel(func, a, b):
    """24-point Gauss-Legendre estimate of the integral of ``func`` on [a, b].

    ``a`` and ``b`` are floats, or equal-shape arrays of panel ends; all
    panels are then evaluated in one ``func`` call on a flat array of
    points, and an array of estimates is returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    vals = np.asarray(func(x.ravel()), dtype=float).reshape(-1, _NODES.size)
    sums = np.vecdot(vals, _WEIGHTS).reshape(half.shape)
    out = half * sums
    return float(out) if out.ndim == 0 else out


def adaptive_gauss_legendre(
    func,
    a: float,
    b: float,
    rel_tol: float = REL_TOL,
    breakpoints=(),
    max_depth: int = 40,
) -> float:
    """Integrate a vectorized ``func`` over [a, b] to relative tolerance.

    ``breakpoints`` are interior points where the integrand may lose
    smoothness; panels never straddle them. The achieved error is bounded
    by roughly ``rel_tol`` times the total absolute panel mass.
    """
    return adaptive_panels(func, a, b, rel_tol, breakpoints, max_depth)[2]


def adaptive_panels(func, a, b, rel_tol=REL_TOL, breakpoints=(), max_depth=40):
    """Left ends and estimates, ascending, of the panels that tile [a, b], and
    their sum: the integral :func:`adaptive_gauss_legendre` returns."""
    if not np.isfinite(a) or not np.isfinite(b) or b < a:
        raise DomainError(f"bad integration interval [{a}, {b}]")
    if a == b:
        return np.empty(0), np.empty(0), 0.0

    pts = np.array([a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b])
    lo, hi = pts[:-1], pts[1:]
    est = gauss_panel(func, lo, hi)
    scale = sum(abs(e) for e in est.tolist()) + 1e-300
    width = b - a

    done_lo, done_hi, done = [], [], []
    for depth in itertools.count():
        mid = 0.5 * (lo + hi)
        halves = gauss_panel(func, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[: lo.size], halves[lo.size :]
        refined = left + right
        err = np.abs(refined - est)
        ok = (
            (err <= rel_tol * scale * (hi - lo) / width)
            | (err <= 1e-16 * scale)
            | (depth >= max_depth)
        )
        done_lo.append(lo[ok])
        done_hi.append(hi[ok])
        done.append(refined[ok])
        if ok.all():
            break
        bad = ~ok
        lo, hi = np.concatenate((lo[bad], mid[bad])), np.concatenate((mid[bad], hi[bad]))
        est = np.concatenate((left[bad], right[bad]))

    done_lo, done_hi, done = (np.concatenate(v) for v in (done_lo, done_hi, done))
    # ascending left end, the right end ordering the zero-width halves that
    # bisection makes at the resolution limit; summed in descending left
    # end, the order the depth-first loop accepted them in
    order = np.lexsort((done_hi, done_lo))
    total = 0.0
    for value in done[order[::-1]].tolist():
        total += value
    return done_lo[order], done[order], total
