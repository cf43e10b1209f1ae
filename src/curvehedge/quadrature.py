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

An integrand may return rows of values, one integral per row (the
scenarios of a stacked curve): every row is evaluated on the union of
the panels pending in any row, in one ``func`` call per depth.

The result is bit-for-bit that of a depth-first, one-panel-at-a-time
loop, which the tests keep as a reference. Three rules make that hold:

- each panel is reduced by its own BLAS ``ddot``: one ``np.vecdot`` per
  batch of panels gives a 1-D ``np.dot`` per panel bit for bit, while a
  matrix product (``vals @ _WEIGHTS``, a gemv) or ``np.einsum``
  accumulates in a different order and moves panel sums by a few ulp;
- the segment scale is summed with the built-in ``sum`` in segment
  order, and the accepted panels are added with a plain ``+=`` fold in
  the order the depth-first loop accepted them, which is descending
  left endpoint;
- rows of a batch are independent: each has its own scale, its own
  accept test and its own fold over the panels it accepted, and the
  panels a row does not need are evaluated but never read, so each row
  is bit for bit the integral of that row alone.

A running integral inside a panel reads the Legendre series of the
antiderivative of the integrand's interpolant at the panel's 24 nodes
(:func:`panel_antiderivatives`), so it evaluates no integrand per query.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def _antiderivative_matrix():
    """The 25 x 24 map from a function's values at the 24 nodes to the
    Legendre coefficients of the antiderivative, zero at -1, of their
    degree-23 interpolant on [-1, 1]. The interpolant's coefficients are
    c_k = (k + 1/2) sum_j w_j P_k(x_j) f_j, exact because the rule
    integrates P_k P_n exactly for k + n < 48; ``legint`` integrates the
    series. Its value at 1 is the rule's estimate, sum_j w_j f_j."""
    transform = (np.arange(24) + 0.5)[:, None] * np.polynomial.legendre.legvander(_NODES, 23).T * _WEIGHTS
    return np.polynomial.legendre.legint(transform, lbnd=-1, axis=0)


_ANTIDERIVATIVE = _antiderivative_matrix()

#: relative tolerance of every integral the package takes; kept two
#: orders below the 1e-10 contract so quadrature noise stays far beneath
#: hedge-residual tolerances
REL_TOL = 1e-12


def gauss_panel(func, a, b):
    """24-point Gauss-Legendre estimate of the integral of ``func`` on [a, b].

    ``a`` and ``b`` are floats, or equal-shape arrays of panel ends; all
    panels are then evaluated in one ``func`` call on a flat array of
    points, and an array of estimates is returned. Leading axes of the
    values (rows of integrands) lead the estimates too.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    vals = np.asarray(func(x.ravel()), dtype=float)
    sums = np.vecdot(vals.reshape(vals.shape[:-1] + x.shape), _WEIGHTS)
    out = half * sums
    return float(out) if out.ndim == 0 else out


def panel_antiderivatives(func, a, b):
    """The antiderivative of ``func`` on each panel [a[k], b[k]] from one
    ``func`` call on the panels' 24 Gauss nodes: row k holds the 25
    Legendre coefficients, in xi = (2 t - a[k] - b[k]) / (b[k] - a[k]), of
    the integral from a[k] to t of the degree-23 interpolant of ``func``
    at the nodes. Row k at xi = 1 is :func:`gauss_panel` on that panel up
    to roundoff. ``func`` returns one value per point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    vals = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    return half[:, None] * (vals @ _ANTIDERIVATIVE.T)


def adaptive_panels(func, a, b, rel_tol=REL_TOL, breakpoints=(), max_depth=40):
    """Integrate a vectorized ``func`` over [a, b] to relative tolerance:
    the left ends and estimates, ascending, of the panels that tile
    [a, b], and their sum, the integral.

    ``breakpoints`` are interior points where the integrand may lose
    smoothness; panels never straddle them. The achieved error is bounded
    by roughly ``rel_tol`` times the total absolute panel mass.

    When ``func`` returns rows of values (leading axes before the points),
    each row is integrated on its own panels: the result is then a list of
    left ends and a list of estimates, one per row, and an array of sums.
    """
    if not np.isfinite(a) or not np.isfinite(b) or b < a:
        raise DomainError(f"bad integration interval [{a}, {b}]")
    if a == b:
        return np.empty(0), np.empty(0), 0.0

    pts = np.array([a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b])
    lo, hi = pts[:-1], pts[1:]
    est = gauss_panel(func, lo, hi)
    row_shape = est.shape[:-1]
    est = est.reshape(-1, lo.size)
    scale = [sum(map(abs, row)) + 1e-300 for row in est.tolist()]
    # a float for one integral, a column of one per row for rows of them
    scale = np.array(scale)[:, None] if row_shape else scale[0]
    width = b - a

    # pending[r, j]: row r still needs panel j, from lo[j] to hi[j]; the
    # panels are those that some row needs, at first all of them by all
    pending = True
    done = []
    for depth in itertools.count():
        mid = 0.5 * (lo + hi)
        halves = gauss_panel(func, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        halves = halves.reshape(len(est), 2, lo.size)
        refined = halves[:, 0] + halves[:, 1]
        err = np.abs(refined - est)
        ok = (err <= rel_tol * scale * (hi - lo) / width) | (err <= 1e-16 * scale)
        if depth >= max_depth:
            ok[...] = True
        done.append((lo, hi, refined, pending & ok))
        pending = pending > ok  # pending and not accepted
        if not pending.any():
            break
        bad = np.logical_or.reduce(pending)
        lo, hi = np.concatenate((lo[bad], mid[bad])), np.concatenate((mid[bad], hi[bad]))
        # the halves of the panels still needed: left ones, then right ones
        est = halves[:, :, bad].reshape(len(est), -1)
        if len(est) > 1:  # a single row needs every panel still pending
            pending = pending[:, bad]
            pending = np.concatenate((pending, pending), axis=1)
        else:
            pending = True

    if len(done) == 1:  # the common case, which concatenating would copy
        done_lo, done_hi, values, accepted = done[0]
    else:
        done_lo, done_hi, values, accepted = (np.concatenate(p, axis=-1) for p in zip(*done))
    # ascending left end, the right end ordering the zero-width halves that
    # bisection makes at the resolution limit; a row's own panels in the
    # order of one stable sort of all of them, as sorting them alone gives
    order = np.lexsort((done_hi, done_lo))
    out = []
    for row_values, mask in zip(values, accepted):
        own = order[mask[order]]
        row_values = row_values[own]
        # summed in descending left end, the order the depth-first loop
        # accepted them in
        total = 0.0
        for value in row_values[::-1].tolist():
            total += value
        out.append((done_lo[own], row_values, total))
    if not row_shape:
        return out[0]
    lows, estimates, totals = zip(*out)
    return list(lows), list(estimates), np.reshape(totals, row_shape)
