import math

import numpy as np
import pytest

from curvehedge.errors import DomainError
from curvehedge.quadrature import _NODES, _WEIGHTS, adaptive_panels, gauss_panel, panel_antiderivatives


def test_polynomial_exact():
    # degree 9 is inside the 24-point rule's exactness range
    val = gauss_panel(lambda x: x**9 - 3 * x**4 + x, 0.0, 2.0)
    exact = 2.0**10 / 10 - 3 * 2.0**5 / 5 + 2.0
    assert abs(val - exact) < 1e-12


def test_panel_antiderivatives_of_degree_23_are_exact():
    """A degree-23 integrand is its own interpolant, so each panel's series
    is its antiderivative from the panel's start, and at the panel's end it
    is the panel's Gauss estimate."""
    legendre = np.polynomial.legendre
    rng = np.random.default_rng(3)
    a, b = np.array([0.0, 2.5, 10.0]), np.array([2.5, 10.0, 41.0])
    series = rng.normal(size=(3, 24))

    def func(x):
        panel = np.searchsorted(b, x)  # no node is a panel end
        xi = (2.0 * x - a[panel] - b[panel]) / (b[panel] - a[panel])
        return legendre.legval(xi, series[panel].T, tensor=False)

    got = panel_antiderivatives(func, a, b)
    want = 0.5 * (b - a)[:, None] * legendre.legint(series, lbnd=-1, axis=1)
    assert got.shape == (3, 25)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    ends = legendre.legval(np.ones(3), got.T, tensor=False)
    assert np.allclose(ends, gauss_panel(func, a, b), rtol=1e-14, atol=0.0)


def test_smooth_integral():
    val = adaptive_panels(np.exp, 0.0, 1.0)[2]
    assert abs(val - (math.e - 1.0)) < 1e-14


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    val = adaptive_panels(f, 0.0, 1.0, breakpoints=(0.3,))[2]
    assert abs(val - exact) < 1e-14


def test_kink_without_breakpoint_still_converges():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.3**2 / 2 + 0.7**2 / 2
    val = adaptive_panels(f, 0.0, 1.0, rel_tol=1e-12)[2]
    assert abs(val - exact) < 1e-10


def test_zero_width_and_bad_interval():
    assert adaptive_panels(np.exp, 1.0, 1.0)[2] == 0.0
    with pytest.raises(DomainError):
        adaptive_panels(np.exp, 1.0, 0.0)


def test_oscillatory_against_closed_form():
    val = adaptive_panels(lambda x: np.sin(3 * x) * np.exp(-x), 0.0, 10.0)[2]
    # antiderivative of sin(3x)e^{-x}: -(e^{-x}/10)(sin 3x + 3 cos 3x)
    F = lambda x: -(math.exp(-x) / 10.0) * (math.sin(3 * x) + 3 * math.cos(3 * x))
    assert abs(val - (F(10.0) - F(0.0))) < 1e-13


def _scalar_panel(func, a, b):
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * nodes
    return half * float(np.dot(weights, np.asarray(func(x), dtype=float)))


def _depth_first_reference(func, a, b, rel_tol=1e-12, breakpoints=(), max_depth=40):
    """The one-panel-at-a-time stack loop the level-by-level version replaced."""
    pts = [a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b]
    panels = [(pts[i], pts[i + 1], _scalar_panel(func, pts[i], pts[i + 1]), 0)
              for i in range(len(pts) - 1)]
    scale = sum(abs(p[2]) for p in panels) + 1e-300
    width = b - a
    total = 0.0
    stack = panels
    while stack:
        x, y, est, depth = stack.pop()
        mid = 0.5 * (x + y)
        left = _scalar_panel(func, x, mid)
        right = _scalar_panel(func, mid, y)
        refined = left + right
        err = abs(refined - est)
        if (
            err <= rel_tol * scale * (y - x) / width
            or err <= 1e-16 * scale
            or depth >= max_depth
        ):
            total += refined
        else:
            stack.append((x, mid, left, depth + 1))
            stack.append((mid, y, right, depth + 1))
    return total


_kink = lambda x: np.abs(x - 0.3)


@pytest.mark.parametrize(
    "func, b, kwargs",
    [
        (lambda x: np.sin(3 * x) * np.exp(-x), 10.0, {}),
        (_kink, 1.0, {}),
        (_kink, 1.0, {"breakpoints": (0.3,)}),
        (_kink, 1.0, {"rel_tol": 1e-15, "max_depth": 3}),
    ],
    ids=["smooth", "kink", "kink-breakpoint", "depth-capped"],
)
def test_bitwise_equal_to_depth_first_reference(func, b, kwargs):
    got = adaptive_panels(func, 0.0, b, **kwargs)[2]
    want = _depth_first_reference(func, 0.0, b, **kwargs)
    assert got == want


def test_one_func_call_per_level():
    calls = []

    def func(x):
        calls.append(x.size)
        return _kink(x)

    breakpoints = np.linspace(0.0, 1.0, 11)[1:-1]
    adaptive_panels(func, 0.0, 1.0, breakpoints=breakpoints, max_depth=40)
    panels = sum(calls) // 24
    assert len(calls) <= 40 + 2
    assert panels > 3 * len(calls)


def test_array_panels_match_scalar_calls():
    f = lambda x: np.exp(-0.03 * x) * np.cos(x)
    a = np.array([0.0, 0.5, 3.0, 7.25])
    b = np.array([0.5, 3.0, 7.25, 30.0])
    got = gauss_panel(f, a, b)
    assert got.shape == a.shape
    assert got.tolist() == [gauss_panel(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert got.tolist() == [_scalar_panel(f, x, y) for x, y in zip(a.tolist(), b.tolist())]


def _per_row_panels(func, a, b):
    """gauss_panel on panel arrays as it was written before one ``np.vecdot``
    reduced all panels: each row reduced by its own ``np.dot``."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    vals = np.asarray(func(x.ravel()), dtype=float).reshape(-1, _NODES.size)
    return half * np.array([np.dot(_WEIGHTS, row) for row in vals])


def test_panel_batches_match_per_row_dot_bitwise():
    """One np.vecdot per batch reduces each panel exactly as its own np.dot,
    for 1 to 300 panels whose values span 1e-20 to 1e20 in magnitude."""
    rng = np.random.default_rng(12)
    for n in range(1, 301):
        rows = 10.0 ** rng.uniform(-20.0, 20.0, size=(n, 1))
        table = rng.standard_normal((n, _NODES.size)) * rows * 10.0 ** rng.uniform(-3.0, 3.0, (n, _NODES.size))
        func = lambda x: table.ravel()
        a = np.sort(rng.uniform(0.0, 50.0, size=n))
        b = a + rng.uniform(1e-6, 5.0, size=n)
        assert gauss_panel(func, a, b).tobytes() == _per_row_panels(func, a, b).tobytes(), n


# ---- rows of integrands ---------------------------------------------------------

_EPS = np.finfo(float).eps

#: integrands whose refinement stops at different depths: a smooth one, two
#: kinks (one at a breakpoint-free point, one near the end), an oscillating
#: one and a zero one, which every panel's floor accepts at once
_ROW_FUNCS = (
    np.exp,
    _kink,
    lambda x: np.abs(x - 0.8) ** 1.5,
    lambda x: np.sin(40.0 * x),
    lambda x: 0.0 * x,
)


def _stacked(funcs):
    return lambda x: np.array([f(x) for f in funcs])


def _assert_rows_are_their_own_runs(funcs, a, b, **kwargs):
    lows, estimates, totals = adaptive_panels(_stacked(funcs), a, b, **kwargs)
    assert totals.shape == (len(funcs),)
    for r, func in enumerate(funcs):
        lo, est, total = adaptive_panels(func, a, b, **kwargs)
        assert lows[r].tobytes() == lo.tobytes(), r
        assert estimates[r].tobytes() == est.tobytes(), r
        assert totals[r : r + 1].tobytes() == np.float64(total).tobytes(), r
        want = _depth_first_reference(func, a, b, **kwargs)
        assert np.float64(total).tobytes() == np.float64(want).tobytes(), r
    return lows


class TestRows:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"breakpoints": (0.3, 0.55)}, {"rel_tol": 1e-15, "max_depth": 3}, {"max_depth": 0}],
        ids=["plain", "breakpoints", "depth-capped", "depth-0"],
    )
    def test_rows_equal_their_own_runs_bitwise(self, kwargs):
        lows = _assert_rows_are_their_own_runs(_ROW_FUNCS, 0.0, 1.0, **kwargs)
        if kwargs.get("max_depth", 40) > 0:
            assert len({lo.size for lo in lows}) > 1  # the rows stopped at different depths

    def test_zero_width_panels_and_the_depth_cap(self):
        """A row that is NaN at one point is never accepted before ``max_depth``:
        its panel there is bisected down to halves of no width, while the
        other rows stop at once."""
        a, b = 1.0, 1.0 + 8 * _EPS
        hole = lambda x: np.where(x == 1.0 + 3 * _EPS, np.nan, 1.0)
        funcs = (lambda x: 0.0 * x + 1.0, hole, lambda x: 2.0 * hole(x), np.exp)
        lows = _assert_rows_are_their_own_runs(funcs, a, b, max_depth=6)
        assert np.any(np.diff(lows[1]) == 0.0)  # zero-width halves were accepted
        assert lows[0].size < lows[1].size

    def test_one_row_is_the_one_dimensional_integral(self):
        func = lambda x: np.sin(3 * x) * np.exp(-x)
        lo, est, total = adaptive_panels(func, 0.0, 10.0)
        lows, estimates, totals = adaptive_panels(lambda x: func(x)[None, :], 0.0, 10.0)
        assert isinstance(total, float) and totals.shape == (1,)
        assert (lows[0].tobytes(), estimates[0].tobytes()) == (lo.tobytes(), est.tobytes())
        assert totals[0] == total

    def test_leading_axes_are_kept(self):
        funcs = _ROW_FUNCS[:4]
        _, _, flat = adaptive_panels(_stacked(funcs), 0.0, 1.0)
        _, _, square = adaptive_panels(lambda x: _stacked(funcs)(x).reshape(2, 2, -1), 0.0, 1.0)
        assert square.shape == (2, 2) and square.tobytes() == flat.tobytes()

    def test_one_func_call_per_level_for_all_rows(self):
        calls = []

        def func(x):
            calls.append(x.size)
            return _stacked(_ROW_FUNCS)(x)

        adaptive_panels(func, 0.0, 1.0)
        deepest = max(
            len(adaptive_panels(f, 0.0, 1.0)[0]) for f in _ROW_FUNCS
        )  # panels of the costliest row bound the levels
        assert len(calls) <= deepest + 1
