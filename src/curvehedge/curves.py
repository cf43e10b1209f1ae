"""Curve and cash-flow data model with discounting analytics.

Conventions
-----------
- Time is measured in years from the valuation date; a curve lives on
  [0, T] where T is the last node of its grid (the horizon, 200 by
  default for full-length curves).
- Rates are continuously compounded, per year, in decimals.
- The canonical curve stores the instantaneous forward rate f as a
  segment-wise linear function on the grid. Zero yields are derived,
  z(t) = (1/t) * int_0^t f(s) ds, with z(0) := f(0) by continuity, so
  t*z(t) is differentiable inside every segment with derivative f(t).
  Forwards may jump at nodes (curves bootstrapped from zero yields have
  piecewise constant forwards); z is continuous regardless.
- Cash flows are finite collections of lump payments plus piecewise
  constant payment densities. The cumulative payment function is of
  bounded variation by construction.

All objects are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UndefinedDurationError
from .quadrature import adaptive_panels, gauss_panel

DEFAULT_HORIZON = 200.0

#: most points a time grid built from a step (a sample grid, a defect scan,
#: a shift's nodes) may hold: ten times a 0.002-year scan over the default
#: horizon
MAX_SAMPLES = 1_000_000


class TimeGrid:
    """Strictly increasing time nodes starting at 0; the last node is the horizon.

    ``inner`` lists the interior nodes as floats, for ``bisect``.
    """

    __slots__ = ("nodes", "inner")

    def __init__(self, nodes):
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("a time grid needs at least 2 nodes")
        if arr[0] != 0.0:
            raise DomainError("a time grid must start at 0")
        if not np.all(np.isfinite(arr)) or not np.all(np.diff(arr) > 0):
            raise DomainError("time grid nodes must be finite and strictly increasing")
        arr.setflags(write=False)
        self.nodes = arr
        self.inner = arr[1:-1].tolist()

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def __repr__(self):
        return f"TimeGrid({len(self.nodes)} nodes, horizon={self.horizon})"


def _as_array(t):
    """A float time as it is and anything else as a float array, with whether
    the result goes back as a float; a float then takes the array's
    expressions on floats and gives its value bit for bit, as under
    :func:`evaluation`."""
    if isinstance(t, float):
        return t, True
    arr = np.asarray(t, dtype=float)
    return arr, (arr.ndim == 0)


def _clipped(t, hi):
    return min(t, hi) if isinstance(t, float) else np.minimum(t, hi)


def evaluation(body):
    """The curve-evaluation protocol, around a body that maps times to values.

    The method takes a float or an array of any shape and checks once
    that it lies in [0, horizon]. A float (Python or ``np.float64``) goes
    to ``body`` as it is and comes back as a float, or a tuple of floats;
    anything else goes as a flat float array and comes back in its shape
    (a float for a 0-d input). A body maps a float and an array through
    the same numpy expressions (never ``**`` or ``math`` on a float, which
    round otherwise), so a float gives the value of a one-element array
    bit for bit. A method calling another of its own class calls that
    method's ``body``, so one public call checks its domain once.

    A stacked curve (``rows`` is the number of its scenarios, None for an
    ordinary curve) gives a leading axis of one row per scenario: values
    of shape ``(rows,) + shape(t)``, and ``(rows,)`` for a float time,
    which goes to its body as a one-element array.
    """

    @functools.wraps(body)
    def method(self, t, *args, **kwargs):
        if isinstance(t, float) and self.rows is None:
            # written so that a NaN time fails it too
            if not 0.0 <= t <= self.horizon:
                raise DomainError(f"time outside curve domain [0, {self.horizon}]")
            out = body(self, t, *args, **kwargs)
            return tuple(map(float, out)) if isinstance(out, tuple) else float(out)
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1)
        if flat.size and not (flat.min() >= 0.0 and flat.max() <= self.horizon):
            raise DomainError(f"time outside curve domain [0, {self.horizon}]")
        return _shaped(body(self, flat, *args, **kwargs), arr)

    method.body = body
    return method


def _shaped(out, arr):
    """A body's flat result (or tuple of them) as a float or in the shape of
    the times ``arr``, after the scenario axis of a stacked curve."""
    if isinstance(out, tuple):
        return tuple(_shaped(o, arr) for o in out)
    if out.ndim == 1:
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
    return out.reshape(out.shape[:-1] + arr.shape)


class ForwardCurve:
    """Segment-wise linear instantaneous forward curve.

    ``f_left[i]`` and ``f_right[i]`` are the forward values at the two
    ends of segment [nodes[i], nodes[i+1]]; the forward rate may jump at
    the nodes. Cumulative integrals of f (and of t*z(t)) are cached at
    the nodes and evaluated in closed form inside segments, so discount
    factors carry no quadrature error.

    ``quote_nodes`` are the times the curve was quoted at: its grid nodes,
    unless it was derived from another curve by :meth:`ray` or
    :meth:`with_constant_added`, which keep the source curve's quote nodes
    (a shift adds its own nodes to the grid, not to the quotes).

    Forward arrays of shape ``(S, n)`` make a stacked curve: S scenarios
    on one grid, ``rows`` = S, evaluated together (see :func:`evaluation`).
    Every operation runs along the last axis, so each row is bit for bit
    the curve built from that row alone.
    """

    __slots__ = ("grid", "f_left", "f_right", "quote_nodes", "rows", "_row_ids", "_cum_f", "_cum_tz")

    def __init__(self, grid: TimeGrid, f_left, f_right, quote_nodes=None):
        fl = np.asarray(f_left, dtype=float)
        fr = np.asarray(f_right, dtype=float)
        n = len(grid.nodes) - 1
        if fl.shape != fr.shape or fl.ndim not in (1, 2) or fl.shape[-1] != n:
            raise DomainError("forward values must match the grid segment count")
        fl.setflags(write=False)
        fr.setflags(write=False)
        self.grid = grid
        self.quote_nodes = grid.nodes if quote_nodes is None else quote_nodes
        self.f_left = fl
        self.f_right = fr
        self.rows = None if fl.ndim == 1 else fl.shape[0]
        # the bodies read a stacked curve's arrays at (_row_ids, segment): every
        # row's value there, a C-ordered (rows, times) array (a column for a
        # float time); [..., segment] would give its transpose, whose rows
        # numpy reduces in another order than a single curve's values
        self._row_ids = None if self.rows is None else np.arange(self.rows)[:, None]
        h = np.diff(grid.nodes)
        start = np.zeros(fl.shape[:-1] + (1,))
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.concatenate((start, np.cumsum(h * 0.5 * (fl + fr), axis=-1)), axis=-1)
            slope = (fr - fl) / h
            inc = cum[..., :-1] * h + 0.5 * fl * h * h + slope * h**3 / 6.0
            cum_tz = np.concatenate((start, np.cumsum(inc, axis=-1)), axis=-1)
        # a running sum that meets an infinity or a NaN ends non-finite, so
        # the last nodes check the forwards and both integrals at once
        if not (np.isfinite(cum[..., -1]).all() and np.isfinite(cum_tz[..., -1]).all()):
            raise DomainError("forward values and their integrals must be finite")
        cum.setflags(write=False)
        cum_tz.setflags(write=False)
        self._cum_f = cum  # int_0^node f, exact for linear segments
        self._cum_tz = cum_tz  # int_0^node of (s*z_s) = int of int f

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_forwards(cls, times, values) -> "ForwardCurve":
        """Continuous piecewise-linear forward curve through (times, values).

        A leading node at 0 is added with a flat value when absent.
        """
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or t.size == 0:
            raise DomainError("times and forward values must be equal-length 1-d arrays")
        if t[0] != 0.0:
            t = np.concatenate(([0.0], t))
            v = np.concatenate(([v[0]], v))
        if t.size < 2:
            raise DomainError("need at least one segment; give a horizon node")
        grid = TimeGrid(t)
        return cls(grid, v[:-1], v[1:])

    @classmethod
    def from_zero_yields(cls, times, yields) -> "ForwardCurve":
        """Curve reproducing the given zero yields exactly at the given times.

        t*z(t) is interpolated linearly between the input nodes (and from
        the origin to the first node), which makes the forward rate
        piecewise constant and keeps it bounded.
        """
        t = np.asarray(times, dtype=float)
        z = np.asarray(yields, dtype=float)
        if t.shape != z.shape or t.ndim != 1 or t.size == 0:
            raise DomainError("times and yields must be equal-length 1-d arrays")
        if np.any(t <= 0.0):
            raise DomainError(
                "zero-yield input times must be positive; z(0) follows by continuity"
            )
        nodes = np.concatenate(([0.0], t))
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects an overflow
            tz = np.concatenate(([0.0], t * z))
            slopes = np.diff(tz) / np.diff(nodes)
        grid = TimeGrid(nodes)
        return cls(grid, slopes, slopes.copy())

    @classmethod
    def flat(cls, rate: float, horizon: float = DEFAULT_HORIZON) -> "ForwardCurve":
        return cls.from_forwards([0.0, horizon], [rate, rate])

    # ---- evaluation -------------------------------------------------------

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def _segment_index(self, t, side: str):
        """Segment of each t in [0, horizon]: the last one starting at or
        before t (``side='right'``) or strictly before it (``'left'``).

        Searching the interior nodes only keeps t = 0 in the first
        segment and t = horizon in the last without clipping.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if isinstance(t, float):
            find = bisect.bisect_right if side == "right" else bisect.bisect_left
            return find(self.grid.inner, t)
        return np.searchsorted(self.grid.nodes[1:-1], t, side=side)

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        """Instantaneous forward rate, right-continuous at nodes by default.

        ``side='left'`` returns the left limit (the value carried by the
        segment ending at t), which is what 'the forward at the last
        liquid point' means for a curve whose data stop there.
        """
        idx = self._segment_index(t, side)
        k = idx if self.rows is None else (self._row_ids, idx)
        a = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - a
        w = (t - a) / h
        return self.f_left[k] * (1.0 - w) + self.f_right[k] * w

    @evaluation
    def integrated_forward(self, t):
        """int_0^t f(s) ds, exact per segment. Equals t*z(t)."""
        idx = self._segment_index(t, "right")
        k = idx if self.rows is None else (self._row_ids, idx)
        a = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - a
        w = t - a
        slope = (self.f_right[k] - self.f_left[k]) / h
        return self._cum_f[k] + self.f_left[k] * w + 0.5 * slope * w * w

    @evaluation
    def zero_yield(self, t):
        """z(t) = (1/t) int_0^t f; z(0) = f(0)."""
        return self._yield_of(ForwardCurve.integrated_forward.body(self, t), t)

    def _yield_of(self, cum, t):
        """The zero yield at t from the integrated forward ``cum`` there."""
        if isinstance(t, float):
            if t > 0.0:
                return cum / t
            return self.f_left[0] if self.rows is None else self.f_left[:, :1]
        out = np.divide(cum, t, out=np.empty_like(cum), where=t > 0)
        if np.any(t == 0.0):
            out = np.where(t == 0.0, self.f_left[..., :1], out)
        return out

    @evaluation
    def discount_factor(self, t):
        """exp(-t z(t)), computed from the exact cumulative forward integral."""
        return np.exp(-ForwardCurve.integrated_forward.body(self, t))

    @evaluation
    def _evaluation(self, t):
        """Zero yield, right-continuous forward rate and discount factor
        together, the first and last from one integrated forward."""
        cum = ForwardCurve.integrated_forward.body(self, t)
        return self._yield_of(cum, t), ForwardCurve.forward_rate.body(self, t), np.exp(-cum)

    @evaluation
    def cumulative_time_weighted_yield(self, t):
        """int_0^t s*z(s) ds in closed form (the integrand is int_0^s f)."""
        return self._integrals(t)[0]

    def _integrals(self, t):
        """int_0^t s*z(s) ds and int_0^t f, from one segment search, for a t
        already in the domain: the bodies of :meth:`cumulative_time_weighted_yield`
        and :meth:`integrated_forward` in one."""
        idx = self._segment_index(t, "right")
        k = idx if self.rows is None else (self._row_ids, idx)
        x0 = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - x0
        w = t - x0
        slope = (self.f_right[k] - self.f_left[k]) / h
        cum_tz = (
            self._cum_tz[k]
            + self._cum_f[k] * w
            + 0.5 * self.f_left[k] * w * w
            + slope * np.power(w, 3) / 6.0
        )
        return cum_tz, self._cum_f[k] + self.f_left[k] * w + 0.5 * slope * w * w

    # ---- arithmetic -------------------------------------------------------

    def with_constant_added(self, c: float) -> "ForwardCurve":
        """Curve with c added to the forward everywhere (so z shifts by c too)."""
        return ForwardCurve(self.grid, self.f_left + c, self.f_right + c, self.quote_nodes)

    def _edge_values(self, edges):
        """Forward values at the segment edges ``edges`` (a merged grid), with
        the edges past the horizon clipped to it: there the last segment's
        forward at the horizon, ``f_right[-1]``, extends the curve flat."""
        a = np.minimum(edges[:-1], self.horizon)
        b = np.minimum(edges[1:], self.horizon)
        return self.forward_rate(a, side="right"), self.forward_rate(b, side="left")

    def ray(self, shift: "CurveShift"):
        """The curves z + e*Dz along a shift, as a function of the scale e.

        The merged grid, its validation and the edge forwards of both
        curves are computed once, here; each scale then costs one
        construction. An array of S scales gives one stacked curve whose
        row i is the curve of scale i bit for bit. The curves share one
        grid and this curve's quote nodes and live on this curve's domain;
        the shift is extended flat past its own horizon when shorter.
        """
        other = shift.delta_forward
        nodes = np.union1d(self.grid.nodes, other.grid.nodes)
        nodes = nodes[nodes <= self.horizon]
        if nodes[-1] != self.horizon:
            nodes = np.concatenate((nodes, [self.horizon]))
        grid = TimeGrid(nodes)
        base_l, base_r = self._edge_values(nodes)
        sh_l, sh_r = other._edge_values(nodes)
        return lambda scale: ForwardCurve(
            grid,
            base_l + np.multiply.outer(scale, sh_l),
            base_r + np.multiply.outer(scale, sh_r),
            self.quote_nodes,
        )

    def breakpoints_between(self, a: float, b: float):
        nodes = self.grid.nodes
        return nodes[(nodes > a) & (nodes < b)]

    def __repr__(self):
        return f"ForwardCurve({len(self.grid.nodes)} nodes, horizon={self.horizon})"


class CurveShift:
    """A perturbation of the forward curve, Delta-f, with derived Delta-z.

    Delta-z(t) = (1/t) int_0^t Delta-f, matching the canonical curve
    representation, so Delta-f(t) = d/dt (t Delta-z(t)) inside segments by
    construction. A shift built by :meth:`parallel` is flagged constant
    and evaluates Delta-z(t) = c exactly, without division.
    """

    __slots__ = ("delta_forward", "constant")

    def __init__(self, delta_forward: ForwardCurve, constant: float | None = None):
        self.delta_forward = delta_forward
        self.constant = None if constant is None else float(constant)

    @classmethod
    def parallel(cls, c: float, horizon: float = DEFAULT_HORIZON) -> "CurveShift":
        """Constant shift Delta-z = c everywhere (equivalently Delta-f = c)."""
        return cls(ForwardCurve.flat(c, horizon), constant=c)

    @classmethod
    def from_forward_values(cls, times, values) -> "CurveShift":
        return cls(ForwardCurve.from_forwards(times, values))

    @property
    def horizon(self) -> float:
        return self.delta_forward.horizon

    def _integrated_delta_f(self, t):
        """int_0^t Delta-f, with the flat extension past the shift horizon."""
        arr, scalar = _as_array(t)
        hor = self.horizon
        out = self.delta_forward.integrated_forward(_clipped(arr, hor))
        beyond = arr > hor
        if beyond if scalar else beyond.any():
            tail_f = float(self.delta_forward.f_right[-1])
            out = out + np.where(beyond, tail_f * (arr - hor), 0.0)
        return out

    def delta_z(self, t):
        arr, scalar = _as_array(t)
        if self.constant is not None:
            out = self.constant if scalar else np.full_like(arr, self.constant, dtype=float)
        else:
            out = self.delta_forward._yield_of(self._integrated_delta_f(arr), arr)
        return float(out) if scalar else out

    def delta_f_at_boundary(self, tau: float) -> float:
        """Delta-f at the last liquid point, taken as the left limit there.

        Reads the stored forward perturbation directly; differencing
        Delta-z at the boundary would be ill-conditioned.
        """
        if self.constant is not None:
            return self.constant
        return float(self.delta_forward.forward_rate(min(tau, self.horizon), side="left"))

    def time_weighted_cumulative(self, t):
        """int_0^t s * Delta-z(s) ds, closed form, flat-extended past the horizon."""
        arr, scalar = _as_array(t)
        if self.constant is not None:
            out = 0.5 * self.constant * arr * arr
            return float(out) if scalar else out
        hor = self.horizon
        out = self.delta_forward.cumulative_time_weighted_yield(_clipped(arr, hor))
        beyond = arr > hor
        if beyond if scalar else beyond.any():
            # s * dz(s) = cum_h + tail_f * (s - hor) beyond the shift horizon
            tail_f = float(self.delta_forward.f_right[-1])
            cum_h = float(self.delta_forward.integrated_forward(hor))
            w = arr - hor
            out = out + np.where(beyond, cum_h * w + 0.5 * tail_f * w * w, 0.0)
        return float(out) if scalar else out

    def scaled(self, factor: float) -> "CurveShift":
        scaled_curve = ForwardCurve(
            self.delta_forward.grid,
            self.delta_forward.f_left * factor,
            self.delta_forward.f_right * factor,
        )
        const = None if self.constant is None else self.constant * factor
        return CurveShift(scaled_curve, const)

    def negated(self) -> "CurveShift":
        return self.scaled(-1.0)

    def breakpoints_between(self, a: float, b: float):
        return self.delta_forward.breakpoints_between(a, b)

    def __repr__(self):
        kind = f"constant {self.constant}" if self.constant is not None else "curve"
        return f"CurveShift({kind}, horizon={self.horizon})"


# ---- cash flows -----------------------------------------------------------


@dataclass(frozen=True)
class CashFlow:
    """Lump payments plus piecewise constant payment densities.

    ``lumps`` are (time, amount) pairs; an initial lump at t = 0 is
    allowed. ``densities`` are (start, end, rate-per-year) triples over
    non-overlapping segments. Times are kept exactly as given; lumps at
    identical times are merged by summation.
    """

    lumps: tuple = ()
    densities: tuple = ()

    def __post_init__(self):
        merged = {}
        for t, amount in self.lumps:
            t = float(t)
            amount = float(amount)
            if not (np.isfinite(t) and np.isfinite(amount)) or t < 0.0:
                raise DomainError(f"bad lump ({t}, {amount})")
            merged[t] = merged.get(t, 0.0) + amount
        lumps = tuple(sorted(merged.items()))

        dens = []
        for a, b, rate in self.densities:
            a, b, rate = float(a), float(b), float(rate)
            if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(rate)):
                raise DomainError(f"bad density ({a}, {b}, {rate})")
            if a < 0.0 or b <= a:
                raise DomainError(f"bad density segment [{a}, {b}]")
            dens.append((a, b, rate))
        dens.sort()
        for (a1, b1, _), (a2, _, _) in zip(dens, dens[1:]):
            if a2 < b1:
                raise DomainError(f"overlapping density segments at {a2}")

        object.__setattr__(self, "lumps", lumps)
        object.__setattr__(self, "densities", tuple(dens))

    @classmethod
    def single_payment(cls, t: float, amount: float = 1.0) -> "CashFlow":
        return cls(lumps=((t, amount),))

    @property
    def latest_time(self) -> float:
        times = [t for t, _ in self.lumps] + [b for _, b, _ in self.densities]
        return max(times) if times else 0.0

    def has_mass_at_or_before(self, tau: float) -> bool:
        if any(t <= tau for t, _ in self.lumps):
            return True
        return any(a < tau for a, _, _ in self.densities)

    def scaled(self, k: float) -> "CashFlow":
        return CashFlow(
            tuple((t, k * amt) for t, amt in self.lumps),
            tuple((a, b, k * r) for a, b, r in self.densities),
        )

    def __add__(self, other: "CashFlow") -> "CashFlow":
        return CashFlow(self.lumps + other.lumps, self.densities + other.densities)


def _density_integrals(densities, weight, breakpoints):
    """The adaptive integral of each density against w, in order: the rule
    every integral over a measure's densities follows.

    Each density is (a, b, shape, rate, split points): the density
    shape(s) * rate on [a, b], with ``shape`` vectorized and smooth
    between the split points. ``weight`` is a vectorized callable, or
    None for w = 1, and ``breakpoints`` are where it loses smoothness.
    The integrand is (w(s) * shape(s)) * rate, or shape(s) * rate
    without a weight, split at the density's own points and at the
    weight's breakpoints inside (a, b). Yields what
    :func:`~curvehedge.quadrature.adaptive_panels` returns for each
    density: a shape with a leading axis of rows gives one integral per
    row, each bit for bit that row's own.
    """
    extra = np.asarray(breakpoints, dtype=float)
    for a, b, shape, rate, pts in densities:
        if weight is None:
            integrand = lambda s, shape=shape, rate=rate: shape(s) * rate
        else:
            integrand = lambda s, shape=shape, rate=rate: np.asarray(weight(s), dtype=float) * shape(s) * rate
        yield adaptive_panels(integrand, a, b, breakpoints=[*pts, *extra[(extra > a) & (extra < b)]])


def measure_integral(lumps, densities, weight, breakpoints) -> float:
    """int w(t) dM(t) for a measure M of lumps and densities.

    ``lumps`` is a pair of sequences, the lump times and masses, and the
    densities, ``weight`` and ``breakpoints`` are those of
    :func:`_density_integrals`. The lump terms (m * w) are summed with
    ``np.sum``, then each density's integral is added in order. Values
    with a leading scenario axis (a stacked curve's) give one integral
    per row, each bit for bit that row's own.
    """
    times, masses = (np.asarray(x, dtype=float) for x in lumps)
    if weight is not None and times.size:
        masses = masses * np.asarray(weight(times), dtype=float)
    total = masses.sum(axis=-1)
    total = float(total) if total.ndim == 0 else total
    for _, _, integral in _density_integrals(densities, weight, breakpoints):
        total += integral
    return total


def _discounted_measure(curve, flow: CashFlow):
    """dC*, the flow discounted by the curve, as the lumps and densities of
    :func:`measure_integral`; a density splits at the curve's breakpoints."""
    if flow.latest_time > curve.horizon:
        raise DomainError(
            f"cash flow extends to {flow.latest_time}, beyond the curve horizon {curve.horizon}"
        )
    times = np.array([t for t, _ in flow.lumps], dtype=float)
    # also without lumps, so that a stacked curve gives a mass row per scenario
    masses = curve.discount_factor(times) * np.array([a for _, a in flow.lumps], dtype=float)
    densities = [
        (a, b, curve.discount_factor, rate, curve.breakpoints_between(a, b))
        for a, b, rate in flow.densities
    ]
    return (times, masses), densities


def stieltjes_integral(curve, flow: CashFlow, weight=None, breakpoints=()) -> float:
    """int w(t) dC*(t) where dC* is the flow discounted by the curve.

    ``weight`` is a vectorized callable (or None for w = 1) and
    ``breakpoints`` the points where it loses smoothness; each density
    segment of the flow also splits at the curve's own breakpoints.
    :func:`measure_integral` takes the sum.
    """
    return measure_integral(*_discounted_measure(curve, flow), weight, breakpoints)


def present_value(curve, flow: CashFlow) -> float:
    """Present value of the flow under the curve's discount factors."""
    return stieltjes_integral(curve, flow)


@dataclass(frozen=True)
class DiscountedFlow:
    """The present-value measure dC* of a cash flow under a curve, priced
    in one stacked pass.

    ``family`` is a stacked curve whose row 0 is ``curve`` bit for bit and
    whose breakpoints are the curve's, such as a
    :meth:`~curvehedge.extrapolation.ExtrapolatedCurve.with_ufr` family
    led by the curve's own level; each (weight, breakpoints) pair of
    ``weights`` has its breakpoints among the curve's. The lumps are
    summed as :func:`measure_integral` sums them, and every density is
    integrated once by :func:`_density_integrals`, on one stacked shape:
    the discount factor of every row of ``family`` (of ``curve`` alone
    without one), then w * D of the curve for each weight. Each row thus
    follows that rule as its standalone integral does, so
    ``present_values[i]`` is ``present_value`` of family row i, and
    ``integrals[k]`` is ``stieltjes_integral(curve, source, *weights[k])``,
    bit for bit. ``total`` is ``present_values[0]``, the flow's present
    value. The curve's density rows keep their accepted panels, so the
    running total C*(t) adds one partial Gauss panel to the panel sums
    below t.
    """

    source: CashFlow
    curve: object
    family: object = None
    weights: tuple = ()
    _lump_times: object = field(init=False)
    _lump_cum: object = field(init=False)
    _pieces: tuple = field(init=False)
    present_values: tuple = field(init=False)
    integrals: tuple = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        curve = self.curve
        priced = curve if self.family is None else self.family
        (times, masses), densities = _discounted_measure(priced, self.source)
        own = masses if masses.ndim == 1 else masses[0]
        weights = [lambda s, w=w: np.asarray(w(s), dtype=float) for w, _ in self.weights]
        family_rows = 1 if self.family is None else self.family.rows
        sums = np.zeros(family_rows + len(weights))
        sums[:family_rows] = masses.sum(axis=-1)
        sums[family_rows:] = [(own * w(times)).sum() for w in weights]

        def shape(s):
            d = priced.discount_factor(s)
            if not weights:  # a curve's values alone are integrated as one function
                return d
            d0 = d if d.ndim == 1 else d[0]
            return np.vstack([d, *(w(s) * d0 for w in weights)])

        stacked = [(a, b, shape, rate, pts) for a, b, _, rate, pts in densities]
        passes = _density_integrals(stacked, None, [p for _, pts in self.weights for p in pts])
        pieces = []
        for (a, b, _, rate, _), (lows, panels, integrals) in zip(stacked, passes):
            if np.ndim(integrals) == 0:
                lows, panels = [lows], [panels]
            integrand = lambda s, rate=rate: curve.discount_factor(s) * rate
            pieces.append((a, b, integrand, np.append(lows[0], b), np.append(0.0, np.cumsum(panels[0]))))
            sums += integrals

        values = sums.tolist()
        object.__setattr__(self, "_lump_times", times)
        object.__setattr__(self, "_lump_cum", np.append(0.0, np.cumsum(own)))
        object.__setattr__(self, "_pieces", tuple(pieces))
        object.__setattr__(self, "present_values", tuple(values[:family_rows]))
        object.__setattr__(self, "integrals", tuple(values[family_rows:]))
        object.__setattr__(self, "total", values[0])

    def cumulative(self, t):
        """C*(t): discounted mass in [0, t], inclusive of a lump at t."""
        arr, scalar = _as_array(t)
        arr = np.atleast_1d(arr)
        idx = np.searchsorted(self._lump_times, arr, side="right")
        out = self._lump_cum[idx]
        for a, b, integrand, edges, cum in self._pieces:
            clipped = np.clip(arr, a, b)
            seg = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(edges) - 2)
            out = out + cum[seg] + gauss_panel(integrand, edges[seg], clipped)
        return float(out[0]) if scalar else out.reshape(np.shape(t))


# ---- scalar analytics -----------------------------------------------------


def dollar_duration(curve, flow: CashFlow) -> float:
    """int t dC*: present-value-weighted time, the parallel-shift exposure."""
    return stieltjes_integral(curve, flow, lambda t: t)


def _nonzero_pv(curve, flow, pv: float | None = None) -> float:
    """The flow's present value on the curve, or ``pv`` when given; never zero."""
    if pv is None:
        pv = present_value(curve, flow)
    if pv == 0.0:
        raise UndefinedDurationError("present value is zero")
    return pv


def duration(curve, flow: CashFlow) -> float:
    return dollar_duration(curve, flow) / _nonzero_pv(curve, flow)


def convexity(curve, flow: CashFlow) -> float:
    """int t^2 dC* / C*_T."""
    num = stieltjes_integral(curve, flow, lambda t: t * t)
    return num / _nonzero_pv(curve, flow)


def excess_weight(cutoff: float):
    """The weight (t - cutoff)+ and its breakpoint; a cutoff past a curve's
    horizon gives the weight 0 on its whole domain."""
    if not cutoff >= 0.0:  # written so that a NaN cutoff fails it too
        raise DomainError(f"cutoff={cutoff} must be a nonnegative number")
    return lambda t: np.maximum(t - cutoff, 0.0), (cutoff,)


def excess_duration(curve, flow: CashFlow, tau: float, total: float | None = None) -> float:
    """int (t - tau)+ dC* / C*_T: duration counted only beyond tau.

    ``total`` is C*_T when the caller has priced the flow on this curve
    already; it is priced here otherwise.
    """
    num = stieltjes_integral(curve, flow, *excess_weight(tau))
    return num / _nonzero_pv(curve, flow, total)
