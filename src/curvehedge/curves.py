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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UndefinedDurationError
from .quadrature import adaptive_gauss_legendre, adaptive_panels, gauss_panel

DEFAULT_HORIZON = 200.0


class TimeGrid:
    """Strictly increasing time nodes starting at 0; the last node is the horizon."""

    __slots__ = ("nodes",)

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

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.nodes, other.nodes)

    def __repr__(self):
        return f"TimeGrid({len(self.nodes)} nodes, horizon={self.horizon})"


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, (arr.ndim == 0)


def evaluation(body):
    """The curve-evaluation protocol, around a body that maps a 1-d array of times.

    The method takes a float or an array of any shape, checks once that
    it lies in [0, horizon], hands ``body`` a flat float array and
    returns a float for a float and an array of the input's shape
    otherwise; a body returning a tuple of arrays gets each one shaped so.
    A method calling another of its own class calls that method's
    ``body``, so one public call checks its domain once.
    """

    @functools.wraps(body)
    def method(self, t, *args, **kwargs):
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1)
        # written so that a NaN time fails it too
        if flat.size and not (flat.min() >= 0.0 and flat.max() <= self.horizon):
            raise DomainError(f"time outside curve domain [0, {self.horizon}]")
        return _shaped(body(self, flat, *args, **kwargs), arr)

    method.body = body
    return method


def _shaped(out, arr):
    """A body's flat result (or tuple of them) as a float or in the shape of the times ``arr``."""
    if isinstance(out, tuple):
        return tuple(_shaped(o, arr) for o in out)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


class ForwardCurve:
    """Segment-wise linear instantaneous forward curve.

    ``f_left[i]`` and ``f_right[i]`` are the forward values at the two
    ends of segment [nodes[i], nodes[i+1]]; the forward rate may jump at
    the nodes. Cumulative integrals of f (and of t*z(t)) are cached at
    the nodes and evaluated in closed form inside segments, so discount
    factors carry no quadrature error.
    """

    __slots__ = ("grid", "f_left", "f_right", "_cum_f", "_cum_tz")

    def __init__(self, grid: TimeGrid, f_left, f_right):
        fl = np.asarray(f_left, dtype=float)
        fr = np.asarray(f_right, dtype=float)
        n = len(grid.nodes) - 1
        if fl.shape != (n,) or fr.shape != (n,):
            raise DomainError("forward values must match the grid segment count")
        if not (np.all(np.isfinite(fl)) and np.all(np.isfinite(fr))):
            raise DomainError("forward values must be finite")
        fl.setflags(write=False)
        fr.setflags(write=False)
        self.grid = grid
        self.f_left = fl
        self.f_right = fr
        h = np.diff(grid.nodes)
        cum = np.concatenate(([0.0], np.cumsum(h * 0.5 * (fl + fr))))
        cum.setflags(write=False)
        self._cum_f = cum  # int_0^node f, exact for linear segments
        slope = (fr - fl) / h
        inc = cum[:-1] * h + 0.5 * fl * h * h + slope * h**3 / 6.0
        cum_tz = np.concatenate(([0.0], np.cumsum(inc)))
        cum_tz.setflags(write=False)
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
        return np.searchsorted(self.grid.nodes[1:-1], t, side=side)

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        """Instantaneous forward rate, right-continuous at nodes by default.

        ``side='left'`` returns the left limit (the value carried by the
        segment ending at t), which is what 'the forward at the last
        liquid point' means for a curve whose data stop there.
        """
        idx = self._segment_index(t, side)
        a = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - a
        w = (t - a) / h
        return self.f_left[idx] * (1.0 - w) + self.f_right[idx] * w

    @evaluation
    def integrated_forward(self, t):
        """int_0^t f(s) ds, exact per segment. Equals t*z(t)."""
        idx = self._segment_index(t, "right")
        a = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - a
        w = t - a
        slope = (self.f_right[idx] - self.f_left[idx]) / h
        return self._cum_f[idx] + self.f_left[idx] * w + 0.5 * slope * w * w

    @evaluation
    def zero_yield(self, t):
        """z(t) = (1/t) int_0^t f; z(0) = f(0)."""
        cum = ForwardCurve.integrated_forward.body(self, t)
        out = np.divide(cum, t, out=np.empty_like(cum), where=t > 0)
        if np.any(t == 0.0):
            out = np.where(t == 0.0, self.f_left[0], out)
        return out

    @evaluation
    def discount_factor(self, t):
        """exp(-t z(t)), computed from the exact cumulative forward integral."""
        return np.exp(-ForwardCurve.integrated_forward.body(self, t))

    @evaluation
    def cumulative_time_weighted_yield(self, t):
        """int_0^t s*z(s) ds in closed form (the integrand is int_0^s f)."""
        idx = self._segment_index(t, "right")
        x0 = self.grid.nodes[idx]
        h = self.grid.nodes[idx + 1] - x0
        w = t - x0
        slope = (self.f_right[idx] - self.f_left[idx]) / h
        return (
            self._cum_tz[idx]
            + self._cum_f[idx] * w
            + 0.5 * self.f_left[idx] * w * w
            + slope * w**3 / 6.0
        )

    def time_weighted_yield_integral(self, a: float, b: float) -> float:
        """int_a^b s*z(s) ds in closed form."""
        return float(
            self.cumulative_time_weighted_yield(b) - self.cumulative_time_weighted_yield(a)
        )

    # ---- arithmetic -------------------------------------------------------

    def with_constant_added(self, c: float) -> "ForwardCurve":
        """Curve with c added to the forward everywhere (so z shifts by c too)."""
        return ForwardCurve(self.grid, self.f_left + c, self.f_right + c)

    def _edge_values(self, edges, extend: bool):
        """Forward values at segment edges defined by ``edges`` (merged grid)."""
        a = edges[:-1]
        b = edges[1:]
        if extend:
            a = np.minimum(a, self.horizon)
            b = np.minimum(b, self.horizon)
        return self.forward_rate(a, side="right"), self.forward_rate(b, side="left")

    def shifted(self, shift: "CurveShift", scale: float = 1.0) -> "ForwardCurve":
        """This curve plus ``scale`` times the shift's forward perturbation.

        The result lives on this curve's domain; the shift is extended
        flat past its own horizon when shorter.
        """
        other = shift.delta_forward
        nodes = np.union1d(self.grid.nodes, other.grid.nodes)
        nodes = nodes[nodes <= self.horizon]
        if nodes[-1] != self.horizon:
            nodes = np.concatenate((nodes, [self.horizon]))
        base_l, base_r = self._edge_values(nodes, extend=False)
        if other.horizon >= self.horizon:
            sh_l, sh_r = other._edge_values(nodes, extend=False)
        else:
            tail = other.f_right[-1]
            inside = nodes <= other.horizon
            sh_l = np.where(
                inside[:-1], other.forward_rate(np.minimum(nodes[:-1], other.horizon), "right"), tail
            )
            sh_r = np.where(
                inside[1:], other.forward_rate(np.minimum(nodes[1:], other.horizon), "left"), tail
            )
        return ForwardCurve(TimeGrid(nodes), base_l + scale * sh_l, base_r + scale * sh_r)

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

    def _clip(self, t):
        arr, scalar = _as_array(t)
        return np.minimum(arr, self.horizon), scalar

    def _integrated_delta_f(self, t):
        """int_0^t Delta-f, with the flat extension past the shift horizon."""
        arr, _ = _as_array(t)
        hor = self.horizon
        out = np.asarray(
            self.delta_forward.integrated_forward(np.minimum(arr, hor)), dtype=float
        )
        beyond = arr > hor
        if np.any(beyond):
            tail_f = float(self.delta_forward.f_right[-1])
            out = out + np.where(beyond, tail_f * (arr - hor), 0.0)
        return out

    def delta_z(self, t):
        if self.constant is not None:
            arr, scalar = _as_array(t)
            out = np.full_like(arr, self.constant, dtype=float)
            return float(out) if scalar else out
        arr, scalar = _as_array(t)
        cum = self._integrated_delta_f(arr)
        out = np.divide(cum, arr, out=np.empty_like(cum), where=arr > 0)
        if np.any(arr == 0.0):
            out = np.where(arr == 0.0, self.delta_forward.f_left[0], out)
        return float(out) if scalar else out

    def delta_f(self, t, side: str = "right"):
        if self.constant is not None:
            arr, scalar = _as_array(t)
            out = np.full_like(arr, self.constant, dtype=float)
            return float(out) if scalar else out
        arr, scalar = self._clip(t)
        out = self.delta_forward.forward_rate(arr, side=side)
        return float(out) if scalar else np.asarray(out, dtype=float)

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
        if self.constant is not None:
            arr, scalar = _as_array(t)
            out = 0.5 * self.constant * arr * arr
            return float(out) if scalar else out
        arr, scalar = _as_array(t)
        hor = self.horizon
        clipped = np.minimum(arr, hor)
        out = np.asarray(
            self.delta_forward.cumulative_time_weighted_yield(clipped), dtype=float
        )
        beyond = arr > hor
        if np.any(beyond):
            # s * dz(s) = cum_h + tail_f * (s - hor) beyond the shift horizon
            tail_f = float(self.delta_forward.f_right[-1])
            cum_h = float(self.delta_forward.integrated_forward(hor))
            w = arr - hor
            out = out + np.where(beyond, cum_h * w + 0.5 * tail_f * w * w, 0.0)
        return float(out) if scalar else out

    def time_weighted_integral(self, a: float, b: float) -> float:
        """int_a^b s * Delta-z(s) ds, closed form."""
        return float(self.time_weighted_cumulative(b) - self.time_weighted_cumulative(a))

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


def measure_integral(lumps, densities, weight, breakpoints) -> float:
    """int w(t) dM(t) for a measure M of lumps and densities.

    ``lumps`` is a pair of sequences, the lump times and masses. Each
    density is (a, b, shape, rate, split points): the density
    shape(s) * rate on [a, b], with ``shape`` vectorized and smooth
    between the split points. ``weight`` is a vectorized callable, or
    None for w = 1, and ``breakpoints`` are where it loses smoothness.
    The lump terms are summed with ``np.sum``; each density is then added
    by adaptive Gauss-Legendre on the integrand w(s) * shape(s) * rate,
    split at its own points and at the weight's.
    """
    times, masses = (np.asarray(x, dtype=float) for x in lumps)
    if weight is not None and times.size:
        masses = masses * np.asarray(weight(times), dtype=float)
    total = float(np.sum(masses))
    for integrand, a, b, pts in _split_densities(densities, weight, breakpoints):
        total += adaptive_gauss_legendre(integrand, a, b, breakpoints=pts)
    return total


def _split_densities(densities, weight, breakpoints):
    """Each density of a measure as (integrand, a, b, split points), the one
    rule by which :func:`measure_integral` and :class:`DiscountedFlow`
    integrate it."""
    extra = np.asarray(breakpoints, dtype=float)
    w = lambda s: np.asarray(weight(s), dtype=float)
    for a, b, shape, rate, pts in densities:
        if weight is None:
            integrand = lambda s, shape=shape, rate=rate: shape(s) * rate
        else:
            integrand = lambda s, shape=shape, rate=rate: w(s) * shape(s) * rate
        yield integrand, a, b, [*pts, *extra[(extra > a) & (extra < b)]]


def _discounted_measure(curve, flow: CashFlow):
    """dC*, the flow discounted by the curve, as the lumps and densities of
    :func:`measure_integral`; a density splits at the curve's breakpoints."""
    if flow.latest_time > curve.horizon:
        raise DomainError(
            f"cash flow extends to {flow.latest_time}, beyond the curve horizon {curve.horizon}"
        )
    times = np.array([t for t, _ in flow.lumps], dtype=float)
    masses = np.array([a for _, a in flow.lumps], dtype=float)
    if flow.lumps:
        masses = curve.discount_factor(times) * masses
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
    """The present-value measure dC* of a cash flow under a curve.

    Holds each source lump scaled by its discount factor and keeps
    density segments symbolically (their discounted rate varies over the
    segment). Each density keeps the accepted panels of the adaptive
    rule that prices it, so ``total`` is the flow's present value bit for
    bit, and the running total C*(t) adds one partial Gauss panel to the
    panel sums below t.
    """

    source: CashFlow
    curve: object
    lumps: tuple = field(init=False)
    _lump_times: object = field(init=False)
    _lump_cum: object = field(init=False)
    _pieces: tuple = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        (times, values), densities = _discounted_measure(self.curve, self.source)
        total = float(np.sum(values))
        pieces = []
        for integrand, a, b, pts in _split_densities(densities, None, ()):
            lo, panels, integral = adaptive_panels(integrand, a, b, breakpoints=pts)
            pieces.append((a, b, integrand, np.append(lo, b), np.append(0.0, np.cumsum(panels))))
            total += integral

        object.__setattr__(self, "lumps", tuple(zip(times.tolist(), values.tolist())))
        object.__setattr__(self, "_lump_times", times)
        object.__setattr__(self, "_lump_cum", np.append(0.0, np.cumsum(values)))
        object.__setattr__(self, "_pieces", tuple(pieces))
        object.__setattr__(self, "total", total)

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

    def integrate(self, weight=None, breakpoints=()) -> float:
        return stieltjes_integral(self.curve, self.source, weight, breakpoints)


# ---- scalar analytics -----------------------------------------------------


def dollar_duration(curve, flow: CashFlow) -> float:
    """int t dC*: present-value-weighted time, the parallel-shift exposure."""
    return stieltjes_integral(curve, flow, lambda t: t)


def _nonzero_pv(curve, flow) -> float:
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


def excess_duration(curve, flow: CashFlow, tau: float) -> float:
    """int (t - tau)+ dC* / C*_T: duration counted only beyond tau."""
    if tau < 0.0 or tau > curve.horizon:
        raise DomainError(f"tau={tau} outside [0, {curve.horizon}]")
    num = stieltjes_integral(
        curve, flow, lambda t: np.maximum(t - tau, 0.0), breakpoints=(tau,)
    )
    return num / _nonzero_pv(curve, flow)
