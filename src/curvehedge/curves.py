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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UndefinedDurationError
from .quadrature import adaptive_panels, panel_antiderivatives

DEFAULT_HORIZON = 200.0

#: most points a time grid built from a step (a sample grid, a defect scan,
#: a shift's nodes) may hold: ten times a 0.002-year scan over the default
#: horizon
MAX_SAMPLES = 1_000_000

#: most weights one pass stacks, so that its arrays stay small however
#: many weights a measure is given; a stacked weight's rows count as one
PASS_WEIGHTS = 32


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

    def _sign_bounds(self):
        """The segments as the pieces of the sign rule of
        :func:`~curvehedge.extrapolation.arbitrage_scan`, in arrays (starts,
        ends, forward bounds, discount bounds). A segment's forward blends
        f_left and f_right with weights in [0, 1], also as computed, so it
        is nonnegative where both are; its discount factor is an
        exponential, whose sign is that of the factor 1."""
        nodes = self.grid.nodes
        floors = np.minimum(self.f_left, self.f_right)
        return nodes[:-1], nodes[1:], floors, np.ones(floors.shape)

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

    def ray(self, shift: "CurveShift", *more: "CurveShift"):
        """The curves z + e*Dz along a shift, as a function of the scale e.

        The merged grid, its validation and the edge forwards of both
        curves are computed once, here; each scale then costs one
        construction. An array of S scales gives one stacked curve whose
        row i is the curve of scale i bit for bit. The curves share one
        grid and this curve's quote nodes and live on this curve's domain;
        the shift is extended flat past its own horizon when shorter.

        Several shifts, which must share one grid, give one ray along each:
        an array of S scales gives S rows per shift, shift by shift, so row
        ``i * S + j`` is ``self.ray(shifts[i])(scales[j])`` bit for bit, on
        the same merged grid; one scale gives one row per shift.
        """
        other = shift.delta_forward
        if more:
            forwards = [other, *(s.delta_forward for s in more)]
            if any(not np.array_equal(f.grid.nodes, other.grid.nodes) for f in forwards):
                raise DomainError("a ray along several shifts needs shifts on one grid")
            other = ForwardCurve(
                other.grid, np.array([f.f_left for f in forwards]), np.array([f.f_right for f in forwards])
            )
        # this curve's own nodes end the merged grid at its horizon
        nodes = np.union1d(self.grid.nodes, other.grid.nodes)
        nodes = nodes[nodes <= self.horizon]
        grid = TimeGrid(nodes)
        base_l, base_r = self._edge_values(nodes)
        sh_l, sh_r = other._edge_values(nodes)

        def at(scale):
            left = base_l + np.multiply.outer(scale, sh_l)
            right = base_r + np.multiply.outer(scale, sh_r)
            if other.rows is not None and np.ndim(scale) == 1:
                # (scale, shift, segment) to one row per (shift, scale)
                left, right = (np.swapaxes(x, 0, 1).reshape(-1, grid.nodes.size - 1) for x in (left, right))
            return ForwardCurve(grid, left, right, self.quote_nodes)

        return at

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


def _density_integrals(densities, breakpoints):
    """The adaptive integral of each density, in order: the rule every
    integral over a measure's densities follows.

    Each density is (a, b, shape, rate, split points): the density
    shape(s) * rate on [a, b], with ``shape`` vectorized and smooth
    between the split points; a shape with a leading axis of rows gives
    one integral per row, each bit for bit that row's own. Each density
    also splits at the ``breakpoints`` inside (a, b). Yields what
    :func:`~curvehedge.quadrature.adaptive_panels` returns.
    """
    for a, b, shape, rate, pts in densities:
        integrand = lambda s, shape=shape, rate=rate: shape(s) * rate
        yield adaptive_panels(integrand, a, b, breakpoints=[*pts, *(p for p in breakpoints if a < p < b)])


def _passes(weights, densities) -> list:
    """The passes over ``densities`` of the (weight, breakpoints) pairs
    ``weights``: (the points where the pass's weights split a density that
    its own points do not, their indices). Grouped by those points, each
    row splits as its standalone integral does; a group is taken
    ``PASS_WEIGHTS`` at a time, the first one that splits no density."""
    groups, keys = {(): []}, {}
    for k, (_, pts) in enumerate(weights):
        pts = np.asarray(pts, dtype=float)
        # the weights of a suite's shifts share their points: each set is read once
        key = keys.get(pts.tobytes()) if pts.size and densities else ()
        if key is None:
            splits = set()
            for a, b, _, _, own in densities:
                splits |= set(pts[(pts > a) & (pts < b)].tolist()).difference(own)
            key = keys[pts.tobytes()] = tuple(sorted(splits))
        groups.setdefault(key, []).append(k)
    # range(0, 1) keeps the empty first group as a pass
    return [(key, group[i : i + PASS_WEIGHTS])
            for key, group in groups.items() for i in range(0, len(group) or 1, PASS_WEIGHTS)]


@np.errstate(all="ignore")  # the pass rejects a non-finite row
def _discounted_measure(curve, flow: CashFlow):
    """dC*, the flow discounted by the curve, as the lumps and densities of
    a :class:`Measure`; a density splits at the curve's breakpoints."""
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


def _fold_weight(lumps, densities, weight=None, breakpoints=()):
    """The lumps and densities of w dM for a measure M of a :class:`Measure`'s:
    each lump's mass times w at its time, and each density's shape times w,
    split also at the ``breakpoints`` inside it, where w loses smoothness.
    ``weight`` is None for w = 1, or a function of a flat float array of
    times that returns a float array (leading rows when stacked) or a float."""
    times, masses = lumps
    if weight is not None:
        # also without lumps, so that a stacked weight gives a sum per scenario
        with np.errstate(all="ignore"):  # the pass rejects a non-finite row
            masses = np.multiply(masses, weight(np.asarray(times, dtype=float)))
        densities = [(a, b, lambda s, shape=shape: weight(s) * shape(s), rate, pts)
                     for a, b, shape, rate, pts in densities]
    if len(breakpoints):
        extra = np.asarray(breakpoints, dtype=float)
        densities = [(a, b, shape, rate, [*pts, *extra[(extra > a) & (extra < b)]])
                     for a, b, shape, rate, pts in densities]
    return (times, masses), densities


def stieltjes_integral(curve, flow: CashFlow, weight=None, breakpoints=()):
    """int w(t) dC*(t), dC* the flow discounted by the curve: the measure
    w dC* of :func:`_fold_weight` priced alone by :class:`Measure`, a float,
    or an array of one value per row of a stacked curve or weight."""
    measure = Measure(*_fold_weight(*_discounted_measure(curve, flow), weight, breakpoints))
    return measure.total if measure.lumps[1].ndim == 1 else np.array(measure.present_values)


def present_value(curve, flow: CashFlow):
    """Present value of the flow under the curve: :func:`stieltjes_integral`, w = 1."""
    return stieltjes_integral(curve, flow)


@dataclass(frozen=True, eq=False)
class Measure:
    """A measure of lumps and densities priced in stacked passes: int dM on
    each own row, and int w dM on row 0 for each (weight, breakpoints) pair
    of ``weights``, whose weights may return rows of their own. ``lumps``
    pairs the lump times and masses, and the densities are those of
    :func:`_density_integrals`. Masses with a leading axis of rows, and
    shapes that return such rows (a stacked curve's), make the own rows.

    The pass loop of :meth:`_price` is the only code that sums an integral
    over a measure: a row's lump terms by ``np.sum``, then each density's
    integral in order. The first pass stacks the own rows and w * shape of
    row 0 for each weight that splits no density where the density does
    not; the others are grouped by the points where they do (:func:`_passes`).
    So ``present_values[i]`` is own row i's integral and ``integrals`` holds
    each weight's rows, each the own row of w dM (:func:`_fold_weight`)
    priced alone, bit for bit. ``total`` is ``present_values[0]``, ``masses``
    row 0's integral of each density. A non-finite row raises
    :class:`DomainError`; no numpy warning leaks.
    """

    lumps: tuple
    densities: tuple
    weights: tuple = ()
    present_values: tuple = field(init=False)
    integrals: tuple = field(init=False)
    total: float = field(init=False)
    _panels: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lumps", tuple(np.asarray(x, dtype=float) for x in self.lumps))
        present_values, integrals, panels = self._price(self.weights, lead=True)
        object.__setattr__(self, "present_values", present_values)
        object.__setattr__(self, "integrals", integrals)
        object.__setattr__(self, "total", present_values[0])
        object.__setattr__(self, "_panels", panels)

    def integrate(self, weights):
        """An array of the rows of int w dM on row 0 for each (weight,
        breakpoints) pair of ``weights``, in order."""
        return np.array(self._price(weights, lead=False)[1], dtype=float)

    @np.errstate(all="ignore")  # no numpy warning leaves a pass
    def _price(self, weights, lead):
        """The own rows' integrals (none unless ``lead``), the rows of
        ``weights``, and with ``lead`` what the first pass's
        :func:`_density_integrals` gave for each density."""
        (times, masses), densities = self.lumps, self.densities
        own = masses[0] if masses.ndim == 2 else masses
        funcs = [w for w, _ in weights]
        rows, panels = {}, ()
        for n, (splits, ks) in enumerate(_passes(weights, densities)):
            # the own rows (key None) lead the first pass, then a block of rows per weight
            owners = [None, *ks] if lead and n == 0 else ks
            if not owners:
                continue

            def stack(shape, s, owners=owners):
                d = shape(s)
                d0 = d[0] if d.ndim == 2 else d
                block = [d if k is None else funcs[k](s) * d0 for k in owners]
                # one block of rows is integrated as it is
                return block[0] if len(block) == 1 else np.vstack(block)

            blocks = [masses if k is None else funcs[k](times) * own for k in owners]
            blocks = [block if block.ndim == 2 else block[None] for block in blocks]
            sums = np.concatenate(blocks).sum(axis=-1)
            # a pass of the own rows alone integrates the shapes themselves
            rowed = [(a, b, functools.partial(stack, f) if ks else f, *r) for a, b, f, *r in densities]
            results = tuple(_density_integrals(rowed, splits))
            for _, _, total in results:
                sums += total
            values = sums.tolist()
            if not all(map(math.isfinite, values)):
                raise DomainError("a priced integral of the cash flow is not finite")
            at = 0
            for k, block in zip(owners, blocks):
                rows[k], at = values[at : at + len(block)], at + len(block)
            if None in owners:
                panels = results
        integrals = tuple(value for k in range(len(weights)) for value in rows[k])
        return tuple(rows.get(None, ())), integrals, panels

    @functools.cached_property
    def _pieces(self) -> tuple:
        """Per density (a, b, row 0's integrand, its accepted panels' left
        ends and sums, its integral), read from the first pass."""
        stacked = self.lumps[1].ndim == 2
        return tuple(
            (a, b, lambda s, shape=shape, rate=rate: (shape(s)[0] if stacked else shape(s)) * rate,
             *(result if np.ndim(result[2]) == 0 else (part[0] for part in result)))
            for (a, b, shape, rate, _), result in zip(self.densities, self._panels)
        )

    @functools.cached_property
    def masses(self) -> tuple:
        """Row 0's integral of each density."""
        return tuple(float(piece[-1]) for piece in self._pieces)

    @functools.cached_property
    def _running(self) -> tuple:
        """Row 0's running lump sum and, per density, (a, b, panel edges, the
        panel sums below each edge, the Legendre coefficients of each panel's
        antiderivative): one evaluation of each integrand on its panels' 24
        Gauss nodes (:func:`~curvehedge.quadrature.panel_antiderivatives`)."""
        times, masses = self.lumps
        lump_cum = np.append(0.0, np.cumsum(masses[0] if masses.ndim == 2 else masses))
        pieces = []
        for a, b, integrand, lows, panels, total in self._pieces:
            edges = np.append(lows, b)
            # the panel sums below each panel end, the density's integral at b
            cum = np.append(0.0, np.cumsum(panels))
            cum[-1] = total
            pieces.append((a, b, edges, cum, panel_antiderivatives(integrand, edges[:-1], edges[1:])))
        return lump_cum, tuple(pieces)

    def cumulative(self, t):
        """The mass of row 0 in [0, t], inclusive of a lump at t: inside a
        density, the panel sums below t plus t's panel's antiderivative by
        Clenshaw's recurrence, within 1e-14 of ``total`` of a fresh Gauss
        panel to t; no query evaluates a shape."""
        arr, scalar = _as_array(t)
        arr = np.atleast_1d(arr)
        lump_cum, pieces = self._running
        out = lump_cum[np.searchsorted(self.lumps[0], arr, side="right")]
        for a, b, edges, cum, coef in pieces:
            part = np.where(arr < b, 0.0, cum[-1])
            inside = (arr > a) & (arr < b)
            if inside.any():
                s = arr[inside]
                seg = np.searchsorted(edges, s, side="right") - 1
                lo, hi = edges[seg], edges[seg + 1]
                xi = (2.0 * s - (lo + hi)) / (hi - lo)
                part[inside] = cum[seg] + np.polynomial.legendre.legval(xi, coef[seg].T, tensor=False)
            out = out + part
        return float(out[0]) if scalar else out.reshape(np.shape(t))


class DiscountedFlow(Measure):
    """The present-value measure dC* of a cash flow under a curve
    (:func:`_discounted_measure`). The rows of a stacked ``curve``, such as
    a :meth:`~curvehedge.extrapolation.ExtrapolatedCurve.with_ufr` family
    led by a curve's own level, are its own rows: ``present_values[i]`` is
    ``present_value`` of row i, ``integrals[k]`` is
    ``stieltjes_integral(row 0, source, *weights[k])``, bit for bit, and
    :meth:`cumulative` is C*(t) on row 0; a non-finite row is a DomainError."""

    def __init__(self, source: CashFlow, curve, weights=()):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "curve", curve)
        super().__init__(*_discounted_measure(curve, source), weights)


# ---- scalar analytics -----------------------------------------------------


def dollar_duration(curve, flow: CashFlow) -> float:
    """int t dC*: present-value-weighted time, the parallel-shift exposure."""
    return stieltjes_integral(curve, flow, lambda t: t)


def _per_unit_value(curve, flow, weight, breakpoints=()) -> float:
    """int w dC* / C*_T on row 0 of the curve, from one pass; C*_T is never zero."""
    lstar = DiscountedFlow(flow, curve, ((weight, breakpoints),))
    if lstar.total == 0.0:
        raise UndefinedDurationError("present value is zero")
    return lstar.integrals[0] / lstar.total


def duration(curve, flow: CashFlow) -> float:
    """int t dC* / C*_T."""
    return _per_unit_value(curve, flow, lambda t: t)


def convexity(curve, flow: CashFlow) -> float:
    """int t^2 dC* / C*_T."""
    return _per_unit_value(curve, flow, lambda t: t * t)


def excess_weight(cutoff: float):
    """The weight (t - cutoff)+ and its breakpoint; a cutoff past a curve's
    horizon gives the weight 0 on its whole domain."""
    if not cutoff >= 0.0:  # written so that a NaN cutoff fails it too
        raise DomainError(f"cutoff={cutoff} must be a nonnegative number")
    return lambda t: np.maximum(t - cutoff, 0.0), (cutoff,)


def excess_duration(curve, flow: CashFlow, tau: float) -> float:
    """int (t - tau)+ dC* / C*_T: duration counted only beyond tau."""
    return _per_unit_value(curve, flow, *excess_weight(tau))
