"""Extrapolation of market yield curves beyond the last liquid point.

The methods of the method table (:mod:`curvehedge.methods`) all agree
with the (optionally offset) market curve up to the last liquid point
tau and differ beyond it: a closed-form extension glued to the market
curve (:class:`ExtrapolatedCurve`), or the discrete Smith-Wilson fit
through the market's discount factors (:class:`SwDiscreteFit`).

An optional constant ``offset`` is added to the market yields before
extrapolation, so the discount factor below tau picks up exp(-t*offset).

A Smith-Wilson curve can be *defective*: its discount factor eventually
turns negative unless f(tau) <= ufr + alpha. Defective curves are
representable and scannable here rather than fatal at construction;
:func:`arbitrage_scan` locates negative forwards and nonpositive
discount factors on a grid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .curves import DEFAULT_HORIZON, MAX_SAMPLES, ForwardCurve, evaluation
from .errors import AlphaNotWellDefinedError, CalibrationError, DomainError
from .methods import METHODS, piecewise, sw_factor

#: admissible range for the Smith-Wilson convergence speed when calibrated
ALPHA_MIN = 1e-4
ALPHA_MAX = 1.0

#: Gram matrices with a larger condition estimate are rejected
SW_CONDITION_LIMIT = 1e12

#: MethodSpec number fields that may also be null (absent)
_OPTIONAL_NUMBERS = ("ufr", "kappa", "alpha", "epsilon")


def is_number(value) -> bool:
    """Whether a parsed JSON value is a number a float can hold; bools are not numbers."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    )


@dataclass(frozen=True)
class MethodSpec:
    """Parameters selecting and configuring an extrapolation method.

    ``ufr`` is the ultimate forward rate (absent for M2 and M4, which
    extrapolate market levels instead of prescribing one). ``kappa`` is
    the convergence point of M5 and of the Smith-Wilson speed
    calibration; ``alpha`` the Smith-Wilson mean-reversion speed;
    ``epsilon`` the calibration tolerance on |f(kappa) - ufr|.
    ``offset`` is a constant added to market yields before extrapolating.
    """

    kind: str
    tau: float
    ufr: float | None = None
    kappa: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    offset: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in METHODS):
            raise DomainError(f"unknown method kind {self.kind!r}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError("tau must be positive")
        self.method.check_spec(self)
        if not np.isfinite(self.offset):
            raise DomainError("offset must be finite")

    @property
    def method(self):
        """The method table's entry for this spec's kind."""
        return METHODS[self.kind]

    def to_json(self) -> dict:
        out = {"kind": self.kind, "tau": self.tau, "offset": self.offset}
        for name in ("ufr", "kappa", "alpha", "epsilon"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def market(self, z):
        """The market curve ``z`` as this method sees it, with the offset added."""
        return z if self.offset == 0.0 else z.with_constant_added(self.offset)

    @classmethod
    def from_json(cls, data: dict) -> "MethodSpec":
        known = {"kind", "tau", "ufr", "kappa", "alpha", "epsilon", "offset"}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown method fields {sorted(unknown)}")
        if "kind" not in data or "tau" not in data:
            raise DomainError("a method spec needs at least 'kind' and 'tau'")
        for name, value in data.items():
            if name == "kind" or is_number(value) or (value is None and name in _OPTIONAL_NUMBERS):
                continue
            raise DomainError(f"method field {name!r} must be a number, got {value!r}")
        return cls(**data)


# ---- Smith-Wilson kernel ----------------------------------------------------


def sw_kernel(s, t, ufr: float, alpha: float):
    """Symmetric Smith-Wilson kernel W(s, t).

    Equals the covariance of the integrated Ornstein-Uhlenbeck process
    underlying the method, damped by exp(-ufr*(s+t)). W(0, t) = 0.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("kernel arguments must be nonnegative")
    lo = np.minimum(s, t)
    hi = np.maximum(s, t)
    # an overflowing sinh(alpha lo) or exp(-ufr (s + t)) gives inf or NaN, which a fit rejects
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-ufr * (s + t)) * (alpha * lo - np.exp(-alpha * hi) * np.sinh(alpha * lo))
    return float(out) if out.ndim == 0 else out


class SwDiscreteFit:
    """Smith-Wilson interpolant through finitely many discount factors.

    The curve is D(t) = exp(-ufr t) + sum_j zeta_j W(t, u_j), with zeta
    solving the Gram system so the observed prices are reproduced exactly
    at the nodes u_1 < ... < u_N. Each kernel term is separable in t and
    u_j on either side of its node, so with c_j = zeta_j exp(-ufr u_j) and
    k the number of nodes u_j <= t,

        D(t) = exp(-ufr t) (1 + B(t)),
        B(t) = P_k - exp(-alpha t) Q_k + alpha t R_k - sinh(alpha t) S_k,

    where P_k = sum_{j<=k} alpha u_j c_j and Q_k = sum_{j<=k} sinh(alpha u_j) c_j
    are prefix sums and R_k = sum_{j>k} c_j and S_k = sum_{j>k} exp(-alpha u_j) c_j
    suffix sums, cached at construction. Between nodes only t varies, so
    B'(t) = alpha (exp(-alpha t) Q_k + R_k - cosh(alpha t) S_k), and the
    forward is ufr - B'/(1 + B). Past the last node R and S vanish, which
    leaves EIOPA's extrapolation D(t) = exp(-ufr t) (1 + P_N - exp(-alpha t) Q_N)
    with a forward tending to the ufr; sinh and cosh are taken only before
    the last node, where they are finite. A time costs one segment search
    and a few exponentials, and each value depends on its own time alone.
    Exposes the same evaluation protocol as the other curve objects; the
    yield is undefined (NaN) wherever D(t) <= 0. Where D(t) is below the
    normal floats, exp(-ufr t) has underflowed, so the yield there is
    ufr - log(1 + B)/t and the forward keeps its form. ``spec`` is the method
    spec :func:`extrapolate` fitted it for, None for a bare
    :func:`sw_fit_discrete` fit.
    """

    __slots__ = (
        "nodes", "prices", "ufr", "alpha", "zeta", "horizon", "condition", "spec",
        "_p", "_q", "_r", "_s",
    )

    #: a fit is never stacked (see :func:`evaluation`)
    rows = None

    def __init__(self, nodes, prices, ufr: float, alpha: float, zeta, horizon: float, condition: float):
        self.nodes = np.asarray(nodes, dtype=float)
        self.prices = np.asarray(prices, dtype=float)
        self.ufr = float(ufr)
        self.alpha = float(alpha)
        self.zeta = np.asarray(zeta, dtype=float)
        self.horizon = float(horizon)
        self.condition = float(condition)
        self.spec = None
        c = self.zeta * np.exp(-self.ufr * self.nodes)
        alpha_u = self.alpha * self.nodes
        zero = np.zeros(1)
        # index k holds the sum over the first k nodes, or over the others
        self._p = np.concatenate((zero, np.cumsum(alpha_u * c)))
        self._q = np.concatenate((zero, np.cumsum(np.sinh(alpha_u) * c)))
        self._r = np.concatenate((np.cumsum(c[::-1])[::-1], zero))
        self._s = np.concatenate((np.cumsum((np.exp(-alpha_u) * c)[::-1])[::-1], zero))
        for arr in (self.nodes, self.prices, self.zeta, self._p, self._q, self._r, self._s):
            arr.setflags(write=False)

    @evaluation
    def discount_factor(self, t):
        return SwDiscreteFit._evaluation.body(self, t)[2]

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        return SwDiscreteFit._evaluation.body(self, t)[1]

    @evaluation
    def zero_yield(self, t):
        return SwDiscreteFit._evaluation.body(self, t)[0]

    @evaluation
    def _evaluation(self, t):
        """Zero yield, forward rate and discount factor, from B and B'/alpha."""
        alpha, ufr = self.alpha, self.ufr
        k = np.searchsorted(self.nodes, t, "right")
        alpha_t = alpha * t
        eq = np.exp(-alpha_t) * self._q[k]
        b = self._p[k] - eq
        db = eq + self._r[k]
        # the terms of the nodes after t; none past the last node
        if isinstance(t, float):
            if k < self.nodes.size:
                after_b, after_db = self._after(alpha_t, k)
                b, db = b + after_b, db - after_db
        else:
            inner = k < self.nodes.size
            after_b, after_db = self._after(alpha_t[inner], k[inner])
            b[inner] += after_b
            db[inner] -= after_db
        one_b = 1.0 + b
        d = np.exp(-ufr * t) * one_b
        normal = d >= sys.float_info.min
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(one_b != 0.0, ufr - alpha * db / one_b, np.nan)
            z = np.where(normal, -np.log(np.where(normal, d, 1.0)) / t, np.nan)
            if np.count_nonzero(normal) < normal.size:
                # D has lost digits or underflowed where exp(-ufr t) has; 1 + B has not
                low = ~normal & (one_b > 0.0)
                z = np.where(low, ufr - np.log(np.where(low, one_b, 1.0)) / t, z)
        # z(0) is the limit f(0)
        return np.where(t == 0.0, f, z), f, d

    def _after(self, alpha_t, k):
        """alpha t R_k - sinh(alpha t) S_k and cosh(alpha t) S_k, for k < N."""
        s = self._s[k]
        return alpha_t * self._r[k] - np.sinh(alpha_t) * s, np.cosh(alpha_t) * s

    def breakpoints_between(self, a: float, b: float):
        return self.nodes[(self.nodes > a) & (self.nodes < b)]

    def __repr__(self):
        return (
            f"SwDiscreteFit({len(self.nodes)} nodes, ufr={self.ufr}, "
            f"alpha={self.alpha}, cond={self.condition:.2e})"
        )


def sw_fit_discrete(nodes, prices, ufr: float, alpha: float, horizon: float = DEFAULT_HORIZON) -> SwDiscreteFit:
    """Solve the Smith-Wilson Gram system for observed discount factors.

    The fit is sampled on [0, ``horizon``], which must be finite and not
    precede the last node. Raises :class:`CalibrationError` when the
    kernel Gram matrix overflows, is singular or its condition estimate exceeds
    ``SW_CONDITION_LIMIT``; no regularization is applied, since that
    would silently break the exact reproduction of the inputs.
    """
    t = np.asarray(nodes, dtype=float)
    p = np.asarray(prices, dtype=float)
    if t.ndim != 1 or t.size < 1 or t.shape != p.shape:
        raise DomainError("nodes and prices must be equal-length 1-d arrays, N >= 1")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise DomainError("nodes must be positive, distinct and ascending")
    if np.any(p <= 0):
        raise DomainError("observed prices must be positive")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if not t[-1] <= horizon < np.inf:  # written so that a NaN horizon fails it too
        raise DomainError(f"horizon must be finite and not precede the last node, got {horizon}")

    gram = sw_kernel(t[:, None], t[None, :], ufr, alpha)
    if not np.all(np.isfinite(gram)):
        raise CalibrationError(f"Smith-Wilson Gram matrix overflows at ufr={ufr}, alpha={alpha}")
    condition = float(np.linalg.cond(gram))
    if not np.isfinite(condition) or condition > SW_CONDITION_LIMIT:
        gaps = np.diff(t)
        worst = int(np.argmin(gaps)) if gaps.size else 0
        culprit = (
            f"closest nodes t[{worst}]={t[worst]}, t[{worst + 1}]={t[worst + 1]}"
            if gaps.size
            else f"node t[0]={t[0]}"
        )
        raise CalibrationError(
            f"Smith-Wilson Gram matrix has condition {condition:.3e} > {SW_CONDITION_LIMIT:.0e}; {culprit}"
        )
    rhs = p - np.exp(-ufr * t)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"Smith-Wilson Gram matrix is not positive definite: {exc}")
    zeta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return SwDiscreteFit(t, p, ufr, alpha, zeta, horizon, condition)


def sw_alpha_calibrate(z: ForwardCurve, tau: float, kappa: float, ufr: float, epsilon: float) -> float:
    """Smallest alpha in [ALPHA_MIN, ALPHA_MAX] with |f(kappa) - ufr| <= epsilon.

    Uses the continuous-version forward formula; the miss shrinks
    monotonically in alpha, so bisection brackets the boundary. When the
    market forward at tau is already within epsilon of the ufr the
    criterion holds for every alpha and no smallest value is meaningful.
    """
    if z.horizon < tau:
        raise DomainError(f"market curve ends at {z.horizon}, before tau={tau}")
    if not kappa > tau:
        raise DomainError("kappa must exceed tau")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    f_tau = z.forward_rate(tau, side="left")
    g = ufr - f_tau
    if abs(g) <= epsilon:
        raise AlphaNotWellDefinedError(
            f"|f(tau) - ufr| = {abs(g):.3e} <= epsilon = {epsilon:.3e}: "
            "every alpha satisfies the criterion"
        )
    u = kappa - tau

    def miss(alpha: float) -> float:
        factor = sw_factor(u, g, alpha)
        if factor <= 0.0:
            return np.inf
        return abs(g) * np.exp(-alpha * u) / factor

    if miss(ALPHA_MIN) <= epsilon:
        return ALPHA_MIN
    if miss(ALPHA_MAX) > epsilon:
        raise CalibrationError(
            f"criterion |f(kappa) - ufr| <= {epsilon} unattainable for alpha <= {ALPHA_MAX}"
        )
    lo, hi = ALPHA_MIN, ALPHA_MAX
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if miss(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def _with_alpha(z: ForwardCurve, spec: MethodSpec) -> MethodSpec:
    """``spec`` with a missing Smith-Wilson alpha calibrated on the market
    curve ``z``, which must be an ordinary one; any other spec as it is."""
    if spec.alpha is not None or not spec.method.smith_wilson:
        return spec
    if z.rows is not None:
        raise DomainError("alpha is calibrated per market curve; a stacked market needs a spec with alpha")
    alpha = sw_alpha_calibrate(spec.market(z), spec.tau, spec.kappa, spec.ufr, spec.epsilon)
    return replace(spec, alpha=alpha)


# ---- the extrapolated curve -------------------------------------------------


class ExtrapolatedCurve:
    """A market curve glued to a method-specific extension beyond tau.

    Evaluation keeps the market values (plus offset) for t <= tau and
    switches to the extension of the spec's method-table entry
    (``method``) above. Each time is evaluated only by the side that owns
    it: the market curve ``eff`` sees the times t <= tau and the extension
    the others, and a side with no times is not called, as for a
    quadrature panel, which lies on one side. The market anchors of the
    extension are cached at construction: z(tau) and D(tau) from one
    integrated forward and f(tau-) from one forward rate, so a
    :meth:`with_ufr` family shares them, with the method's own anchors
    (for M5 the running integral of s*z(s) at tau and kappa).

    ``ufr`` is the level the extension holds past tau: the spec's ufr, or
    the market anchor z(tau) for M2 and f(tau) for M4 (see
    :meth:`Method.level`). It is a float, or for a family along the level
    (:meth:`with_ufr`) a ``(rows, 1)`` column of one value per row.

    A stacked market curve gives a stacked extrapolation: its anchors are
    ``(rows, 1)`` columns, and every evaluation has one row per scenario,
    each bit for bit the extrapolation of that scenario alone. A ufr family
    is stacked too, over an ordinary market curve: its market side gives
    each row a copy of the market values. A Smith-Wilson spec must fix
    alpha here; :func:`extrapolate` calibrates a missing one.
    """

    __slots__ = (
        "base", "spec", "method", "horizon", "eff", "rows", "ufr",
        "z_tau", "f_tau", "d_tau", "_tz_tau", "_tz_kappa",
    )

    def __init__(self, base: ForwardCurve, spec: MethodSpec, horizon: float = DEFAULT_HORIZON):
        spec.method.check_glue(base, spec, horizon)
        tau = float(spec.tau)
        self.base = base
        self.horizon = float(horizon)
        eff = self.eff = spec.market(base)
        self.rows = eff.rows
        anchor = self._anchor
        # tau lies in eff's domain, so the bodies are called without a second check
        cum = ForwardCurve.integrated_forward.body(eff, tau)
        self.z_tau = anchor(eff._yield_of(cum, tau))
        self.d_tau = anchor(np.exp(-cum))
        self.f_tau = anchor(ForwardCurve.forward_rate.body(eff, tau, "left"))
        self.spec = spec
        method = self.method = spec.method
        self._tz_tau, self._tz_kappa = method.tz_anchors(eff, spec, anchor)
        self.ufr = method.level(self)

    def _anchor(self, value):
        """A float, or the column of one value per scenario that the bodies
        of a stacked market give a float time."""
        return float(value) if self.eff.rows is None else np.asarray(value)

    def with_ufr(self, values):
        """This curve's family along its level, as one stacked curve: row i
        is bit for bit the curve of this spec holding ``values[i]`` past
        tau, ``extrapolate(self.base, replace(self.spec, ufr=values[i]),
        self.horizon)`` for a kind with a ufr, and the M1 or M3 curve of
        that ufr for M2 or M4.

        The rows share this curve's market curve and anchors, and ``ufr``
        is the ``(rows, 1)`` column of the values; ``spec`` stays this
        curve's. The market curve must be an ordinary one.
        """
        if self.eff.rows is not None:
            raise DomainError("a ufr family needs an ordinary market curve")
        family = object.__new__(ExtrapolatedCurve)
        for name in ExtrapolatedCurve.__slots__:
            setattr(family, name, getattr(self, name))
        family.ufr = np.array(values, dtype=float).reshape(-1, 1)
        family.rows = len(family.ufr)
        return family

    # -- defect diagnostics --

    @property
    def is_defective(self) -> bool:
        """True when the discount factor is nonpositive somewhere on the domain,
        in some row of a stacked curve."""
        return self.method.is_defective(self)

    # -- evaluation --

    def _market_rows(self, values):
        """Market values as this curve's rows: for a ufr family, one C-ordered
        copy per row, which every reduction meets as a single curve's values
        (a stride-0 view of one row is not such an array)."""
        if self.rows is None or self.eff.rows is not None:
            return values
        return np.tile(values, (self.rows, 1))

    def _at_tau(self, t, f):
        """Market forwards ``f`` at the times t <= tau, with f(tau-) at tau itself:
        the glued curve carries the last market forward there, even when the
        underlying market grid continues past tau."""
        if isinstance(t, float):
            return self.f_tau if t == self.spec.tau else f
        f[..., t == self.spec.tau] = self.f_tau
        return f

    @evaluation
    def zero_yield(self, t):
        market = lambda s: self._market_rows(self.eff.zero_yield(s))
        return piecewise(t, self.spec.tau, market, lambda s: self.method.zero_yield(self, s))

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        market = lambda s: self._at_tau(s, self._market_rows(self.eff.forward_rate(s, side=side)))
        return piecewise(t, self.spec.tau, market, lambda s: self.method.forward(self, s))

    @evaluation
    def discount_factor(self, t):
        market = lambda s: self._market_rows(self.eff.discount_factor(s))
        return piecewise(t, self.spec.tau, market, lambda s: self.method.discount(self, s))

    @evaluation
    def _evaluation(self, t):
        """Zero yield, forward rate and discount factor together; past tau
        the discount factor reuses the zero yield."""

        def market(s):
            z, f, d = map(self._market_rows, self.eff._evaluation(s))
            return z, self._at_tau(s, f), d

        def extension(s):
            method = self.method
            z = method.zero_yield(self, s)
            return z, method.forward(self, s), method.discount(self, s, z)

        return piecewise(t, self.spec.tau, market, extension)

    def breakpoints_between(self, a: float, b: float):
        pts = set(self.eff.breakpoints_between(a, b))
        for p in (self.spec.tau, self.spec.kappa):
            if p is not None and a < p < b:
                pts.add(float(p))
        return sorted(pts)

    def __repr__(self):
        return f"ExtrapolatedCurve({self.spec.kind}, tau={self.spec.tau}, horizon={self.horizon})"


def extrapolate(z: ForwardCurve, spec: MethodSpec, horizon: float = DEFAULT_HORIZON):
    """Build the extrapolated curve for a market curve and a method spec.

    Returns an :class:`ExtrapolatedCurve` for the closed-form methods and
    a :class:`SwDiscreteFit` for ``M6_SW_discrete`` (fitted to the
    offset-adjusted discount factors at the market curve's quote nodes up
    to tau, so a shifted market curve is fitted at the same nodes). A missing
    Smith-Wilson alpha is calibrated on ``z`` first and held in the curve's ``spec``.
    """
    spec = _with_alpha(z, spec)
    method = spec.method
    if method.glued:
        return ExtrapolatedCurve(z, spec, horizon=horizon)
    method.check_fit(spec, horizon)
    eff = spec.market(z)
    nodes = eff.quote_nodes
    nodes = nodes[(nodes > 0.0) & (nodes <= spec.tau)]
    if nodes.size == 0:
        raise DomainError("no market nodes in (0, tau] to fit")
    prices = eff.discount_factor(nodes)
    fit = sw_fit_discrete(nodes, prices, spec.ufr, spec.alpha, horizon=horizon)
    fit.spec = spec
    return fit


# ---- defect scanning --------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Arbitrage defects found on a scan grid.

    ``negative_forward`` intervals are where the forward rate is negative
    (equivalently, the discount factor increases); ``nonpositive_discount``
    intervals are where the discount factor itself is <= 0. An empty
    report means no defect was seen at the scan resolution.
    """

    step: float
    horizon: float
    negative_forward: tuple = ()
    nonpositive_discount: tuple = ()

    @property
    def is_clean(self) -> bool:
        return not self.negative_forward and not self.nonpositive_discount

    def to_json(self) -> list:
        out = []
        for a, b in self.negative_forward:
            out.append({"kind": "negative_forward", "start": a, "end": b})
        for a, b in self.nonpositive_discount:
            out.append({"kind": "nonpositive_discount", "start": a, "end": b})
        return out


def _mask_intervals(ts, mask):
    intervals = []
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return ()
    splits = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    for run in splits:
        intervals.append((float(ts[run[0]]), float(ts[run[-1]])))
    return tuple(intervals)


def check_step(step: float, horizon: float, option: str = "sampling step"):
    """Raise unless ``step`` is finite and positive and samples [0, horizon]
    in fewer than ``MAX_SAMPLES`` points; ``option`` names the step."""
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"{option} must be finite and positive, got {step}")
    if not horizon / step < MAX_SAMPLES:
        raise DomainError(f"{option} {step} over horizon {horizon} exceeds {MAX_SAMPLES} samples")


def sample_grid(horizon: float, step: float):
    """The multiples of ``step`` in [0, horizon] and the horizon itself; a last
    multiple that rounds past the horizon is clipped there. A grid of
    ``MAX_SAMPLES`` points or more is rejected before it is allocated."""
    check_step(step, horizon)
    n = int(np.floor(horizon / step))
    # one buffer: the multiples 0..n clipped to the horizon, then the horizon
    grid = np.arange(n + 2, dtype=float)
    np.minimum(np.multiply(grid, step, out=grid), horizon, out=grid)
    grid[-1] = horizon
    return grid if grid[-2] < horizon else grid[:-1]


#: grid points a defect scan evaluates at a time: few, so the scan's
#: temporaries are 64 KiB arrays rather than one value per grid point each
_SCAN_CHUNK = 8192


def arbitrage_scan(curve, step: float = 0.25) -> DefectReport:
    """Scan the curve for negative forwards and nonpositive discount factors.

    The grid is :func:`sample_grid`'s. It is evaluated ``_SCAN_CHUNK``
    points at a time, the last chunk taking the remainder (so no call is
    for a few points), by the curve's ``_evaluation``, which yields the
    forward and the discount factor together, into one mask per defect
    (a nonpositive discount factor is one whose zero yield is undefined);
    every value depends on its own time alone, so the chunks give the
    masks of one pass.
    """
    horizon = curve.horizon
    ts = sample_grid(horizon, step)
    negative_forward = np.empty(ts.size, dtype=bool)
    nonpositive_discount = np.empty(ts.size, dtype=bool)
    bounds = [*range(0, max(ts.size - _SCAN_CHUNK, 1), _SCAN_CHUNK), ts.size]
    for chunk in map(slice, bounds, bounds[1:]):
        z, f, d = curve._evaluation(ts[chunk])
        np.less(f, 0.0, out=negative_forward[chunk])
        # a discount factor that underflows to 0 keeps a finite yield; every
        # curve's yield is undefined (NaN) exactly where D <= 0
        np.logical_and(d <= 0.0, np.isnan(z), out=nonpositive_discount[chunk])
    return DefectReport(
        step=step,
        horizon=horizon,
        negative_forward=_mask_intervals(ts, negative_forward),
        nonpositive_discount=_mask_intervals(ts, nonpositive_discount),
    )
