"""Extrapolation of market yield curves beyond the last liquid point.

Six methods are supported, all agreeing with the (optionally offset)
market curve up to the last liquid point tau and differing beyond it:

- ``M1``   long zero yields pinned to a predetermined constant,
- ``M2``   constant extrapolation of the zero yield z(tau),
- ``M3``   long forward rates pinned to a predetermined constant (UFR),
- ``M4``   constant extrapolation of the forward rate f(tau),
- ``M5_SFSA``   forwards blended linearly from f(t) into the UFR between
  tau and kappa (this needs market data out to kappa),
- ``M6_SW_continuous`` / ``M6_SW_discrete``   the Smith-Wilson kernel
  interpolant, conditioned on the whole curve up to tau (continuous) or
  on finitely many observed discount factors (discrete).

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

from .curves import DEFAULT_HORIZON, ForwardCurve, evaluation
from .errors import AlphaNotWellDefinedError, CalibrationError, DomainError

M1 = "M1"
M2 = "M2"
M3 = "M3"
M4 = "M4"
M5_SFSA = "M5_SFSA"
M6_SW_CONTINUOUS = "M6_SW_continuous"
M6_SW_DISCRETE = "M6_SW_discrete"

ALL_KINDS = (M1, M2, M3, M4, M5_SFSA, M6_SW_CONTINUOUS, M6_SW_DISCRETE)
_UFR_KINDS = (M1, M3, M5_SFSA, M6_SW_CONTINUOUS, M6_SW_DISCRETE)
_SW_KINDS = (M6_SW_CONTINUOUS, M6_SW_DISCRETE)

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
        if self.kind not in ALL_KINDS:
            raise DomainError(f"unknown method kind {self.kind!r}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError("tau must be positive")
        if self.kind in _UFR_KINDS:
            if self.ufr is None or not np.isfinite(self.ufr):
                raise DomainError(f"{self.kind} requires a finite ufr")
        elif self.ufr is not None:
            raise DomainError(f"{self.kind} does not take a ufr")
        if self.kind == M5_SFSA:
            if self.kappa is None or not self.kappa > self.tau:
                raise DomainError("M5 requires kappa > tau")
        if self.kappa is not None and not self.kappa > self.tau:
            raise DomainError("kappa must exceed tau")
        if self.kind in _SW_KINDS:
            if self.alpha is None:
                if self.kappa is None or self.epsilon is None:
                    raise DomainError(
                        "Smith-Wilson needs alpha, or kappa and epsilon to calibrate it"
                    )
            elif not (np.isfinite(self.alpha) and self.alpha > 0):
                raise DomainError("alpha must be positive")
        if self.epsilon is not None and not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        if not np.isfinite(self.offset):
            raise DomainError("offset must be finite")

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
    out = np.exp(-ufr * (s + t)) * (alpha * lo - np.exp(-alpha * hi) * np.sinh(alpha * lo))
    return float(out) if out.ndim == 0 else out


def sw_factor(u, g, alpha: float):
    """The Smith-Wilson factor 1 + g (1 - e^{-alpha u}) / alpha.

    ``u`` is the time past tau and ``g`` is ufr - f(tau). The continuous
    version's discount factor is e^{-ufr u} D(tau) times this factor, so
    the curve is defective wherever the factor is nonpositive.
    """
    return 1.0 + g * (1.0 - np.exp(-alpha * u)) / alpha


def _sw_kernel_products(t, nodes, ufr: float, alpha: float, zeta):
    """``sw_kernel(t, nodes) @ zeta`` and ``d/dt sw_kernel(t, nodes) @ zeta``.

    ``t`` is a 1-d array of M times. The three M x N transcendentals,
    exp(-ufr (t + t_i)), exp(-alpha max) and sinh(alpha min), are
    computed once and shared; each matrix meets ``zeta`` as soon as it is
    complete, and four M x N buffers are reused throughout. Every
    element is the same sequence of operations as in :func:`sw_kernel`
    and its derivative written out, so the products are bit-identical to
    those of the separate matrices. d/dt W(t, t_i) is continuous across
    t = t_i.
    """
    t = t[:, None]
    ti = nodes[None, :]
    lo = np.minimum(t, ti)
    hi = np.maximum(t, ti)
    damp = np.add(t, ti)
    np.exp(np.multiply(-ufr, damp, out=damp), out=damp)
    np.multiply(alpha, lo, out=lo)
    sinh_lo = np.sinh(lo)
    np.exp(np.multiply(-alpha, hi, out=hi), out=hi)
    # k = alpha lo - e^{-alpha hi} sinh(alpha lo), the bracket of sw_kernel
    k = np.subtract(lo, np.multiply(hi, sinh_lo, out=hi), out=lo)
    w_zeta = np.multiply(damp, k, out=hi) @ zeta
    # dk/dt below the node, then above it
    below = np.multiply(np.exp(-alpha * ti), np.cosh(alpha * t), out=sinh_lo)
    np.multiply(alpha, np.subtract(1.0, below, out=below), out=below)
    dk = np.multiply(alpha * np.exp(-alpha * t), np.sinh(alpha * ti), out=hi)
    np.copyto(dk, below, where=t < ti)
    np.subtract(dk, np.multiply(ufr, k, out=k), out=dk)
    return w_zeta, np.multiply(damp, dk, out=dk) @ zeta


class SwDiscreteFit:
    """Smith-Wilson interpolant through finitely many discount factors.

    The curve is D(t) = exp(-ufr*t) + sum_i W(t, t_i) zeta_i with zeta
    solving the Gram system so observed prices are reproduced exactly at
    the nodes. Exposes the same evaluation protocol as the other curve
    objects; the yield is undefined (NaN) wherever D(t) <= 0.
    """

    __slots__ = ("nodes", "prices", "ufr", "alpha", "zeta", "horizon", "condition")

    def __init__(self, nodes, prices, ufr: float, alpha: float, zeta, horizon: float, condition: float):
        self.nodes = np.asarray(nodes, dtype=float)
        self.prices = np.asarray(prices, dtype=float)
        self.ufr = float(ufr)
        self.alpha = float(alpha)
        self.zeta = np.asarray(zeta, dtype=float)
        self.horizon = float(horizon)
        self.condition = float(condition)
        for arr in (self.nodes, self.prices, self.zeta):
            arr.setflags(write=False)

    @evaluation
    def discount_factor(self, t):
        kern = sw_kernel(t[:, None], self.nodes[None, :], self.ufr, self.alpha)
        return np.exp(-self.ufr * t) + kern @ self.zeta

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        return SwDiscreteFit._forward_and_discount.body(self, t)[0]

    @evaluation
    def _forward_and_discount(self, t):
        """The forward rate and the discount factor, from one pass over the kernel."""
        w_zeta, dw_zeta = _sw_kernel_products(t, self.nodes, self.ufr, self.alpha, self.zeta)
        decay = np.exp(-self.ufr * t)
        d = decay + w_zeta
        dprime = -self.ufr * decay + dw_zeta
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d != 0.0, -dprime / d, np.nan), d

    @evaluation
    def zero_yield(self, t):
        d = SwDiscreteFit.discount_factor.body(self, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(d > 0.0, -np.log(np.where(d > 0.0, d, 1.0)) / t, np.nan)
        if np.any(t == 0.0):
            out = np.where(t == 0.0, SwDiscreteFit.forward_rate.body(self, np.zeros(1)), out)
        return out

    def breakpoints_between(self, a: float, b: float):
        return self.nodes[(self.nodes > a) & (self.nodes < b)]

    def __repr__(self):
        return (
            f"SwDiscreteFit({len(self.nodes)} nodes, ufr={self.ufr}, "
            f"alpha={self.alpha}, cond={self.condition:.2e})"
        )


def sw_fit_discrete(nodes, prices, ufr: float, alpha: float, horizon: float = DEFAULT_HORIZON) -> SwDiscreteFit:
    """Solve the Smith-Wilson Gram system for observed discount factors.

    Raises :class:`CalibrationError` when the kernel Gram matrix is
    singular or its condition estimate exceeds ``SW_CONDITION_LIMIT``;
    no regularization is applied, since that would silently break the
    exact reproduction of the inputs.
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

    gram = sw_kernel(t[:, None], t[None, :], ufr, alpha)
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


# ---- the extrapolated curve -------------------------------------------------


class ExtrapolatedCurve:
    """A market curve glued to a method-specific extension beyond tau.

    Evaluation keeps the market values (plus offset) for t <= tau and
    switches to the closed-form extension above. All method parameters
    needed by the extension (z(tau), f(tau), the M5 running integral of
    s*z(s)) are cached at construction.
    """

    __slots__ = (
        "base", "spec", "horizon", "eff",
        "z_tau", "f_tau", "d_tau", "_tz_tau", "_tz_kappa",
    )

    def __init__(self, base: ForwardCurve, spec: MethodSpec, horizon: float = DEFAULT_HORIZON):
        if spec.kind == M6_SW_DISCRETE:
            raise DomainError("the discrete Smith-Wilson fit is built by extrapolate()")
        if spec.kind in _SW_KINDS and spec.alpha is None:
            raise DomainError(
                "Smith-Wilson extrapolation needs a fixed alpha; "
                "calibrate one with sw_alpha_calibrate first"
            )
        tau = spec.tau
        if base.horizon < tau:
            raise DomainError(f"market curve ends at {base.horizon}, before tau={tau}")
        if spec.kind == M5_SFSA and base.horizon < spec.kappa:
            raise DomainError(
                f"M5 blends market forwards out to kappa={spec.kappa}; "
                f"the market curve ends at {base.horizon}"
            )
        if horizon < tau:
            raise DomainError("horizon must not precede tau")
        self.base = base
        self.spec = spec
        self.horizon = float(horizon)
        self.eff = spec.market(base)
        self.z_tau = float(self.eff.zero_yield(tau))
        self.f_tau = float(self.eff.forward_rate(tau, side="left"))
        self.d_tau = float(self.eff.discount_factor(tau))
        if spec.kind == M5_SFSA:
            self._tz_tau = float(self.eff.cumulative_time_weighted_yield(tau))
            self._tz_kappa = float(self.eff.cumulative_time_weighted_yield(spec.kappa))
        else:
            self._tz_tau = self._tz_kappa = 0.0

    # -- defect diagnostics --

    @property
    def is_defective(self) -> bool:
        """True when the discount factor is nonpositive somewhere on the domain."""
        spec = self.spec
        if spec.kind != M6_SW_CONTINUOUS:
            return False
        return bool(sw_factor(self.horizon - spec.tau, spec.ufr - self.f_tau, spec.alpha) <= 0.0)

    # -- evaluation --

    def _extension_zero_yield(self, t):
        spec = self.spec
        tau = spec.tau
        kind = spec.kind
        if kind == M1:
            return np.full_like(t, spec.ufr)
        if kind == M2:
            return np.full_like(t, self.z_tau)
        w = tau / t
        if kind == M3:
            return w * self.z_tau + (1.0 - w) * spec.ufr
        if kind == M4:
            return w * self.z_tau + (1.0 - w) * self.f_tau
        if kind == M5_SFSA:
            kappa = spec.kappa
            span = kappa - tau
            clipped = np.minimum(t, kappa)
            integral = self.eff.cumulative_time_weighted_yield(clipped) - self._tz_tau
            below = (
                (kappa - t) / span * self.eff.zero_yield(clipped)
                + integral / (t * span)
                + (t - tau) / span * (1.0 - w) * spec.ufr / 2.0
            )
            above = integral / (t * span) + (1.0 - (tau + kappa) / (2.0 * t)) * spec.ufr
            return np.where(t <= kappa, below, above)
        # M6 continuous
        u = t - tau
        factor = sw_factor(u, spec.ufr - self.f_tau, spec.alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_term = np.where(factor > 0.0, np.log(np.where(factor > 0.0, factor, 1.0)), np.nan)
        return w * self.z_tau + (1.0 - w) * spec.ufr - log_term / t

    @evaluation
    def zero_yield(self, t):
        tau = self.spec.tau
        out = self.eff.zero_yield(np.minimum(t, tau))
        ext = t > tau
        if np.any(ext):
            out[ext] = self._extension_zero_yield(t[ext])
        return out

    def _extension_forward(self, t):
        spec = self.spec
        kind = spec.kind
        if kind in (M1, M3):
            return np.full_like(t, spec.ufr)
        if kind == M2:
            return np.full_like(t, self.z_tau)
        if kind == M4:
            return np.full_like(t, self.f_tau)
        if kind == M5_SFSA:
            kappa = spec.kappa
            span = kappa - spec.tau
            market = self.eff.forward_rate(np.minimum(t, kappa))
            blended = (kappa - t) / span * market + (t - spec.tau) / span * spec.ufr
            return np.where(t <= kappa, blended, spec.ufr)
        u = t - spec.tau
        g = spec.ufr - self.f_tau
        factor = sw_factor(u, g, spec.alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            return spec.ufr - g * np.exp(-spec.alpha * u) / factor

    @evaluation
    def forward_rate(self, t, side: str = "right"):
        tau = self.spec.tau
        out = self.eff.forward_rate(np.minimum(t, tau), side=side)
        # at tau itself the glued curve carries the last market forward,
        # even when the underlying market grid continues past tau
        at_tau = t == tau
        if np.any(at_tau):
            out[at_tau] = self.f_tau
        ext = t > tau
        if np.any(ext):
            out[ext] = self._extension_forward(t[ext])
        return out

    @evaluation
    def discount_factor(self, t):
        spec = self.spec
        tau = spec.tau
        out = self.eff.discount_factor(np.minimum(t, tau))
        ext = t > tau
        if np.any(ext):
            te = t[ext]
            if spec.kind == M6_SW_CONTINUOUS:
                # product form stays valid (negative) for defective parameters
                u = te - tau
                factor = sw_factor(u, spec.ufr - self.f_tau, spec.alpha)
                out[ext] = np.exp(-spec.ufr * u) * self.d_tau * factor
            else:
                out[ext] = np.exp(-te * self._extension_zero_yield(te))
        return out

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
    offset-adjusted discount factors at the market grid nodes up to tau).
    """
    if spec.kind == M6_SW_DISCRETE:
        if spec.alpha is None:
            raise DomainError(
                "Smith-Wilson extrapolation needs a fixed alpha; "
                "calibrate one with sw_alpha_calibrate first"
            )
        eff = spec.market(z)
        nodes = eff.grid.nodes
        nodes = nodes[(nodes > 0.0) & (nodes <= spec.tau)]
        if nodes.size == 0:
            raise DomainError("no market nodes in (0, tau] to fit")
        prices = eff.discount_factor(nodes)
        return sw_fit_discrete(nodes, prices, spec.ufr, spec.alpha, horizon=horizon)
    return ExtrapolatedCurve(z, spec, horizon=horizon)


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


def sample_grid(horizon: float, step: float):
    """The multiples of ``step`` in [0, horizon] and the horizon itself; a last
    multiple that rounds past the horizon is clipped there."""
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"sampling step must be finite and positive, got {step}")
    n = int(np.floor(horizon / step))
    return np.unique(np.concatenate((np.minimum(np.arange(n + 1) * step, horizon), [horizon])))


def arbitrage_scan(curve, step: float = 0.25) -> DefectReport:
    """Scan the curve for negative forwards and nonpositive discount factors."""
    horizon = curve.horizon
    ts = sample_grid(horizon, step)
    if isinstance(curve, SwDiscreteFit):
        f, d = curve._forward_and_discount(ts)
    else:
        f, d = curve.forward_rate(ts), curve.discount_factor(ts)
    return DefectReport(
        step=step,
        horizon=horizon,
        negative_forward=_mask_intervals(ts, f < 0.0),
        nonpositive_discount=_mask_intervals(ts, d <= 0.0),
    )


def resolve_alpha(z: ForwardCurve, spec: MethodSpec) -> MethodSpec:
    """Return a spec with alpha fixed, calibrating it when absent.

    The calibrated value is then treated as a constant everywhere;
    sensitivities of the calibrated speed to the curve are not
    propagated.
    """
    if spec.kind not in _SW_KINDS or spec.alpha is not None:
        return spec
    alpha = sw_alpha_calibrate(spec.market(z), spec.tau, spec.kappa, spec.ufr, spec.epsilon)
    return replace(spec, alpha=alpha)
