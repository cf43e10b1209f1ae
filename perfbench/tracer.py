"""Spans around every public function and method of the curvehedge layers.

The tracer patches the package from outside: each public function is
replaced by one wrapper in *every* module that binds it (``from .x import
y`` copies a binding, so patching only the defining module would miss
calls made through the copy), and each public method is replaced on its
class. :meth:`Tracer.install` then checks that no binding was missed.

A span records its name, start, end, parent span and, for curve
evaluations, the number of points asked for. Spans are kept in memory
and written out by :meth:`Tracer.write`; per-layer aggregates (self
time, inclusive time of outermost spans, evaluation calls and points)
are accumulated as spans close. Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "io", "shifts", "curves", "extrapolation", "quadrature",
          "variation", "hedging", "sensitivity")

#: the curve-evaluation protocol; calls of these on the classes below are
#: evaluation calls of their layer
EVAL_METHODS = frozenset(
    ("discount_factor", "zero_yield", "forward_rate", "integrated_forward",
     "cumulative_time_weighted_yield")
)
EVAL_CLASSES = {"ForwardCurve": "curves", "ExtrapolatedCurve": "extrapolation",
                "SwDiscreteFit": "extrapolation"}

#: spans kept for :meth:`Tracer.write`; aggregates keep counting past it
MAX_KEPT_SPANS = 1_000_000


class Stats:
    """Per-name and per-layer aggregates of the spans closed since :meth:`Tracer.reset`."""

    def __init__(self, n_names):
        self.calls = [0] * n_names
        self.incl_ns = [0] * n_names
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.layer_outer_ns = {layer: 0 for layer in LAYERS}
        self.layer_outer_calls = {layer: 0 for layer in LAYERS}
        self.eval_calls = {layer: 0 for layer in LAYERS}
        self.eval_points = {layer: 0 for layer in LAYERS}
        self.eval_ns = {layer: 0 for layer in LAYERS}
        #: counts observed in the wrapped calls' arguments and results
        self.initial_segments = 0
        self.scan_points = 0
        self.render_bytes = 0
        self.functional_evals = 0


class Tracer:
    """Installs spans on the ``curvehedge`` modules and aggregates them."""

    def __init__(self):
        self.names = []  # span name id -> "layer.qualname"
        self._name_layer = []
        self._patches = []  # (owner, attribute, original)
        self._wrappers = {}  # original function -> wrapper
        self._stack = []  # open spans: [index, start_ns, child_ns, name_id, outer, eval_outer]
        self._depth = {layer: 0 for layer in LAYERS}
        self._eval_depth = {layer: 0 for layer in LAYERS}
        self.spans = array("q")  # name_id, parent index, start_ns, end_ns, points
        self._span_count = 0
        #: whether closing spans are kept for :meth:`write`
        self.keep = True
        self.stats = Stats(0)

    # ---- installation ------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self._name_layer.append(layer)
        return len(self.names) - 1

    def _wrapper(self, fn, layer, qualname, eval_method=False):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        nid = self._name_id(f"{layer}.{qualname}", layer)
        tracer = self
        hook = _HOOKS.get(qualname, _Hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            outer = tracer._depth[layer] == 0
            eval_outer = eval_method and tracer._eval_depth[layer] == 0
            index = tracer._span_count
            tracer._span_count += 1
            tracer._depth[layer] += 1
            if eval_method:
                tracer._eval_depth[layer] += 1
            args, kwargs = hook.before(tracer.stats, args, kwargs)
            frame = [index, 0, 0, nid, outer, eval_outer]
            stack.append(frame)
            start = time.perf_counter_ns()
            frame[1] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._depth[layer] -= 1
                if eval_method:
                    tracer._eval_depth[layer] -= 1
                points = _points(args, kwargs) if eval_method else 0
                tracer._close(frame, end, points, stack)
            hook.after(tracer.stats, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function binding and public method of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = _layer_of(value)
                if layer is not None:
                    self._patch(module, attr, self._wrapper(value, layer, value.__name__))
        missed = _unwrapped(modules)
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer missed bindings: {missed}")
        self.stats = Stats(len(self.names))

    def _wrap_class(self, cls, layer):
        evaluates = EVAL_CLASSES.get(cls.__name__) == layer
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(raw.__func__, layer, qualname))
            elif isinstance(raw, types.FunctionType):
                wrapped = self._wrapper(raw, layer, qualname, evaluates and attr in EVAL_METHODS)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- recording ---------------------------------------------------------

    def reset(self):
        """Start a fresh set of aggregates (spans already kept stay kept)."""
        self.stats = Stats(len(self.names))

    def _close(self, frame, end, points, stack):
        index, start, child_ns, nid, outer, eval_outer = frame
        duration = end - start
        layer = self._name_layer[nid]
        stats = self.stats
        stats.calls[nid] += 1
        stats.incl_ns[nid] += duration
        stats.layer_self_ns[layer] += duration - child_ns
        if outer:
            stats.layer_outer_ns[layer] += duration
            stats.layer_outer_calls[layer] += 1
        if eval_outer:
            stats.eval_calls[layer] += 1
            stats.eval_points[layer] += points
            stats.eval_ns[layer] += duration
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_index = parent[0]
        else:
            parent_index = -1
        if self.keep and len(self.spans) < 5 * MAX_KEPT_SPANS:
            self.spans.extend((nid, parent_index, start, end, points))

    def calls(self, qualname):
        """Calls of one wrapped name since the last reset, by "layer.qualname"."""
        return sum(self.stats.calls[i] for i, n in enumerate(self.names) if n == qualname)

    def incl_s(self, *qualnames):
        """Inclusive seconds of the named spans since the last reset."""
        return sum(self.stats.incl_ns[i] for i, n in enumerate(self.names) if n in qualnames) / 1e9

    def write(self, path):
        """Write the kept spans as tab-separated rows, one per span."""
        lines = ["span\tparent\tname\tstart_ns\tend_ns\tpoints"]
        spans = self.spans
        for i in range(len(spans) // 5):
            nid, parent, start, end, points = spans[5 * i: 5 * i + 5]
            lines.append(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\t{points}")
        path.write_text("\n".join(lines) + "\n")


def _points(args, kwargs):
    t = kwargs["t"] if "t" in kwargs else args[1]
    return int(getattr(t, "size", 1))


class _Hook:
    """Counts taken from a wrapped call's arguments (before) or result (after)."""

    @staticmethod
    def before(stats, args, kwargs):
        return args, kwargs

    @staticmethod
    def after(stats, result):
        pass


class _AdaptiveHook(_Hook):
    """Counts the initial segments an adaptive integral starts from."""

    @staticmethod
    def before(stats, args, kwargs):
        names = ("func", "a", "b", "rel_tol", "breakpoints", "max_depth")
        bound = dict(zip(names, args), **kwargs)
        a, b = float(bound["a"]), float(bound["b"])
        breakpoints = tuple(bound.get("breakpoints", ()))
        bound["breakpoints"] = breakpoints
        if a < b:
            stats.initial_segments += 1 + len({float(p) for p in breakpoints if a < float(p) < b})
        return (), bound


class _ScanHook(_Hook):
    """Counts the grid points of a defect scan, as ``arbitrage_scan`` builds them."""

    @staticmethod
    def before(stats, args, kwargs):
        curve = args[0] if args else kwargs["curve"]
        step = args[1] if len(args) > 1 else kwargs.get("step", 0.25)
        if step > 0:
            horizon = curve.horizon
            n = int(np.floor(horizon / step))
            stats.scan_points += np.unique(np.concatenate((np.arange(n + 1) * step, [horizon]))).size
        return args, kwargs


class _RenderHook(_Hook):
    @staticmethod
    def after(stats, result):
        stats.render_bytes += len(result)


class _FunctionalHook(_Hook):
    """Counts evaluations of the functional a numeric variation differences."""

    @staticmethod
    def before(stats, args, kwargs):
        if args:
            functional, rest = args[0], args[1:]
        else:
            functional, rest = kwargs.pop("functional"), ()
        if not getattr(functional, "__counted__", False):
            inner = functional

            def functional(curve):
                stats.functional_evals += 1
                return inner(curve)

            functional.__counted__ = True
        return (functional,) + tuple(rest), kwargs


_HOOKS = {
    "adaptive_gauss_legendre": _AdaptiveHook,
    "arbitrage_scan": _ScanHook,
    "render_json": _RenderHook,
    "render_csv": _RenderHook,
    "render_table": _RenderHook,
    "numeric_variation": _FunctionalHook,
}


def _package_modules():
    mods = {layer: importlib.import_module(f"curvehedge.{layer}") for layer in LAYERS}
    mods["curvehedge"] = importlib.import_module("curvehedge")
    return mods


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("curvehedge."):
        layer = module.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


def _unwrapped(modules):
    """Public function bindings of a layer that are not wrappers."""
    missed = []
    for name, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                    and _layer_of(value) is not None
                    and not getattr(value, "__wrapped_by_tracer__", False)):
                missed.append(f"{name}.{attr}")
    return missed
