"""curvehedge benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-matrix --seed 0 --seconds 30 --trace 0

Every operation is an in-process ``curvehedge.cli.main(argv)`` call on
input files generated from ``--seed`` (see ``gen.py`` and
``workloads.py``). One client runs a closed loop on one thread, cycle by
cycle, until ``--seconds`` have passed at the end of a cycle. Each output
is checked by the gate in ``workloads.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the run alternates untraced
and traced cycles and reports the per-layer metrics of one traced cycle
(times as the median over traced cycles) plus ``trace.overhead``. The
lines before it say the same in words, with the environment.
"""

from __future__ import annotations

import os

# one thread for BLAS/OpenMP, set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

#: set-up (import, input generation, warm-up) is timed this many times and
#: the median reported; a fixed count, because each fresh import of the
#: package adds a little to the peak resident set size
SETUP_REPEATS = 11
#: the tail percentile leaves at least this many samples beyond it
TAIL_BEYOND = 10

E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}


def _import_cli():
    """Import the package afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "curvehedge" or m.startswith("curvehedge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("curvehedge.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: curvehedge imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op):
    """Call the CLI once; return (latency_ns, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            rc = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter_ns() - start
    return latency, rc, out.getvalue()


def load_reference(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


class Session:
    """The imported package, the operations of one cycle and the gate state."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.failures = []
        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            self.setup_times.append(self._setup())

    def _setup(self):
        # the previous set-up's modules are garbage now; collect them
        # first, so each set-up starts as clean as the first one
        gc.collect()
        start = time.perf_counter()
        self.cli = _import_cli()
        shutil.rmtree(self.work, ignore_errors=True)
        _, self.ops = workloads.build(self.workload, self.seed, self.work)
        self.reference = load_reference(self.workload, self.seed)
        # warm-up: the first operation of each command, untimed but checked
        seen = set()
        for op in self.ops:
            if op.command not in seen:
                seen.add(op.command)
                self.run(op)
        return time.perf_counter() - start

    def run(self, op):
        """Run and check one operation; return (latency_ns, failed)."""
        latency, rc, stdout = run_op(self.cli, op)
        ref = None if self.reference is None else self.reference.get(op.name)
        if self.reference is not None and ref is None:
            problem = "no stored reference for this operation"
        else:
            problem = workloads.check(op, rc, stdout, ref)
        if problem:
            self.failures.append(f"{op.name}: {problem}")
        return latency, bool(problem)


def beyond(n, p):
    """How many of ``n`` sorted samples lie beyond their p-th percentile.

    With linear interpolation the p-th percentile lies at position
    (n - 1) p / 100; the samples at later positions are beyond it.
    """
    return n - 1 - (n - 1) * p // 100


def tail_percentile(n):
    """The highest whole percentile of ``n`` samples with ``TAIL_BEYOND`` beyond it."""
    fits = [p for p in range(100) if beyond(n, p) >= TAIL_BEYOND]
    if not fits:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return max(fits)


def percentile(values, p):
    """Linearly interpolated p-th percentile of equally weighted values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _cycle(session):
    """Run one cycle; return each operation's latency (ns) and the failures."""
    latencies, failed = [], 0
    for op in session.ops:
        latency, bad = session.run(op)
        latencies.append(latency)
        failed += bad
    return latencies, failed


def measure(session, seconds):
    """Closed loop over whole cycles; return the end-to-end metrics and counts.

    Every cycle runs the same operations on the same inputs, so each
    operation's latency is taken as its lowest over the cycles, as
    ``timeit`` does: the speed of a shared host drifts by tens of percent
    within seconds, and the lowest time is the one least disturbed by it.
    Rates and percentiles are then over the operations of the mix,
    equally weighted: one sample per operation.
    """
    per_op = [[] for _ in session.ops]
    failed, cycles = 0, 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        latencies, bad = _cycle(session)
        for samples, latency in zip(per_op, latencies):
            samples.append(latency)
        failed += bad
        cycles += 1
    best = [min(samples) for samples in per_op]
    tail_pct = tail_percentile(len(best))
    metrics = {
        "ops_per_s": len(best) / (sum(best) / 1e9),
        "latency_p50_ms": statistics.median(best) / 1e6,
        "latency_tail_ms": percentile(best, tail_pct) / 1e6,
        "setup_s": statistics.median(session.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"cycles": cycles, "attempted": cycles * len(best), "failed": failed,
            "tail_percentile": tail_pct, "tail_samples": len(best)}
    return metrics, info


def layer_metrics(tr, wall_ns):
    """Per-layer metrics of one traced cycle, as (value, unit) pairs."""
    s = tr.stats
    panels = tr.calls("quadrature.gauss_panel")
    integrals = tr.calls("quadrature.adaptive_gauss_legendre")

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "quadrature.integrals": (integrals, "count"),
        "quadrature.panels": (panels, "count"),
        "quadrature.panels_per_integral": (ratio(panels, integrals), "ratio"),
        # each accepted leaf adds its two halves to the total; the panel a
        # leaf was estimated with is confirmation only
        "quadrature.useful_ratio": (ratio(panels + s.initial_segments, 2 * panels), "ratio"),
        "quadrature.self_s": (s.layer_self_ns["quadrature"] / 1e9, "s"),
        "quadrature.inclusive_share": (ratio(s.layer_outer_ns["quadrature"], wall_ns), "ratio"),
    }
    for layer in ("curves", "extrapolation"):
        calls, points = s.eval_calls[layer], s.eval_points[layer]
        out[f"{layer}.eval_calls"] = (calls, "count")
        out[f"{layer}.eval_points"] = (points, "count")
        out[f"{layer}.points_per_call"] = (ratio(points, calls), "ratio")
        out[f"{layer}.ns_per_point"] = (ratio(s.eval_ns[layer], points), "ns")
        out[f"{layer}.self_s"] = (s.layer_self_ns[layer] / 1e9, "s")
    out["curves.constructions"] = (
        tr.calls("curves.ForwardCurve.shifted") + tr.calls("curves.ForwardCurve.with_constant_added"),
        "count")
    out["extrapolation.constructions"] = (tr.calls("extrapolation.extrapolate"), "count")
    out["extrapolation.calibrations"] = (tr.calls("extrapolation.sw_alpha_calibrate"), "count")
    out["extrapolation.scan_points"] = (s.scan_points, "count")
    out["variation.calls"] = (s.layer_outer_calls["variation"], "count")
    out["variation.functional_evals"] = (s.functional_evals, "count")
    out["variation.self_s"] = (s.layer_self_ns["variation"] / 1e9, "s")
    out["hedging.plans"] = (tr.calls("hedging.hedge"), "count")
    out["hedging.revaluations"] = (tr.calls("hedging.HedgePlan.value_under"), "count")
    out["hedging.self_s"] = (s.layer_self_ns["hedging"] / 1e9, "s")
    out["sensitivity.calls"] = (tr.calls("sensitivity.ufr_sensitivity"), "count")
    out["sensitivity.oracle_s"] = (tr.incl_s("sensitivity.parameter_sensitivity"), "s")
    out["sensitivity.self_s"] = (s.layer_self_ns["sensitivity"] / 1e9, "s")
    out["shifts.shifts"] = (tr.calls("shifts.gaussian_bump_shift"), "count")
    out["shifts.self_s"] = (s.layer_self_ns["shifts"] / 1e9, "s")
    out["io.read_s"] = (tr.incl_s("io.read_curve", "io.read_cash_flow", "io.method_from_arg"), "s")
    out["io.render_s"] = (tr.incl_s("io.render_json", "io.render_csv", "io.render_table"), "s")
    out["io.render_bytes"] = (s.render_bytes, "count")
    out["cli.self_s"] = (s.layer_self_ns["cli"] / 1e9, "s")
    return out


def trace_run(session, seconds):
    """Alternate untraced and traced cycles; return per-layer metrics and counts."""
    tr = tracer.Tracer()
    plain, traced, per_cycle = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        latencies, bad = _cycle(session)
        plain.append(latencies)
        tr.install()
        try:
            latencies, bad2 = _cycle(session)
        finally:
            tr.uninstall()
        traced.append(latencies)
        per_cycle.append(layer_metrics(tr, sum(latencies)))
        tr.reset()
        tr.keep = False  # the spans of the first traced cycle are written out
        attempted += 2 * len(session.ops)
        failed += bad + bad2

    first = per_cycle[0]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit in ("count", "ratio") and name != "quadrature.inclusive_share":
            metrics[name] = (value, unit)
            others = sorted({c[name][0] for c in per_cycle[1:]} - {value})
            if others:
                session.failures.append(
                    f"{name} differs between traced cycles: {value} and {others}")
        else:
            metrics[name] = (statistics.median(c[name][0] for c in per_cycle), unit)
    # as for the end-to-end figures, each operation counts with its lowest time
    best_traced = sum(min(op) for op in zip(*traced))
    best_plain = sum(min(op) for op in zip(*plain))
    metrics["trace.overhead"] = (best_traced / best_plain, "ratio")
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{session.workload}-seed{session.seed}.tsv")
    info = {"cycles": len(traced), "attempted": attempted, "failed": failed}
    return metrics, info


def _environment():
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, BLAS/OpenMP threads pinned to 1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, work)
        if args.trace:
            metrics, info = trace_run(session, args.seconds)
        else:
            values, info = measure(session, args.seconds)
            metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in session.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"# {_environment()}")
    print(f"# {info['cycles']} cycles of {len(session.ops)} operations, "
          f"{info['attempted']} attempted, {info['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"error_rate {info['failed'] / info['attempted']:.6g} ratio")
        n, p = info["tail_samples"], info["tail_percentile"]
        print(f"# latency_tail_ms is p{p} of {n} samples, one per operation "
              f"({beyond(n, p)} beyond it); "
              f"an operation's latency is its lowest over the {info['cycles']} cycles")
        print(f"# setup_s is the median of {len(session.setup_times)} set-ups, "
              f"from {min(session.setup_times):.4f} to {max(session.setup_times):.4f} s")
    correct = not session.failures
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def bootstrap():
    """Put the checkout's ``src`` first on the path; False when it is missing."""
    if not (SRC / "curvehedge" / "__init__.py").is_file():
        print(f"error: no curvehedge package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


if __name__ == "__main__":
    if not bootstrap():
        sys.exit(2)
    sys.exit(main())
