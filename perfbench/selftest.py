"""Self-tests of the benchmark itself, not of curvehedge.

    python3 perfbench/selftest.py

Takes about a minute: it runs every workload briefly, traced and
untraced, in subprocesses, as the benchmark is run for real.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import tracer
import workloads

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
_RESULTS = {}


def _run(workload, seed, trace, seconds=1, cwd=run.ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload, seed, trace):
    """Last-line JSON of one short run, cached per (workload, seed, trace)."""
    key = (workload, seed, trace)
    if key not in _RESULTS:
        proc = _run(workload, seed, trace)
        if proc.returncode != 0:
            raise AssertionError(f"{key}: exit {proc.returncode}\n{proc.stderr}")
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


class Contract(unittest.TestCase):
    def test_metric_names_and_units(self):
        for section in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)

    def test_tail_percentile_leaves_ten_beyond(self):
        def beyond(n, p):
            return sum(1 for i in range(n) if i > (n - 1) * p / 100)

        for n in range(run.TAIL_BEYOND + 1, 200):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(beyond(n, p), run.TAIL_BEYOND, n)
            self.assertLess(beyond(n, p + 1), run.TAIL_BEYOND, n)

    def test_every_workload_and_metric_is_emitted(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for workload in names:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                seed = 0 if trace == 0 else 1
                out = result(workload, seed, trace)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"], (workload, trace))
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))
                if trace == 0:
                    for name, m in out["metrics"].items():
                        self.assertGreater(m["value"], 0, (workload, name))

    def test_traced_counts_repeat(self):
        counts = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"}
        for workload in ("verify-matrix", "ufr-sensitivity"):
            first = result(workload, 1, 1)["metrics"]
            proc = _run(workload, 1, 1)
            second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            for name in counts:
                self.assertEqual(first[name]["value"], second[name]["value"], (workload, name))

    def test_workload_split(self):
        sampling = result("curve-sampling", 1, 1)["metrics"]
        self.assertEqual(sampling["quadrature.panels"]["value"], 0)
        for workload in ("verify-matrix", "ufr-sensitivity"):
            share = result(workload, 1, 1)["metrics"]["quadrature.inclusive_share"]["value"]
            self.assertGreater(share, 0.5, workload)

    def test_bare_directory_fails(self):
        bare = run.HERE / ".work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
            proc = _run("verify-matrix", 0, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.session = run.Session("verify-matrix", 1, run.HERE / ".work" / "selftest-gate")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.session.work, ignore_errors=True)

    def test_corrupt_analytic_shows_in_error_rate(self):
        op = next(o for o in self.session.ops if o.command == "verify")
        corrupt = type(op)(**{**vars(op), "argv": op.argv + ["--corrupt-analytic", "1e-3"]})
        # enough operations for a tail percentile, one of them corrupt
        ops, self.session.ops = self.session.ops, [op] * run.TAIL_BEYOND + [corrupt]
        try:
            _, info = run.measure(self.session, 0)
        finally:
            self.session.ops = ops
        self.assertEqual((info["attempted"], info["failed"]), (run.TAIL_BEYOND + 1, 1))

    def test_reference_mismatch_fails(self):
        op = next(o for o in self.session.ops if o.command == "hedge" and o.kind == "M3")
        _, rc, stdout = run.run_op(self.session.cli, op)
        got, _ = workloads.parse(op, stdout)
        reference = workloads.reference_record(got)
        self.assertIsNone(workloads.check(op, rc, stdout, reference))
        reference["total_value"] *= 1 + 1e-9
        self.assertIsNotNone(workloads.check(op, rc, stdout, reference))


class Tracing(unittest.TestCase):
    def test_panels_match_cprofile(self):
        session = run.Session("verify-matrix", 0, run.HERE / ".work" / "selftest-trace")
        try:
            op = next(o for o in session.ops if o.name == "verify/M2/sample")
            profile = cProfile.Profile()
            profile.runcall(run.run_op, session.cli, op)
            stats = pstats.Stats(profile).stats
            ncalls = sum(v[1] for (path, _, fn), v in stats.items()
                         if fn == "gauss_panel" and path.endswith("quadrature.py"))
            tr = tracer.Tracer()
            tr.install()
            try:
                hedging = sys.modules["curvehedge.hedging"]
                self.assertTrue(hedging.adaptive_gauss_legendre.__wrapped_by_tracer__)
                run.run_op(session.cli, op)
            finally:
                tr.uninstall()
            self.assertGreater(ncalls, 0)
            self.assertEqual(tr.calls("quadrature.gauss_panel"), ncalls)
        finally:
            shutil.rmtree(session.work, ignore_errors=True)


if __name__ == "__main__":
    if not run.bootstrap():
        sys.exit(2)
    unittest.main(verbosity=2)
