"""Digest of every benchmark operation's output, for byte-identity checks.

For each given seed, builds the operations of the three workloads of
``perfbench/workloads.py`` (read, not changed) in a temporary directory,
runs each as an in-process ``curvehedge.cli.main(argv)`` call on the
package of this checkout's ``src``, and prints one line per operation:
workload, seed, operation name, exit code and the SHA-256 of its
standard output. Run it from two checkouts and diff the results:

    python3 tools/output_digest.py --seeds 0 1 18 777 > digest.txt

With ``--against PATH``, the operations also run on the package of the
checkout at PATH, in one child process per workload and seed, and each
output is compared with that checkout's by the benchmark gate's own
comparator (``workloads.compare_reference``, 1e-10 relative). One line
per operation says ``same`` (identical bytes), ``close`` (within the
gate) or ``DIFF`` and why; a ``close`` line also gives the largest
relative change of a number the gate compares and its JSON path, such
as ``close 4.0e-16 plan.densities[4].rate``, followed by the largest
change of a number the gate skips, such as a residual, where that is
larger: ``close 0 (skipped 2.0e-01 checks[2].value)``. A ``bits:``
note names every output whose ``liability_value``, plan or ``verify``
PASS/FAIL list differs in any bit. The exit code is 1 when any
operation reads DIFF or bits:

    python3 tools/output_digest.py --against ../parent --seeds 0 1 18 777
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from curvehedge.cli import main as cli_main  # noqa: E402


def run(argv):
    """Exit code and standard output of one CLI call; a traceback is reported as its type."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue()


def digests(seeds, names=workloads.WORKLOADS):
    """(workload, seed, operation, exit code, SHA-256) for every operation."""
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                _, ops = workloads.build(name, seed, Path(work))
                for op in ops:
                    code, stdout = run(op.argv)
                    yield name, seed, op.name, code, hashlib.sha256(stdout.encode()).hexdigest()


#: run in the other checkout's child process: read a JSON list of argv,
#: write a JSON list of [exit code, standard output], run as :func:`run` does
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from curvehedge.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def run_elsewhere(root: Path, argvs):
    """Exit codes and standard outputs of CLI calls on the package at ``root/src``."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(root / "src")],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
    )
    return [tuple(result) for result in json.loads(done.stdout)]


def _bit_facts(op, stdout):
    """The outputs that must agree in every bit: a liability value, a plan, a
    ``verify`` PASS/FAIL list."""
    data = json.loads(stdout)
    if op.command == "verify":
        return {"verdicts": [check["ok"] for check in data["checks"]]}
    if op.command == "hedge":
        plan = data["plan"]
        return {"plan": plan, "liability_value": data.get("liability_value", plan["diagnostics"].get("liability_value"))}
    return {}


def largest_change(got, want, path=""):
    """The largest relative change |got - want| / max(|got|, |want|) of a
    number in two records of the same layout, and its JSON path."""
    if isinstance(want, dict):
        items = [(f"{path}.{key}" if path else key, got[key], want[key]) for key in sorted(want)]
    elif isinstance(want, list):
        items = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    elif isinstance(want, (int, float)) and not isinstance(want, bool) and got != want:
        return abs(got - want) / max(abs(got), abs(want)), path
    else:
        return 0.0, path
    return max((largest_change(g, w, p) for p, g, w in items), default=(0.0, path), key=lambda pair: pair[0])


def compare(op, mine, theirs):
    """``same``, ``close`` or ``DIFF ...`` for one operation, and the names of
    its bit facts that differ."""
    (code, stdout), (their_code, their_stdout) = mine, theirs
    if code != their_code:
        return f"DIFF exit code {code} != {their_code}", []
    if stdout == their_stdout:
        return "same", []
    if code != 0:
        return "DIFF output of a failed call", []
    got, want = workloads.parse(op, stdout)[0], workloads.parse(op, their_stdout)[0]
    want = workloads.reference_record(want)
    problem = workloads.compare_reference(op, got, want)
    if problem:
        verdict = "DIFF " + problem
    else:
        change, path = largest_change(workloads.reference_record(got), want)
        verdict = f"close {change:.1e} {path}" if change else "close 0"
        if op.fmt == "json":
            skipped, where = largest_change(json.loads(stdout), json.loads(their_stdout))
            if skipped > change:
                verdict += f" (skipped {skipped:.1e} {where})"
    if op.fmt != "json":
        return verdict, []
    facts, their_facts = _bit_facts(op, stdout), _bit_facts(op, their_stdout)
    return verdict, [k for k in facts if facts[k] != their_facts[k]]


def against(root: Path, seeds, names=workloads.WORKLOADS):
    """Print one comparison line per operation; return how many differ."""
    bad = 0
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                _, ops = workloads.build(name, seed, Path(work))
                theirs = run_elsewhere(root, [op.argv for op in ops])
                for op, their in zip(ops, theirs, strict=True):
                    verdict, bits = compare(op, run(op.argv), their)
                    line = f"{name} {seed} {op.name} {verdict}"
                    if bits:
                        line += " bits: " + ",".join(bits)
                    bad += verdict.startswith("DIFF") or bool(bits)
                    print(line)
    print(f"{bad} operations differ")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[workloads.DEFAULT_SEED])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    parser.add_argument("--against", type=Path, help="root of another checkout to compare outputs with")
    args = parser.parse_args(argv)
    if args.against is not None:
        return 1 if against(args.against.resolve(), args.seeds, args.workloads) else 0
    for record in digests(args.seeds, args.workloads):
        print(" ".join(map(str, record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
