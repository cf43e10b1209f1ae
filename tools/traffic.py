"""Which functions of the package the benchmark workloads and the tests reach.

Runs every operation of the three workloads of ``perfbench/workloads.py``
(read, not changed) at the given seeds, each as an in-process
``curvehedge.cli.main(argv)`` call on the package of this checkout's
``src``, and with ``--tests`` also the tier-1 tests, in-process through
``pytest.main``. Each run records the functions of ``src/curvehedge`` it
calls, with ``sys.settrace`` (the standard library only), and the script
lists every function of the package that no run reaches and, when both
runs were made, every function that only the tests reach:

    python3 tools/traffic.py --seeds 0 1 18 --tests -- --deselect \\
        tests/test_acceptance.py::test_criterion_10_kernel_is_integrated_ou_covariance

Functions are named by module and qualified name; lambdas and
comprehensions are not listed. The arguments after ``--`` go to pytest.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvehedge"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def defined_functions(package: Path = PACKAGE) -> set:
    """(module file name, qualified name) of every function the package defines."""
    found = set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((path.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


class Reach:
    """The package's functions called while it is active, as (module, qualname)."""

    def __init__(self, package: Path = PACKAGE):
        self.prefix = str(package) + "/"
        self.reached = set()
        self._seen = set()

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code not in self._seen:
            self._seen.add(code)
            if code.co_filename.startswith(self.prefix):
                self.reached.add((Path(code.co_filename).name, code.co_qualname))
        # no per-line tracing: only calls are recorded

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


# the package's import calls its decorators, for every run alike
IMPORT = Reach()
with IMPORT.active():
    import workloads
    from curvehedge.cli import main as cli_main


def run_workloads(seeds) -> set:
    """The functions every operation of the three workloads reaches, at ``seeds``."""
    reach = Reach()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                _, ops = workloads.build(name, seed, Path(work))
                with reach.active():
                    for op in ops:
                        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                            cli_main(op.argv)
    return reach.reached


def run_tests(pytest_args) -> tuple:
    """The functions the tier-1 tests reach, and pytest's exit code."""
    import pytest

    reach = Reach()
    with reach.active():
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    return reach.reached, int(code)


def report(title, names) -> str:
    lines = [f"{title}: {len(names)}"]
    lines += [f"  {module}:{qualname}" for module, qualname in sorted(names)]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pytest_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[workloads.DEFAULT_SEED],
                        help="workload seeds; none skips the workloads")
    parser.add_argument("--tests", action="store_true", help="also run the tier-1 tests")
    args = parser.parse_args(argv)

    defined = defined_functions()
    reached = {"import": IMPORT.reached}
    if args.seeds:
        reached["workloads"] = run_workloads(args.seeds)
    code = 0
    if args.tests:
        reached["tests"], code = run_tests(pytest_args)

    lines = [f"functions defined in src/curvehedge: {len(defined)}"]
    for name, names in reached.items():
        lines.append(f"reached by the {name}: {len(names & defined)}")
    lines.append(report("reached by no run", defined - set().union(*reached.values())))
    if len(reached) == 3:
        lines.append(report("reached only by the tests", (reached["tests"] - reached["workloads"]) & defined))
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
