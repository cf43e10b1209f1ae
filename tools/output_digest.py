"""Digest of every benchmark operation's output, for byte-identity checks.

For each given seed, builds the operations of the three workloads of
``perfbench/workloads.py`` (read, not changed) in a temporary directory,
runs each as an in-process ``curvehedge.cli.main(argv)`` call on the
package of this checkout's ``src``, and prints one line per operation:
workload, seed, operation name, exit code and the SHA-256 of its
standard output. Run it from two checkouts and diff the results:

    python3 tools/output_digest.py --seeds 0 1 18 777 > digest.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[workloads.DEFAULT_SEED])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    for record in digests(args.seeds, args.workloads):
        print(" ".join(map(str, record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
