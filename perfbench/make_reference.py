"""Write ``reference.json``: one cycle of every workload at the default seed.

    python3 perfbench/make_reference.py

The gate compares default-seed outputs with this file. Regenerate it only
when an output is meant to change, and say so in the change description.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main():
    reference = {}
    for workload in workloads.WORKLOADS:
        work = run.HERE / ".work" / f"reference-{workload}"
        try:
            cli = run._import_cli()
            _, ops = workloads.build(workload, workloads.DEFAULT_SEED, work)
            records = {}
            for op in ops:
                _, rc, stdout = run.run_op(cli, op)
                problem = workloads.check(op, rc, stdout, None)
                if problem:
                    sys.exit(f"{op.name}: {problem}")
                got, _ = workloads.parse(op, stdout)
                records[op.name] = workloads.reference_record(got)
            reference[workload] = records
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(records)} operations")
    run.REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")


if __name__ == "__main__":
    if not run.bootstrap():
        sys.exit(2)
    main()
