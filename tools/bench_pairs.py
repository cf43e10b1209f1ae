"""Alternating pairs of benchmark runs on two checkouts, summarised per metric.

Runs the benchmark command of ``BENCHMARK.json`` with ``--workload W
--seed N --seconds S`` in the parent checkout and in the change checkout,
K times each, in alternating order: odd pairs run the parent first, even
pairs the change first. Each run starts in its checkout's root and its
last line of output is read as the result. The benchmark is only
called, never changed.

Prints one JSON object on the last line: for every end-to-end metric,
each side's median and quartiles (inclusive method), the ratio of the
medians (change over parent), the ratio of each pair and the number of
pairs the change won, in the direction the metric's ``better`` names;
``all_correct_zero_failed`` says whether every run read ``correct: true``
with 0 failed, and ``runs`` holds every run's result line. Progress goes
to standard error.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload ufr-sensitivity --seed 0 --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``tree``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(metrics, runs, workload: str, seed: int) -> dict:
    """The per-metric comparison of the pairs in ``runs``."""
    by_pair = {}
    for record in runs:
        by_pair.setdefault(record["pair"], {})[record["tree"]] = record["line"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    out = {}
    for metric in metrics:
        name = metric["name"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        higher = metric["better"] == "higher"
        out[name] = {
            "parent": spread(parent),
            "change": spread(change),
            "ratio_of_medians": statistics.median(change) / statistics.median(parent),
            "change_better_pairs": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "pair_ratios": [round(c / p, 4) for p, c in zip(parent, change)],
        }
    lines = [record["line"] for record in runs]
    return {
        "workload": workload,
        "seed": seed,
        "all_correct_zero_failed": all(line["correct"] and line["failed"] == 0 for line in lines),
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for position, tree in enumerate(order):
            line = run(trees[tree], benchmark["command"], args.workload, args.seed, args.seconds)
            runs.append({
                "workload": args.workload,
                "seed": args.seed,
                "pair": pair,
                "tree": tree,
                "first_in_pair": position == 0,
                "trace": 0,
                "line": line,
            })
            ops = line["metrics"]["ops_per_s"]["value"]
            print(f"pair {pair} {tree}: ops_per_s {ops:.1f}", file=sys.stderr, flush=True)
    result = summary(benchmark["end_to_end"], runs, args.workload, args.seed)
    result["runs"] = runs
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
