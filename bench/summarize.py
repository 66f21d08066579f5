"""Median, quartiles and spread of each metric over saved benchmark runs.

Usage:

    python3 bench/run.py --workload corpus --seed 1 >> runs.jsonl   # repeat per seed
    python3 bench/summarize.py runs.jsonl [more.jsonl ...]
    python3 bench/summarize.py parent/*.jsonl --vs change/*.jsonl

Each input file holds the stdout of one or more runs: an ``{"info": ...}``
line followed by the result line. Runs are grouped by workload and trace
mode. The spread is the distance between the first and third quartile as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them.

With ``--vs``, the runs after it are compared with the runs before it: for
each end-to-end metric of each workload, both medians and how much worse the
second is than the first, as a share of the first, against the metric's
bound in BENCHMARK.json (negative: the second is better).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(paths: list[str]) -> dict[tuple[str, int], list[tuple[dict, dict]]]:
    runs: dict[tuple[str, int], list[tuple[dict, dict]]] = defaultdict(list)
    for path in paths:
        info = None
        with open(path) as lines:
            for line in lines:
                record = json.loads(line)
                if "info" in record:
                    info = record["info"]
                elif info is not None:
                    runs[(info["workload"], info["trace"])].append((info, record))
                    info = None
    return runs


def summarize(runs: dict[tuple[str, int], list[tuple[dict, dict]]]) -> None:
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(result["failed"] for _, result in group)
        attempted = sum(result["attempted"] for _, result in group)
        seeds = ",".join(str(info["seed"]) for info, _ in group)
        print(f"{workload} trace={trace}: {len(group)} runs (seeds {seeds}), failed {failed}/{attempted}")
        for name, unit in units(group).items():
            values = [result["metrics"][name]["value"] for _, result in group]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:40} {median:14.6g} {unit:6} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}")


def compare(first: dict, second: dict) -> None:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in sorted(w for w, trace in first if trace == 0 and (w, 0) in second):
            a, b = (
                statistics.median(result["metrics"][name]["value"] for _, result in runs[(workload, 0)])
                for runs in (first, second)
            )
            worse = sign * (b - a) / a
            verdict = "within" if worse <= bound else "OUTSIDE"
            print(f"{name:22} {workload:8} {a:12.6g} -> {b:<12.6g} worse by {worse:+.3f} ({verdict} bound {bound})")


def units(group: list[tuple[dict, dict]]) -> dict[str, str]:
    return {name: value["unit"] for name, value in group[0][1]["metrics"].items()}


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    if "--vs" in argv:
        split = argv.index("--vs")
        compare(load(argv[:split]), load(argv[split + 1 :]))
    else:
        summarize(load(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
