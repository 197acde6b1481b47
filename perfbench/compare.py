"""Compare the benchmark runs of a parent commit and of a change.

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the results that ``run.py --record FILE`` appended, one JSON
object per line.  For every workload and metric the report gives each
side's median and quartiles, the ratio of the medians (change over parent),
and how many runs with the same seed the change won; ties count for
neither side.  The report only reads results; it runs nothing.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import END_TO_END, PER_LAYER

BETTER = {name: better for name, _, better in END_TO_END}
BETTER.update({name: better for name, (_, better) in PER_LAYER.items()})


def load(path):
    """{(workload, trace): {metric: {seed: [values]}}}"""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            per = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, {}).setdefault(rec["seed"], []).append(
                    m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins(parent, change, better):
    won = pairs = 0
    for seed in parent.keys() & change.keys():
        for a, b in zip(parent[seed], change[seed]):
            pairs += 1
            if (b < a) if better == "lower" else (b > a):
                won += 1
    return won, pairs


def report(parent_runs, change_runs):
    lines = []
    for key in sorted(parent_runs.keys() & change_runs.keys()):
        workload, trace = key
        lines.append(f"{workload} ({'traced' if trace else 'end to end'})")
        for name in parent_runs[key]:
            if name not in change_runs[key]:
                continue
            a_by_seed, b_by_seed = parent_runs[key][name], change_runs[key][name]
            a = [v for vs in a_by_seed.values() for v in vs]
            b = [v for vs in b_by_seed.values() for v in vs]
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            won, pairs = wins(a_by_seed, b_by_seed, BETTER.get(name, "lower"))
            lines.append(
                f"  {name:<40} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                f"  ratio {ratio:.4f}  change won {won}/{pairs}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(load(argv[0]), load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
