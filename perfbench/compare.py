#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as run.py appends them to
`.perfbench/results/<workload>.jsonl` (several such files may be
concatenated).  For every end-to-end metric of every workload found in
both, prints the median and quartiles of each side and the change of the
median against the metric's bound in BENCHMARK.json.  Results whose kernel
backend, library versions or core count differ are flagged as not
comparable.
"""

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("backend", "numpy", "scipy", "python", "nproc")


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["meta"]["trace"] == 0:
            runs.setdefault(rec["meta"]["workload"], []).append(rec)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in sorted(set(base) & set(new)):
        sides = (base[workload], new[workload])
        print(f"== {workload}: {len(sides[0])} base runs, "
              f"{len(sides[1])} new runs")
        for key in ENV_KEYS:
            seen = [sorted({str(r["meta"].get(key)) for r in s}) for s in sides]
            if seen[0] != seen[1] or len(seen[0]) > 1:
                print(f"   NOT COMPARABLE: {key} differs "
                      f"(base {', '.join(seen[0])}; new {', '.join(seen[1])})")
        failed = [sum(r["failed"] for r in s) for s in sides]
        print(f"   failed operations: base {failed[0]}, new {failed[1]}")
        for name, bound in bounds.items():
            q = [summary([r["metrics"][name]["value"] for r in s])
                 for s in sides]
            change = (q[1][1] - q[0][1]) / q[0][1]
            verdict = "WORSE than bound" if change > bound else "within bound"
            print(f"   {name:12s} base {q[0][1]:.4f} [{q[0][0]:.4f}, "
                  f"{q[0][2]:.4f}]  new {q[1][1]:.4f} [{q[1][0]:.4f}, "
                  f"{q[1][2]:.4f}]  {change:+.1%} ({verdict}, "
                  f"bound {bound:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
