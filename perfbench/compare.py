#!/usr/bin/env python3
"""Compares two sets of TE-interval benchmark results.

  python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds results saved by `perfbench/run.py --save FILE`, e.g. the
parent commit's runs and a change's runs, or a committed baseline and a
fresh run. For every workload and end-to-end metric it prints the median
and quartiles of each side and a verdict against the bound fixed in
BENCHMARK.json:

  regression   the new median is worse than the base median by > bound
  improved     better by more than the wider side's quartile spread
  same         within the bound
  unresolved   a side's quartile spread is wider than the bound (unless
               every new run beats, or loses to, every base run)

Then a per-layer table of medians from the traced runs (--trace 1).
Exits 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{workload: {trace: {metric: [values]}}}"""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            metrics = out.setdefault(row["workload"], {}).setdefault(
                row["trace"], {})
            for name, m in row["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel(a, b):
    return (a - b) / abs(b) if b else 0.0


def verdict(base, new, better, bound):
    bq1, bmed, bq3 = summary(base)
    nq1, nmed, nq3 = summary(new)
    # Quartile spread as a share of the median, the wider side's.
    spread = max(abs((bq3 - bq1) / bmed) if bmed else 0.0,
                 abs((nq3 - nq1) / nmed) if nmed else 0.0)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * rel(nmed, bmed)  # > 0: the new side is worse
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "improved", worse
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "regression" if worse > bound else "unresolved", worse
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if -worse > spread:
        return "improved", worse
    return "same", worse


def fmt(values):
    q1, med, q3 = summary(values)
    return f"{med:>12.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        print(f"  {'metric':<18} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'change':>8}  verdict")
        b, n = base[workload].get(0, {}), new[workload].get(0, {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b or name not in n:
                continue
            v, worse = verdict(b[name], n[name], m["better"], m["bound"])
            regressed |= v == "regression"
            change = rel(statistics.median(n[name]), statistics.median(b[name]))
            print(f"  {name:<18} {fmt(b[name]):>34} {fmt(n[name]):>34} "
                  f"{change:>+8.1%}  {v} (bound {m['bound']:.0%}, "
                  f"runs {len(b[name])}/{len(n[name])})")
        bt, nt = base[workload].get(1, {}), new[workload].get(1, {})
        if bt and nt:
            print(f"  {'per-layer (traced)':<30} {'base':>12} {'new':>12} "
                  f"{'change':>8}")
            for m in spec["per_layer"]:
                name = m["name"]
                if name not in bt or name not in nt:
                    continue
                bm, nm = statistics.median(bt[name]), statistics.median(nt[name])
                print(f"  {name:<30} {bm:>12.5g} {nm:>12.5g} "
                      f"{rel(nm, bm):>+8.1%}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
