#!/usr/bin/env python3
"""Compares bench_suite runs of two commits, metric by metric.

    python3 bench_suite/compare.py --parent p1.json p2.json ... \\
                                   --change c1.json c2.json ...

Each file is a suite JSON written by `bench_suite --json`. Give the runs in
the order they were made, alternating parent and change, so parent[i] and
change[i] form pair i. For every workload and metric the script prints each
side's median and quartiles and the share of pairs the change won (ties
count for neither side). The end-to-end metrics BENCHMARK.json bounds, plus
error_rate, get a verdict:

  improved      the change won at least 9/10 of the pairs and its median is
                better than the parent's by more than the parent's IQR
  worse         the change's median is worse than the parent's by more than
                the bound
  unresolved    the parent's runs spread wider than the bound (IQR over
                median), and not every change run beat every parent run
  within bound  none of the above

Bounds are relative to the parent's median; error_rate may not rise at all.
The other metrics of the suite JSON are printed without a verdict. Exits 1
if any verdict is "worse", 2 on bad input. Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, higher, bound, absolute):
    """Returns (share of pairs won, verdict) for one metric; no verdict
    (empty) when the metric has no bound."""
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if better(c, p)) / len(pairs)
    if bound is None:
        return won, ""
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    iqr = p3 - p1
    worse_by = (pmed - cmed) if higher else (cmed - pmed)
    if not absolute and pmed:
        worse_by /= abs(pmed)
        all_better = all(better(c, p) for c in change for p in parent)
        if iqr / abs(pmed) > bound and not all_better:
            return won, "unresolved"
    if won >= 0.9 and better(cmed, pmed) and abs(cmed - pmed) > iqr:
        return won, "improved"
    if worse_by > bound:
        return won, "worse"
    return won, "within bound"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="suite JSONs of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="suite JSONs of the change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"),
                    help="BENCHMARK.json holding the bounds")
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        print("compare.py: give as many change runs as parent runs (they pair up)",
              file=sys.stderr)
        sys.exit(2)
    parent, change = load(args.parent), load(args.change)
    tags = {(r["host_cores"], r["simd_isa"]) for r in parent + change}
    if len(tags) != 1:
        print("compare.py: runs differ in host_cores/simd_isa: %s" % sorted(tags), file=sys.stderr)
        sys.exit(2)
    with open(args.benchmark) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    bounds["error_rate"] = 0.0

    print("%-16s %-26s %28s %28s %6s  %s" % ("workload", "metric", "parent median [q1, q3]",
                                            "change median [q1, q3]", "won", "verdict"))
    any_worse = False
    for workload in parent[0]["workloads"]:
        metrics = parent[0]["workloads"][workload]["metrics"]
        for name, meta in metrics.items():
            try:
                p = [r["workloads"][workload]["metrics"][name]["value"] for r in parent]
                c = [r["workloads"][workload]["metrics"][name]["value"] for r in change]
            except KeyError:
                print("%-16s %-26s missing from some runs" % (workload, name))
                continue
            won, v = verdict(p, c, meta["better"] == "higher", bounds.get(name),
                             name == "error_rate")
            any_worse = any_worse or v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print("%-16s %-26s %12.4g [%6.4g, %6.4g] %12.4g [%6.4g, %6.4g] %5.0f%%  %s" % (
                workload, name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100 * won, v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
