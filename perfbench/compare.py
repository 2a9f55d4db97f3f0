#!/usr/bin/env python3
"""Read benchmark result records (the .bench_build/cmake/results/*.json files
run.py keeps) and judge them against BENCHMARK.json.

    python3 perfbench/compare.py spread DIR
        Per workload x end-to-end metric: median, quartiles and the quartile
        spread as a share of the median, against the metric's bound.
        Exits 1 if any spread exceeds its bound.

    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR
        Pairs parent and change runs by (workload, seed) and prints, per
        workload x end-to-end metric, both sides' medians and quartiles, the
        change's win share over the pairs, and a verdict:
          improved   the change wins >= 9/10 of the pairs and the medians
                     differ by more than the parent's quartile spread;
          worse      the change's median is worse than the parent's by more
                     than the bound;
          unresolved the parent's own spread exceeds the bound and not every
                     change run beats every parent run;
          no worse   otherwise.
        Exits 1 on any "worse" or on any run that failed its digest check.

Only untraced (--trace 0) records are compared.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(path):
    """{workload: {seed: result}} of the untraced records under path."""
    out = {}
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    for fname in files:
        with open(fname) as f:
            rec = json.load(f)
        if rec.get("trace") or rec.get("tiny"):
            continue
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def spread(args):
    bench = load_bench()
    records = load_records(args[0])
    bad = 0
    print(f"{'workload':14} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for workload in sorted(records):
        results = list(records[workload].values())
        for m in bench["end_to_end"]:
            vals = values_of(results, m["name"])
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med if med else float("inf")
            flag = ""
            if share > m["bound"]:
                flag, bad = "  OVER BOUND", bad + 1
            elif share > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"{workload:14} {m['name']:18} {len(vals):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {share:8.4f} {m['bound']:6.3f}{flag}")
        failed = sum(r["failed"] for r in results)
        if failed or not all(r["correct"] for r in results):
            print(f"{workload}: {failed} failed trials / incorrect runs")
            bad += 1
    return 1 if bad else 0


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, bound, direction):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_share = wins / len(pairs)
    worse_by = (pm - cm) / pm if direction == "higher" else (cm - pm) / pm
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if win_share >= 0.9 and abs(cm - pm) > (p3 - p1) and better(cm, pm,
                                                                 direction):
        return "improved", win_share
    if worse_by > bound:
        return "worse", win_share
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", win_share
    return "no worse", win_share


def compare(args):
    bench = load_bench()
    parent, change = load_records(args[0]), load_records(args[1])
    status = 0
    print(f"{'workload':14} {'metric':18} {'pairs':>5} {'parent med':>12} "
          f"{'[q1, q3]':>25} {'change med':>12} {'[q1, q3]':>25} "
          f"{'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]), key=int)
        if not seeds:
            continue
        pr = [parent[workload][s] for s in seeds]
        cr = [change[workload][s] for s in seeds]
        for side, rs in (("parent", pr), ("change", cr)):
            if any(r["failed"] or not r["correct"] for r in rs):
                print(f"{workload}: {side} runs failed their digest check")
                status = 1
        for m in bench["end_to_end"]:
            pv, cv = values_of(pr, m["name"]), values_of(cr, m["name"])
            v, share = verdict(pv, cv, m["bound"], m["better"])
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:14} {m['name']:18} {len(seeds):5d} "
                  f"{pq[1]:12.6g} [{pq[0]:11.5g}, {pq[2]:11.5g}] "
                  f"{cq[1]:12.6g} [{cq[0]:11.5g}, {cq[2]:11.5g}] "
                  f"{share:5.2f}  {v}")
            if v == "worse":
                status = 1
    return status


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        sys.exit(spread(sys.argv[2:]))
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    main()
