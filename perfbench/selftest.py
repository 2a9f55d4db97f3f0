#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks that every per-layer metric in BENCHMARK.json matches exactly one
entry of layer_map.json, and that entry names end-to-end metrics and
workloads of BENCHMARK.json; and, for every workload in BENCHMARK.json:
  - an untraced run passes its digest check and prints every end-to-end
    metric with its unit;
  - a traced run prints every per-layer metric with its unit, and its
    traced rows equal its untraced rows;
  - a run with one tampered artifact row fails its digest check.
That every per-layer metric is measured (not filled in as 0) by at least
one workload's traced run. And that run.py exits non-zero, printing no
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import fnmatch
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics(result, wanted, what):
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    check(not missing, f"{what}: every metric printed {missing or ''}")
    wrong = [m["name"] for m in wanted
             if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    check(not wrong, f"{what}: units match BENCHMARK.json {wrong or ''}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layers = json.load(f)["layers"]
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]} | {"none"}
    names = [m["name"] for m in bench["per_layer"]]

    def entries_of(name):
        return [e for e in layers
                if any(fnmatch.fnmatchcase(name, p) for p in e["metrics"])]

    unmapped = [n for n in names if len(entries_of(n)) != 1]
    check(not unmapped, f"every per-layer metric matches one layer_map.json "
          f"entry {unmapped or ''}")
    bad = [e["layer"] for e in layers
           if not e["moves"] or any(t["metric"] not in e2e or
                                    t["workload"] not in workloads
                                    for t in e["moves"])]
    check(not bad, f"every entry names end-to-end metrics and workloads of "
          f"BENCHMARK.json {bad or ''}")
    stale = [p for e in layers for p in e["metrics"]
             if not fnmatch.filter(names, p)]
    check(not stale, f"every layer_map.json pattern matches a metric "
          f"{stale or ''}")

    unmeasured = set(names)
    for w in bench["workloads"]:
        name = w["name"]
        proc = run(name, 0)
        res = last_json(proc)
        check(proc.returncode == 0 and res is not None, f"{name}: runs")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{name}: digest check passes")
        check_metrics(res, bench["end_to_end"], name)

        proc = run(name, 1)
        res = last_json(proc)
        check(proc.returncode == 0 and res is not None, f"{name}: traced run")
        check("traced rows == untraced rows: yes" in proc.stdout and
              res["correct"], f"{name}: traced rows equal untraced rows")
        check_metrics(res, bench["per_layer"], name + " traced")
        for line in proc.stdout.splitlines():
            if line.startswith("not exercised by this workload"):
                unmeasured &= set(line.split(":", 1)[1].split())

        proc = run(name, 0, "--tamper")
        res = last_json(proc)
        check(proc.returncode == 0 and res is not None and
              not res["correct"] and res["failed"] > 0,
              f"{name}: a tampered row fails the digest check")

    check(not unmeasured, f"every per-layer metric is measured by some "
          f"workload {sorted(unmeasured) or ''}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = proc.stdout.strip().startswith("{")
    check(proc.returncode != 0 and not printed_result,
          "without the sources: non-zero exit, no result")


if __name__ == "__main__":
    main()
