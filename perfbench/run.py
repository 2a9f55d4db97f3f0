#!/usr/bin/env python3
"""Build the ckptfi benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload fig4-predict --seed 1 --seconds 5 --trace 0

Run it from the root of a ckptfi checkout. The first run configures and
builds perfbench/ (the library sources plus the driver) into .bench_build/;
later runs only re-check the build. The driver's output is passed through;
its last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Extra flags: --tiny (self-test scale), --tamper (self-test hook that corrupts
one artifact row, so the digest check must fail).

A copy of every run's record (host fingerprint, artifact crc, result) is kept
in .bench_build/results/ for compare.py.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table4-train", "fig4-predict", "ckpt-files")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "cmake")


def call(cmd, timeout=None, **kw):
    """Runs cmd to completion; kills it if this script is stopped first."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ckptfi sources under {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "ckptfi_bench", "ckptfi_worker"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if call(cmd, stdout=sys.stderr, stderr=sys.stderr):
            fail("build failed: " + " ".join(cmd))


def pinned_crc(workload, seed, tiny):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["pins"]
    key = ("tiny/" if tiny else "") + workload
    return pins.get(key, {}).get(str(seed), "")


def main():
    # A terminated run.py must not leave its build or driver running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    build(bdir)

    name = (f"{'tiny-' if args.tiny else ''}{args.workload}"
            f"-s{args.seed}-t{args.trace}")
    out_dir = os.path.join(bdir, "runs", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [os.path.join(bdir, "ckptfi_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
    crc = pinned_crc(args.workload, args.seed, args.tiny)
    if crc:
        cmd += ["--expect-crc", crc]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper:
        cmd.append("--tamper")

    sys.stdout.flush()
    try:
        returncode = call(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Generated checkpoints are inputs, not results; drop them.
        shutil.rmtree(os.path.join(out_dir, "ckpt"), ignore_errors=True)
    if returncode != 0:
        print(f"perfbench: driver exited with {returncode}", file=sys.stderr)
        sys.exit(returncode)

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    shutil.copyfile(os.path.join(out_dir, "result.json"),
                    os.path.join(results, name + ".json"))


if __name__ == "__main__":
    main()
