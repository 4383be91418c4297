#!/usr/bin/env python3
"""TE-interval benchmark: builds the program and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--save FILE]
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
megate libraries it drives from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr. The program's stdout is passed through, so
the last line printed is the JSON result; --save FILE also appends that
result, tagged with workload, seed and trace, to FILE (JSON lines) for
perfbench/compare.py. The exit code is the program's: non-zero when the
build fails or any output fails its correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.getcwd(), path, "perfbench")


def build(out):
    """Configures (once) and builds the program; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs cmd, echoing its stdout; returns (exit code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, last
    for line in out.splitlines():
        if line.strip():
            last = line
        print(line)
    return proc.returncode, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append the tagged result to this file")
    ap.add_argument("--selftest", action="store_true",
                    help="run the input-determinism test instead")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "inputs_test")]).returncode

    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    code, last = run([os.path.join(out, "te_interval"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--trace-dir", traces])
    if args.save and last.startswith("{"):
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace,
                                "result": json.loads(last)}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
