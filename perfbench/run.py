#!/usr/bin/env python3
"""Repository benchmark: build the program from this checkout and run one
workload in its own process.

    python3 perfbench/run.py --workload oneshot|serve|batch --seed N \
        --seconds S --trace 0|1

--trace 0 prints every end-to-end metric of BENCHMARK.json.  --trace 1 runs
the workload's fixed op count twice, untraced and then traced (each in its
own process), and prints every per-layer metric; the traced run checks its
answers against the untraced one, reports its overhead against it, and
writes a Chrome trace to perfbench/out/.  The last line of standard output
is the result as one JSON object.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("oneshot", "serve", "batch")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program sources next to the benchmark (dune-project, lib/)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        die("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def run(exe, args, timeout):
    """Run one workload process; echo its log, return (exit code, result)."""
    try:
        r = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload process exceeded %d s" % timeout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        die("workload process printed no result (exit %d)" % r.returncode)


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    exe = build()
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    if a.trace == 0:
        code, result = run(exe, base + ["--trace", "0"], 170)
        correct = result["correct"]
    else:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, "%s-%d" % (a.workload, a.seed))
        fixed = base + ["--fixed-ops", "--answers", stem + ".answers"]
        code0, untraced = run(exe, fixed + ["--trace", "0"], 85)
        op_s = untraced["attempted"] / untraced["metrics"]["ops_per_s"]["value"]
        code, result = run(exe, fixed + [
            "--trace", "1", "--base-op-s", repr(op_s),
            "--trace-file", stem + ".trace.json"], 85)
        correct = untraced["correct"] and result["correct"]
        code = code or code0
    names = list(result["metrics"])
    if names != expected_names(a.trace):
        die("metric names differ from BENCHMARK.json: %s" % names, 3)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if correct and code == 0 else 1)


if __name__ == "__main__":
    main()
