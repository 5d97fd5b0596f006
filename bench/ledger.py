#!/usr/bin/env python3
"""Count ledger: diff the deterministic per-layer counts of the traced
benchmark against the committed baseline BENCH_counts.json.

    python3 bench/ledger.py            # compare; exit 1 and print the diff
    python3 bench/ledger.py --write    # re-promote the baseline

For each workload (oneshot, serve, batch) this runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 2 --trace 1

whose traced run executes a fixed op count, so every count-type metric
(unit "count" or "words", gc.* excluded, as in perfbench/selftest.py) and
the op count repeat exactly at one seed.  Wall times are not compared.
A change that moves a count re-promotes the baseline in its own commit
and states the diff.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_counts.json")
SCHEMA = 1
SEED = 7
SECONDS = 2
WORKLOADS = ("oneshot", "serve", "batch")
EXACT_UNITS = ("count", "words")


def measure(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(r.stderr)
        raise SystemExit("ledger: %s printed no result (exit %d)"
                         % (workload, r.returncode))
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] in EXACT_UNITS and not k.startswith("gc.")}
    return {"correct": result["correct"], "ops": result["attempted"],
            "failed": result["failed"], "counts": counts}


def diff(base, new):
    lines = []
    for w in WORKLOADS:
        b, n = base["workloads"].get(w), new["workloads"][w]
        if b is None:
            lines.append("%s: not in the baseline" % w)
            continue
        for key in ("correct", "ops", "failed"):
            if b[key] != n[key]:
                lines.append("%s %s: %s -> %s" % (w, key, b[key], n[key]))
        for k in sorted(set(b["counts"]) | set(n["counts"])):
            bv, nv = b["counts"].get(k), n["counts"].get(k)
            if bv != nv:
                lines.append("%s %s: %s -> %s" % (w, k, bv, nv))
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="overwrite the baseline with this tree's counts")
    a = p.parse_args()
    new = {"schema": SCHEMA, "seed": SEED, "seconds": SECONDS,
           "command": "python3 perfbench/run.py --trace 1",
           "workloads": {w: measure(w) for w in WORKLOADS}}
    if a.write:
        with open(BASELINE, "w") as f:
            json.dump(new, f, indent=1, sort_keys=True)
            f.write("\n")
        print("ledger: wrote %s" % os.path.relpath(BASELINE, ROOT))
        return
    with open(BASELINE) as f:
        base = json.load(f)
    if base.get("schema") != SCHEMA:
        raise SystemExit("ledger: baseline schema %s, expected %d"
                         % (base.get("schema"), SCHEMA))
    lines = diff(base, new)
    for line in lines:
        print(line)
    if lines:
        raise SystemExit("ledger: %d count(s) differ from %s"
                         % (len(lines), os.path.basename(BASELINE)))
    print("ledger: counts identical to the baseline")


if __name__ == "__main__":
    main()
