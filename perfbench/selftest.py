#!/usr/bin/env python3
"""The benchmark's own test, at a reduced size (--seconds 2).

For every workload: two traced runs at one seed must both be correct and
report identical count-type per-layer metrics (pivots, nodes, refactors,
witnesses, rows, rows removed, cuts, appends, rebuilds, minor words); a
run at a second seed must be correct too, traced and untraced.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that depend only on the inputs.  The gc.* figures are left out:
# serve replies print solve times, so their allocation varies by a few words.
EXACT_UNITS = ("count", "words")


def run(workload, seed, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if r.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stderr.write(r.stderr)
        raise SystemExit("FAIL %s seed %d trace %d: exit %d, %d failed"
                         % (workload, seed, trace, r.returncode,
                            result["failed"]))
    return result["metrics"]


def main():
    for workload in ("oneshot", "serve", "batch"):
        a = run(workload, 1, 1)
        b = run(workload, 1, 1)
        diffs = [k for k, m in a.items()
                 if m["unit"] in EXACT_UNITS and not k.startswith("gc.")
                 and m["value"] != b[k]["value"]]
        if diffs:
            raise SystemExit("FAIL %s: counts differ between same-seed runs: %s"
                             % (workload, ", ".join(
                                 "%s %s vs %s" % (k, a[k]["value"], b[k]["value"])
                                 for k in diffs)))
        run(workload, 2, 1)
        run(workload, 2, 0)
        print("ok %s" % workload, flush=True)


if __name__ == "__main__":
    main()
