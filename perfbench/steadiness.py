#!/usr/bin/env python3
"""The benchmark's own steadiness test. Run from the root of a checkout:

    python3 perfbench/steadiness.py

For every workload it
  1. runs the same seed twice: every virtual-time metric (unit starting with
     "v") must read exactly the same, except seq_write_MBps, whose spread
     between the two runs is reported instead (background flushers run on
     their own lanes, so host thread order reaches its virtual time);
  2. runs a second seed: the generated inputs (the "inputs" digest the
     benchmark prints) must differ, and every output check must pass.
It exits non-zero if any of this fails. HELD_OUT_SEED is never used while
tuning: a later claim of a gain must also hold on it.
"""
import json
import os
import subprocess
import sys

WORKLOADS = ("attach_session", "tool_io", "slim_deploy")
NONDETERMINISTIC = {"seq_write_MBps"}
HELD_OUT_SEED = 7919
SECONDS = 5
SEED = 1
OTHER_SEED = 2


def run(workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    lines = out.strip().splitlines()
    digest = next(l.split()[-1] for l in lines if l.startswith("workload "))
    return digest, json.loads(lines[-1])


def main():
    problems = []
    for w in WORKLOADS:
        d1, r1 = run(w, SEED)
        d2, r2 = run(w, SEED)
        d3, r3 = run(w, OTHER_SEED)
        print("%s: inputs %s (seed %d) %s (seed %d)" % (w, d1, SEED, d3, OTHER_SEED))
        for name, m in r1["metrics"].items():
            if not m["unit"].startswith("v"):
                continue
            a, b = m["value"], r2["metrics"][name]["value"]
            if name in NONDETERMINISTIC:
                spread = abs(a - b) / max(abs(a), abs(b), 1e-300)
                print("  %-18s %.6g vs %.6g  spread %.2f%%" % (name, a, b, 100 * spread))
            elif a != b:
                problems.append("%s %s: %r then %r with one seed" % (w, name, a, b))
        if d1 != d2:
            problems.append("%s: one seed generated two different inputs" % w)
        if d3 == d1:
            problems.append("%s: seeds %d and %d generated the same inputs"
                            % (w, SEED, OTHER_SEED))
        for seed, r in ((SEED, r1), (SEED, r2), (OTHER_SEED, r3)):
            if not r["correct"] or r["failed"] != 0:
                problems.append("%s seed %d: %d of %d ops failed"
                                % (w, seed, r["failed"], r["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("steadiness: %s (held-out seed %d)" % ("FAIL" if problems else "ok", HELD_OUT_SEED))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
