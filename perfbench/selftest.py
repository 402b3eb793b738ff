#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Expectations, each a short run through perfbench/run.py:
  - a healthy run of every workload is correct with zero failures;
  - each known-bad injection makes its run fail: a dropped frontier
    index (sweep_cold), a flipped byte of an expected reply
    (serve_interactive, serve_analysis) and refused requests
    (serve_interactive);
  - the same seed generates byte-identical inputs and another seed
    different ones (perfbench --inputs-hash);
  - a traced run reports every per-layer metric and its trace passes
    tools/check_trace.py (run.py marks the run incorrect otherwise).
Prints one line per expectation and exits 1 if any does not hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
SECONDS = "2"


def run(workload, seed=7, trace=0, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selftest: run.py failed: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def inputs_hash(workload, seed):
    done = subprocess.run([BINARY, "--inputs-hash", "--workload", workload,
                           "--seed", str(seed)], capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)["inputs_hash"]


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in ("sweep_cold", "serve_interactive", "serve_analysis"):
        r = run(workload)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               f"healthy {workload}: correct, {r['failed']} of "
               f"{r['attempted']} failed")
        for seed_a, seed_b, same in ((7, 7, True), (7, 8, False)):
            equal = inputs_hash(workload, seed_a) == inputs_hash(workload,
                                                                 seed_b)
            expect(equal == same,
                   f"{workload} inputs of seeds {seed_a} and {seed_b} are "
                   f"{'identical' if same else 'different'}")

    for workload, inject in (("sweep_cold", "drop_frontier"),
                             ("serve_interactive", "flip_oracle"),
                             ("serve_analysis", "flip_oracle"),
                             ("serve_interactive", "refuse")):
        r = run(workload, inject=inject)
        expect(not r["correct"] and r["failed"] > 0,
               f"{inject} on {workload} fails the run "
               f"({r['failed']} of {r['attempted']} failed)")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    r = run("serve_interactive", trace=1)
    expect(r["correct"] and set(r["metrics"]) == per_layer,
           "traced run reports every per-layer metric, trace schema valid")

    if failures:
        print(f"selftest: {len(failures)} expectation(s) failed")
        sys.exit(1)
    print("selftest: all expectations hold")


if __name__ == "__main__":
    main()
