#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
.bench_build/, runs the in-process program, and prints as the last line
of stdout one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics, taken
from a traced run (spans written to .bench_build/out/ as
chrome://tracing JSON) next to an untraced run of the same seed.
Build logs and diagnostics go to stderr.  See perfbench/NOTES.md.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sweep_cold", "serve_interactive", "serve_analysis")
# Fresh processes that measure Service set-up, besides the main run's
# own; setup_s is the median of all of them.
SETUP_CHILDREN = 4
# A stage sum further than this from its total is flagged.
RECONCILE_TOLERANCE = 0.05
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", BUILD, "--target", "perfbench",
              "--parallel", "3"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def drive(*args):
    """Run perfbench once; return its parsed result line."""
    cmd = [BINARY, *args]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def trace_errors(path):
    """Schema errors of a chrome://tracing file (tools/check_trace.py)."""
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    if not os.path.isfile(checker):
        return [f"{checker} not found"]
    spec = importlib.util.spec_from_file_location("check_trace", checker)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate(path, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Known-bad self-tests (perfbench/selftest.py); never used by runs.
    parser.add_argument("--inject", default=None,
                        choices=("drop_frontier", "flip_oracle", "refuse"))
    args = parser.parse_args()

    spec = load_spec()
    build()
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds)]
    if args.inject:
        run_args += ["--inject", args.inject]

    untraced = drive(*run_args)
    runs = [untraced]
    print(f"perfbench: {args.workload} seed {args.seed} inputs "
          f"{untraced['inputs_hash']}", file=sys.stderr)
    problems = list(untraced["errors"])

    if args.trace == 0:
        values = dict(untraced["end_to_end"])
        if args.workload != "sweep_cold":
            # Service set-up happens once per process: measure it in
            # fresh processes too and report the median.
            setups = [values["setup_s"]]
            setups += [drive("--setup-only")["setup_s"]
                       for _ in range(SETUP_CHILDREN)]
            values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    else:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")
        traced = drive(*run_args, "--trace-file", trace_path)
        runs.append(traced)
        problems += traced["errors"]
        problems += trace_errors(trace_path)
        values = dict(traced["per_layer"])
        values["obs.trace_overhead"] = (traced["end_to_end"]["latency_ms"] /
                                        untraced["end_to_end"]["latency_ms"])
        for name in ("obs.sweep_stage_sum_ratio", "serve.stage_sum_ratio"):
            if abs(values[name] - 1.0) > RECONCILE_TOLERANCE:
                print(f"perfbench: RECONCILE {name} = {values[name]:.4f} "
                      f"misses 1 by more than {RECONCILE_TOLERANCE:.0%}",
                      file=sys.stderr)
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"perfbench did not report {missing}")
    for problem in problems[:8]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in runs) and not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
