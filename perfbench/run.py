#!/usr/bin/env python3
"""Builds the wafe frontend benchmark from source and runs it.

Run from the root of a wafe checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call configures and builds perfbench/ (which compiles the wafe
libraries in src/) into .bench_build/perfbench; later calls only rebuild
what changed. The benchmark's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run, whose spans go to
.bench_build/perfbench/spans-<workload>-<seed>.json. `--workload all` runs
every workload in turn and ends with one JSON object whose metric names are
prefixed with the workload. The exit code is non-zero when the build fails,
an operation or output check fails, or the benchmark does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("interactive", "stream", "churn")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no wafe sources (src/CMakeLists.txt) here; run from the root of a wafe checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "perfbench_backend"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run_workload(args, workload):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_DIR, "spans-%s-%d.json" % (workload, args.seed))]
    if args.burn_pct:
        cmd += ["--burn-pct", str(args.burn_pct)]
    if args.fault:
        cmd.append("--fault")
    # The frontend reports each malformed stream line on stderr too; keep
    # that chatter in a log instead of the terminal.
    with open(os.path.join(BUILD_DIR, "run-%s.log" % workload), "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("%s: did not finish within %d s" % (workload, RUN_TIMEOUT_S))
            return 1, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        print(proc.stdout, end="", file=sys.stderr)
        log("%s: exited %d without a result line" % (workload, proc.returncode))
        return proc.returncode or 1, None
    return proc.returncode, (lines[:-1], result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--burn-pct", type=float, default=0,
                        help="spin this extra share of each operation's time (self-test)")
    parser.add_argument("--fault", action="store_true",
                        help="break one output check on purpose; the run must fail")
    args = parser.parse_args()
    if not build():
        return 2

    if args.workload != "all":
        code, out = run_workload(args, args.workload)
        if out is None:
            return code
        for line in out[0]:
            print(line)
        print(json.dumps(out[1]))
        return code

    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print("== " + workload)
        rc, out = run_workload(args, workload)
        code = code or rc
        if out is None:
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            continue
        for line in out[0]:
            print(line)
        result = out[1]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
