#!/usr/bin/env python3
"""Steadiness check and seeded-slowdown self-test for the frontend benchmark.

Run from the root of a wafe checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads stream --seconds 5
    python3 perfbench/steady.py --self-test --runs 5

The first form runs each workload --runs times, each with another seed, and
prints every end-to-end metric's median, quartiles and quartile spread
((q3 - q1) / median, as statistics.quantiles(n=4) gives them). A metric
whose spread exceeds its bound in BENCHMARK.json is flagged; one above a
third of its bound is marked, since a comparison of two medians is only
trustworthy when the spread sits well inside the bound.

--self-test shows that the comparison catches a real slowdown: per workload
it alternates unchanged runs with runs in which every operation spins an
extra 30% of its own time, then compares the two medians against the
bounds. It passes when every workload has a flagged metric, and when a run
with one output check broken on purpose (--fault) fails on every workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative when better)."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def steadiness(args, bench):
    flagged = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            code, result = run_once(workload, args.first_seed + i, args.seconds)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, args.first_seed + i, code))
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("== %s (%d runs, %s s each)" % (workload, args.runs, args.seconds))
        for m in bench["end_to_end"]:
            med, q1, q3, sp = spread(values[m["name"]])
            mark = ""
            if sp > m["bound"]:
                mark = "  FLAG: spread above bound"
                flagged += 0 if m["name"] == "setup_s" else 1
            elif sp > m["bound"] / 3:
                mark = "  (above bound/3)"
            print("  %-18s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %6.2f%% bound %4.0f%%%s"
                  % (m["name"], med, m["unit"], q1, q3, 100 * sp, 100 * m["bound"], mark))
    return 1 if flagged else 0


def self_test(args, bench):
    ok = True
    for workload in args.workloads:
        base = {m["name"]: [] for m in bench["end_to_end"]}
        slow = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            # Alternate which side runs first, so host drift hits both.
            order = [(base, ()), (slow, ("--burn-pct", "30"))]
            for values, extra in (order if i % 2 == 0 else order[::-1]):
                code, result = run_once(workload, seed, args.seconds, extra)
                if code != 0 or result is None:
                    print("%s seed %d: run failed (exit %d)" % (workload, seed, code))
                    return 1
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
        print("== %s: unchanged vs +30%% burn per operation (%d runs each)" % (workload, args.runs))
        caught = []
        for m in bench["end_to_end"]:
            b = statistics.median(base[m["name"]])
            s = statistics.median(slow[m["name"]])
            w = worse_by(m, b, s)
            flag = w > m["bound"]
            if flag:
                caught.append(m["name"])
            print("  %-18s %12.4f -> %12.4f %-4s worse by %6.2f%% bound %4.0f%%%s"
                  % (m["name"], b, s, m["unit"], 100 * w, 100 * m["bound"],
                     "  FLAGGED" if flag else ""))
        code, result = run_once(workload, args.first_seed, 1, ("--fault",))
        fault_caught = code != 0 and result is not None and not result["correct"]
        print("  seeded slowdown %s; broken output check %s (exit %d)"
              % ("caught by " + ", ".join(caught) if caught else "NOT CAUGHT",
                 "caught" if fault_caught else "NOT CAUGHT", code))
        ok = ok and bool(caught) and fault_caught
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    return self_test(args, bench) if args.self_test else steadiness(args, bench)


if __name__ == "__main__":
    sys.exit(main())
