#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, in alternating order.

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), and whether
the two sets agree within the bounds in BENCHMARK.json:

- each set's spread is within the metric's bound, except for setup_s;
- the two sets' medians differ by no more than the bound, in either
  direction (|B - A| / A), setup_s included;
- the share of failed operations is identical in both sets, and every run
  was correct.

setup_s is the one metric whose spread is printed but not gated. Set-up
lasts a few seconds of a run, so between runs it rides the host's speed
drift whole, with no run-long median to damp it. Its median agreement is
gated like every other metric's.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

--runs is the number of runs per set (at least 4); --workloads picks a
subset of the workloads in BENCHMARK.json (default: all). Every run lasts
BENCHMARK.json's run_seconds. Set A uses seeds 1..runs and set B seeds
101..100+runs; runs alternate A,B then B,A. Exits non-zero when any check
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4")

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(names)
        if unknown:
            parser.error(f"unknown workloads: {sorted(unknown)}")
        names = args.workloads.split(",")
    ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        seeds = {"A": list(range(1, args.runs + 1)),
                 "B": list(range(101, 101 + args.runs))}
        order = ["A", "B"]
        for i in range(args.runs):
            for side in (order if i % 2 == 0 else order[::-1]):
                result, wall = run_once(bench["command"], workload,
                                        seeds[side][i], seconds)
                sets[side].append(result)
                values = " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items())
                print(f"{workload} set {side} seed {seeds[side][i]}: "
                      f"{wall:.1f}s wall, attempted {result['attempted']}, "
                      f"failed {result['failed']}, correct {result['correct']}, "
                      f"{values}", file=sys.stderr)
        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each")
        print(f"{'metric':<16}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = {}
            for side in order:
                values = [r["metrics"][name]["value"] for r in sets[side]]
                q1, q2, q3, sp = spread(values)
                medians[side] = q2
                verdict = "ok"
                if name == "setup_s":
                    if sp > bound:
                        verdict = "spread > bound (not gated)"
                elif sp > bound:
                    verdict, ok = "SPREAD > BOUND", False
                elif sp > bound / 3:
                    verdict = "spread > bound/3"
                print(f"{name:<16}{side:>4}{q1:>12.4f}{q2:>12.4f}{q3:>12.4f}"
                      f"{sp:>9.4f}{bound:>7.2f}  {verdict}")
            a, b = medians["A"], medians["B"]
            diff = abs(b - a) / a
            verdict = "agree" if diff <= bound else "DISAGREE"
            ok &= diff <= bound
            print(f"{name:<16}{'B/A':>4}{'':>36}{(b - a) / a:>+9.4f}"
                  f"{bound:>7.2f}  {verdict}")
        shares = {}
        for side in order:
            attempted = sum(r["attempted"] for r in sets[side])
            failed = sum(r["failed"] for r in sets[side])
            shares[side] = failed / attempted
            if not all(r["correct"] for r in sets[side]):
                print(f"set {side}: a run reported incorrect outputs")
                ok = False
        if len(set(shares.values())) != 1:
            print(f"failed shares differ: {shares}")
            ok = False
        print(f"failed share per set: {shares}")
    print("\nSTEADY" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
