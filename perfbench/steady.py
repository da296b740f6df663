#!/usr/bin/env python3
"""Steadiness check of the benchmark defined in BENCHMARK.json.

Runs every workload in two separate sets of ten runs (seeds 1-10, then
11-20) and prints, for every end-to-end metric, each set's median and
quartiles, the spread (interquartile distance over the median) and how far
the second set's median moved from the first's. The sets agree when every
spread stays within the metric's bound, no median moved by more than the
bound in either direction, every run was correct, and the share of failed
operations is the same in both sets.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --workloads accel-or8

Run it from the repository root; it exits 1 when the sets disagree. With
--workloads the verdict covers the named workloads only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = (range(1, 11), range(11, 21))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", default=os.path.join("perfbench", "out", "steady.json"))
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    report = {"seconds": bench["run_seconds"], "workloads": {}}
    agree = True
    for workload in workloads:
        entry = {"sets": [], "metrics": {}}
        for k, seeds in enumerate(SETS):
            results = []
            for seed in seeds:
                result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
                results.append(result)
                print(f"  {workload} set {k + 1} seed {seed}: {wall:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)
            entry["sets"].append({
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "correct": all(r["correct"] for r in results),
                "runs": [{m: v["value"] for m, v in r["metrics"].items()} for r in results],
            })
        shares = {s["failed"] / s["attempted"] for s in entry["sets"]}
        if len(shares) > 1 or not all(s["correct"] for s in entry["sets"]):
            agree = False
        print(f"\n{workload}  (failed/attempted per set: "
              + ", ".join(f"{s['failed']}/{s['attempted']}" for s in entry["sets"]) + ")")
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>8}{'moved':>9}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([run[name] for run in s["runs"]]) for s in entry["sets"]]
            a, b = stats[0]["median"], stats[1]["median"]
            # Signed: positive when set 2 is worse in the metric's direction.
            moved = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = all(s["spread"] <= bound for s in stats) and abs(moved) <= bound
            agree = agree and ok
            for k, s in enumerate(stats):
                tail = f"{moved:>+9.3f}  {'ok' if ok else 'OUT OF BOUND'}" if k == 1 else ""
                print(f"  {name if k == 0 else '':<16}{k + 1:>4}{s['median']:>14.6g}"
                      f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['spread']:>9.3f}{bound:>8.2f}{tail}")
            entry["metrics"][name] = {"bound": bound, "sets": stats, "moved": moved, "ok": ok}
        report["workloads"][workload] = entry
    report["agree"] = agree
    out = os.path.join(ROOT, opts.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{'AGREE' if agree else 'DISAGREE'}: the two sets "
          f"{'agree' if agree else 'do not agree'} within the bounds of BENCHMARK.json "
          f"on {', '.join(workloads)} (details in {opts.out})")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
