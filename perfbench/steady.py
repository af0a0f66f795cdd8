#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json in sets of runs (one seed per
run, the same seeds in every set), then prints for every workload and
end-to-end metric the median and quartiles of each set, the quartile spread
as a share of the median against the metric's bound, and whether the sets
agree within the bound. It also checks that every run was correct and that
the exact simulation counts of one seed repeat in every set.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads alg1_wide --runs 5 --sets 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - start
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    counts = next((json.loads(l)["counts"] for l in lines if l.startswith('{"counts"')), None)
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), None)
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "wall_s": wall,
            "result": result, "counts": counts, "host": host,
            "stderr": proc.stderr[-2000:]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="", help="comma-separated; default: all")
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--out", default=os.path.join("perfbench", "out", "steady.json"))
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    metrics = bench["end_to_end"]
    seeds = [opts.first_seed + i for i in range(opts.runs)]

    runs = []
    ok = True
    for s in range(opts.sets):
        for seed in seeds:
            for w in workloads:
                r = run_once(command, w, seed, seconds, 0)
                r["set"] = s
                runs.append(r)
                res = r["result"]
                good = r["exit"] == 0 and res is not None and res.get("correct") is True \
                    and res.get("failed") == 0
                status = "ok" if good else "FAILED"
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in (res or {}).get("metrics", {}).items())
                print(f"set {s} {w:<14} seed {seed:<4} {status} {r['wall_s']:6.1f}s  {vals}", flush=True)
                if not good:
                    ok = False
                    sys.stderr.write(r["stderr"])

    host = next((r["host"] for r in runs if r["host"]), {})
    print(f"\nhost: {json.dumps(host)}")
    print(f"{'workload':<14} {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'verdict'}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(opts.sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["set"] == s and r["workload"] == w and r["result"]
                        and name in r["result"]["metrics"]]
                if not vals:
                    print(f"{w:<14} {name:<12} {s:>3} missing")
                    ok = False
                    continue
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                if name == "setup_s":
                    verdict = "not gated"
                elif spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"{w:<14} {name:<12} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.3f} {verdict}")
            for s in range(1, len(medians)):
                change = medians[s] / medians[0] - 1.0
                worse = change if m["better"] == "lower" else -change
                agree = worse <= bound
                ok = ok and agree
                print(f"{w:<14} {name:<12} set {s} vs 0: {change:+.3f} "
                      f"({'agree' if agree else 'DISAGREE'} within {bound})")

    # Exact counts must repeat for one seed in every set.
    repeated = True
    for w in workloads:
        for seed in seeds:
            counts = [json.dumps(r["counts"], sort_keys=True) for r in runs
                      if r["workload"] == w and r["seed"] == seed]
            if len(set(counts)) > 1:
                repeated = False
                print(f"{w} seed {seed}: exact counts differ between sets")
    if opts.sets > 1 and repeated:
        print("exact counts repeat across sets for every seed")
    ok = ok and repeated

    os.makedirs(os.path.dirname(opts.out), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump({"host": host, "seconds": seconds, "runs": runs}, f, indent=1)
    print("\nPASS: every run correct, spreads within bounds, sets agree" if ok
          else "\nFAIL: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
