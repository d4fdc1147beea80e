#!/usr/bin/env python3
"""Seed-to-seed spread report for the benchmark.

Runs the benchmark once per seed on each workload, as the command in
BENCHMARK.json at its run_seconds, and prints for every end-to-end metric
its median, first and third quartiles (statistics.quantiles(values, n=4)),
and the spread (q3 - q1) / median next to the metric's bound. For the virtual-time
latency metrics it also prints the sample count and the samples beyond
each percentile. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workload tpcc-8r --seeds 1-5 --out spread.json
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

LAT = re.compile(r"^v_(read|write): n=(\d+) p50=([\d.]+)ms \((\d+) beyond\) p([\d.]+)=([\d.]+)ms \((\d+) beyond\)")


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    samples = {}
    for line in lines:
        m = LAT.match(line)
        if m:
            cls, n, p50, beyond50, q, tail, beyond_tail = m.groups()
            samples[cls] = {"n": int(n), "p50_ms": float(p50), "beyond_p50": int(beyond50),
                            "tail_q": float(q), "tail_ms": float(tail), "beyond_tail": int(beyond_tail)}
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "samples": samples}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", help="workload (repeatable); default all")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in args.seeds:
            r = run(bench, w, seed)
            runs.append(r)
            print(f"{w} seed={seed} {r['elapsed_s']:.1f}s " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["result"]["metrics"].items())),
                  flush=True)
        report[w] = runs
        print(f"\n{w}: {len(runs)} seeds, {min(r['elapsed_s'] for r in runs):.1f}-"
              f"{max(r['elapsed_s'] for r in runs):.1f}s per run")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bounds[name]:>6}{flag}")
        for cls in ("read", "write"):
            s = [r["samples"][cls] for r in runs if cls in r["samples"]]
            if s:
                print(f"  v_{cls}: n {min(x['n'] for x in s)}-{max(x['n'] for x in s)}, "
                      f"p50 has {min(x['beyond_p50'] for x in s)}+ beyond, "
                      f"tail p{min(x['tail_q'] for x in s):g}-p{max(x['tail_q'] for x in s):g} "
                      f"has {min(x['beyond_tail'] for x in s)}+ beyond, "
                      f"tail {min(x['tail_ms'] for x in s):g}-{max(x['tail_ms'] for x in s):g}ms")
        print(flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
