#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

    python3 perfbench/ledger.py [--workloads fit-http,serve-http]
        [--runs 10] [--seed0 1] [--trace 0] [--save FILE] [--compare FILE]

For every workload and every end-to-end metric (per-layer with --trace 1)
prints the median over the runs, the interquartile range as a share of
the median (as Python's statistics.quantiles(values, n=4) gives it) and the
metric's bound from BENCHMARK.json. --save writes the raw values as JSON;
--compare reads such a file and flags every metric whose median got worse
than the saved one by more than its bound. Exits non-zero if a run fails,
a spread exceeds its bound or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# FAILED"):
            print(f"  {workload} seed {seed}: {line[2:]}", file=sys.stderr)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    p.add_argument("--compare")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if a.trace else "end_to_end"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    saved = {}
    if a.compare:
        with open(a.compare) as f:
            saved = json.load(f)

    ok = True
    values = {}
    for w in workloads:
        values[w] = {m["name"]: [] for m in declared}
        for seed in range(a.seed0, a.seed0 + a.runs):
            r = run_once(w, seed, spec["run_seconds"], a.trace)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"  {w} seed {seed}: {r['failed']} of {r['attempted']} failed",
                      file=sys.stderr)
            for m in declared:
                values[w][m["name"]].append(r["metrics"][m["name"]]["value"])
        print(f"{w}: {a.runs} runs from seed {a.seed0}")
        for m in declared:
            v = values[w][m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            line = f"  {m['name']:<28} {med:>16.6g} {m['unit']:<9} spread {100 * share:6.2f}%"
            if bound is not None:
                line += f"  bound {100 * bound:.0f}%"
                if share > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                elif share > bound / 3:
                    line += "  (over a third of the bound)"
                old = saved.get(w, {}).get(m["name"])
                if old:
                    base = statistics.median(old)
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    line += f"  vs saved {100 * worse:+.2f}%"
                    if worse > bound:
                        ok = False
                        line += "  WORSE THAN BOUND"
            print(line)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
