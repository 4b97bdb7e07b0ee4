#!/usr/bin/env python3
"""Compares two source trees with the same benchmark code.

    python3 perfbench/compare.py --base ../parent --head .

Builds the benchmark binary from this perfbench/ against each tree's src/
(under .bench_build/compare-base and .bench_build/compare-head), then runs
every workload of BENCHMARK.json for its run_seconds in PAIRS alternating
pairs (the base first in even pairs, the head first in odd ones), one seed
per pair shared by both sides, starting at FIRST_SEED. For every workload it
prints each end-to-end metric's median and quartiles on both sides, the
share of pairs the head won (ties count for neither), and a verdict:

  better      the head won at least nine tenths of the pairs and the medians
              differ by more than the base's own quartile spread
  worse       the head's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the base's own spread is wider than the bound and not every
              head run beat every base run
  same        otherwise

It then runs TRACE_PAIRS traced pairs and prints the per-layer metrics
side by side, the layers whose self time moved most first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 10  # the "better" verdict's nine-tenths rule needs ten
TRACE_PAIRS = 2
FIRST_SEED = 1000


def run(side, tree, workload, seed, seconds, trace):
    build = os.path.join(ROOT, ".bench_build", f"compare-{side}")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--src", tree, "--build", build],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"compare.py: {side} {workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {side} {workload} seed {seed}: incorrect outputs")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed_share"] = result["failed"] / result["attempted"]
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    worse_by = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
    spread = (b3 - b1) / bmed if bmed else 0.0
    all_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    if wins >= 0.9 * len(base) and abs(hmed - bmed) > (b3 - b1):
        label = "better"
    elif worse_by > metric["bound"]:
        label = "worse"
    elif spread > metric["bound"] and not all_better:
        label = "unresolved"
    else:
        label = "same"
    return wins, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent source tree")
    parser.add_argument("--head", required=True, help="changed source tree")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}

    for workload in workloads:
        samples = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                samples[side].append(run(side, trees[side], workload, seed, seconds, 0))
        print(f"\n== {workload}: {PAIRS} pairs, {seconds:g} s per run")
        print(f"{'metric':22s} {'base median [q1, q3]':>34s} "
              f"{'head median [q1, q3]':>34s} {'delta':>8s} {'won':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [s[name] for s in samples["base"]]
            head = [s[name] for s in samples["head"]]
            b1, bmed, b3 = quartiles(base)
            h1, hmed, h3 = quartiles(head)
            wins, label = verdict(metric, base, head)
            print(f"{name:22s} {bmed:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{hmed:12.5g} [{h1:9.5g}, {h3:9.5g}] "
                  f"{(hmed - bmed) / bmed * 100:+7.1f}% {wins:3d}/{len(base):<2d} {label}")
        print("failed operations (share): base "
              f"{statistics.median(s['failed_share'] for s in samples['base']):.4f}"
              ", head "
              f"{statistics.median(s['failed_share'] for s in samples['head']):.4f}")

        traced = {"base": [], "head": []}
        for i in range(TRACE_PAIRS):
            seed = FIRST_SEED + i
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                traced[side].append(run(side, trees[side], workload, seed, seconds, 1))
        rows = []
        for metric in bench["per_layer"]:
            name = metric["name"]
            b = statistics.mean(s[name] for s in traced["base"])
            h = statistics.mean(s[name] for s in traced["head"])
            rows.append((name, metric["unit"], b, h))
        times = [r for r in rows if r[1] == "ms"]
        times.sort(key=lambda r: -abs(r[3] - r[2]))
        print(f"\nper layer ({TRACE_PAIRS} traced pairs, mean per operation)")
        for name, unit, b, h in times + [r for r in rows if r[1] != "ms"]:
            rel = f"{(h - b) / b * 100:+7.1f}%" if b else "      - "
            print(f"  {name:28s} {b:14.6g} -> {h:14.6g} {unit:9s} {rel}")
        layers = [r for r in times if r[0].split(".")[0] not in ("op", "host")]
        if layers:
            name, _, b, h = layers[0]
            print(f"largest self-time move: {name} {b:.4g} -> {h:.4g} ms/op")


if __name__ == "__main__":
    main()
