#!/usr/bin/env python3
"""The benchmark's self-noise gate.

Runs every workload of BENCHMARK.json ten times through its command, each
time with another seed, and prints for each end-to-end metric the distance
between the first and third quartile of the ten values as a share of their
median, next to the metric's bound. The benchmark is steady enough to judge a
change with when every spread is under a third of its bound; the exit code
is 1 when a spread (setup_s excepted, whose median alone is gated) exceeds
the bound itself.

    python3 bench/selfnoise.py [first_seed]     # from the root of the checkout
"""
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def main():
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = 0
    print("| workload | metric | median | spread (IQR/median) | bound | slowest run |")
    print("|---|---|---|---|---|---|")
    for w in spec["workloads"]:
        values = {name: [] for name in bounds}
        slowest = 0.0
        for seed in range(first_seed, first_seed + RUNS):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            slowest = max(slowest, time.time() - start)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w['name']} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            med = statistics.median(values[name])
            spread = (q3 - q1) / med
            if spread > bound and name != "setup_s":
                over += 1
            print(f"| {w['name']} | {name} | {med:.6g} | {100 * spread:.2f}% | {100 * bound:.0f}% | {slowest:.1f} s |", flush=True)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
