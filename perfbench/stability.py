#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs the benchmark command from BENCHMARK.json once per workload and
seed, for one or two sets of seeds, and reports for every end-to-end
metric its median, quartiles and spread (quartile distance over median)
against the metric's bound. With two sets it also checks that the second
set's median is not worse than the first's by more than the bound. With
--trace 1 it instead checks that every exact per-layer count is
identical between the two sets.

Run from the repository root:

    python3 perfbench/stability.py --seeds 1-10 --sets 2
    python3 perfbench/stability.py --workloads paper96 --seeds 1-5
    python3 perfbench/stability.py --trace 1 --seeds 1-2 --sets 2

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer units whose values are exact simulator counts: they must
# repeat bit for bit for a given seed. Host-time units (s, ns) need not.
EXACT_UNITS = {"count", "bytes", "ratio", "sim_s"}


def spread(values):
    """Quartile distance over median, quartiles as statistics.quantiles
    gives them (n=4, exclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def within_bound(value, bound):
    return value <= bound


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    declared_names = {m["name"] for m in declared}

    ok = True
    sets = []
    for s in range(args.sets):
        results = {}
        for w in workloads:
            for seed in seeds:
                r = run_once(bench["command"], w, seed, seconds, args.trace)
                results[(w, seed)] = r
                if not r["correct"] or r["failed"]:
                    print(f"FAIL set {s + 1} {w} seed {seed}: correct={r['correct']} failed={r['failed']}")
                    ok = False
                if set(r["metrics"]) != declared_names:
                    extra = set(r["metrics"]) ^ declared_names
                    print(f"FAIL {w}: metrics differ from BENCHMARK.json: {sorted(extra)}")
                    ok = False
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(results)

    if args.trace:
        if len(sets) == 2:
            for key, first in sets[0].items():
                for name, m in first["metrics"].items():
                    again = sets[1][key]["metrics"][name]["value"]
                    if m["unit"] in EXACT_UNITS and again != m["value"]:
                        print(f"FAIL {key}: {name} {m['value']} then {again}")
                        ok = False
            print("exact per-layer counts identical across sets" if ok else "counts differ")
        return 0 if ok else 1

    print(f"{'workload':<12} {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'ok':>4}")
    for w in workloads:
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, results in enumerate(sets):
                values = [results[(w, seed)]["metrics"][name]["value"] for seed in seeds]
                q1, med, q3 = statistics.quantiles(values, n=4)
                sp = spread(values)
                medians.append(med)
                # set-up time is exempt from the spread check, not the
                # median check below
                good = name == "setup_s" or within_bound(sp, bound)
                third = "" if sp < bound / 3 else " (above a third of the bound)"
                ok &= good
                print(f"{w:<12} {name:<14} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{sp:>7.4f} {bound:>6} {'yes' if good else 'NO'}{third}")
            if len(medians) == 2:
                worse = worsening(medians[0], medians[1], metric["better"])
                good = within_bound(worse, bound)
                ok &= good
                print(f"{w:<12} {name:<14} 2v1 worse by {worse:+.4f} (bound {bound}) "
                      f"{'yes' if good else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
