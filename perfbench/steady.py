#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs each workload once per seed through the BENCHMARK.json command and
prints, for every end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads campaign,fleet] \\
        [--out set2.json] [--compare set1.json]

Run it from the repository root. The runs go seed by seed, each seed
through every workload in turn, so a slow stretch of the host falls on
all workloads alike instead of on one workload's whole set. Each run's
line on stderr gives the share of the host's CPU time that the
hypervisor stole during it (from /proc/stat, where there is one).

--compare reads the --out file of an earlier set and prints, for every
metric, how much worse this set's median is than that set's, next to
the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_times():
    """Returns (steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0, c0 = time.monotonic(), cpu_times()
    out = subprocess.run(cmd, capture_output=True, text=True)
    elapsed, steal = time.monotonic() - t0, steal_share(c0, cpu_times())
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res}")
    res["seed"], res["elapsed_s"], res["steal"] = seed, elapsed, steal
    # Keep the per-repetition lines too, to study other estimators.
    res["reps"] = [l for l in out.stderr.splitlines() if " rep " in l]
    steal_txt = "n/a" if steal is None else f"{steal:.1%}"
    print(f"{workload} seed {seed}: {elapsed:.1f}s, steal {steal_txt},",
          {k: round(v["value"], 4) for k, v in res["metrics"].items()},
          file=sys.stderr, flush=True)
    return res


def medians(runs, spec):
    return {w: {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in results)
                for m in spec["end_to_end"]}
            for w, results in runs.items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write every run's result line here")
    ap.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            runs[w].append(run(spec, w, seed, args.seconds))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    print(f"{'workload':14} {'metric':13} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w, results in runs.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{w:14} {m['name']:13} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} {m['bound']:6.2f}{flag}")

    if args.compare:
        with open(args.compare) as f:
            before = medians(json.load(f), spec)
        after = medians(runs, spec)
        print(f"\n{'workload':14} {'metric':13} {'earlier':>10} {'this':>10} {'worse by':>9} {'bound':>6}")
        for w in workloads:
            if w not in before:
                continue
            for m in spec["end_to_end"]:
                a, b = before[w][m["name"]], after[w][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "" if worse <= m["bound"] else "  <-- outside the bound"
                print(f"{w:14} {m['name']:13} {a:10.4f} {b:10.4f} {worse:9.3f} {m['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
