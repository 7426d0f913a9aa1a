#!/usr/bin/env python3
"""Collect and compare sets of pbench runs.

    # run one workload over seeds, one log per run
    python3 pbench/compare.py collect --workload batch --seeds 1-10 \\
        --seconds 15 --out runs/base
    # per workload and metric: median, quartiles, spread vs. bound
    python3 pbench/compare.py spread runs/base
    # two sets: medians, quartiles, bound, win rate over pairs, verdict
    python3 pbench/compare.py diff runs/base runs/change

A run log is the stdout of pbench/run.py: the fingerprint line
({"fingerprint": {...}}) names the workload and seed, the last line is
the result. Bounds and directions come from BENCHMARK.json.

Verdicts (diff): `worse` when the change's median is worse than the
base median by more than the bound; `better` when the change wins at
least 9 in 10 seed-matched pairs and the medians differ by more than
the base's own quartile spread; `unresolved` when either set's spread
(Q3 - Q1, as a share of the median) is wider than the bound and
neither of the above holds; `same` otherwise.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(directory):
    """{(workload, trace): {seed: metrics}} from every log in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.log"))):
        fingerprint, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "fingerprint" in obj:
                    fingerprint = obj["fingerprint"]
                elif "metrics" in obj:
                    result = obj
        if fingerprint is None or result is None or not result["correct"]:
            print(f"skipping {path}: no fingerprint or no correct result",
                  file=sys.stderr)
            continue
        key = (fingerprint["workload"], fingerprint["trace"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(key, {})[fingerprint["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def cmd_collect(args):
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        path = os.path.join(args.out, f"{args.workload}-t{args.trace}-seed{seed}.log")
        with open(path, "w") as out:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=out)
        print(f"{path}: exit {proc.returncode}", flush=True)


def cmd_spread(args):
    spec = load_spec()
    worst = 0.0
    for (workload, trace), by_seed in sorted(load_runs(args.dir).items()):
        print(f"{workload} (trace {trace}, {len(by_seed)} runs)")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        names = sorted({n for m in by_seed.values() for n in m})
        for name in names:
            values = [m[name] for m in by_seed.values() if name in m]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                if s > bound:
                    flag = "unresolved"
                elif s > bound / 3:
                    flag = "over 1/3 bound"
                if name != "setup_s":
                    worst = max(worst, s / bound)
            print(f"  {name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s:7.3f} {'' if bound is None else bound:>6} {flag}")
    print(f"worst end-to-end spread / bound (setup_s excluded): {worst:.3f}")


def cmd_diff(args):
    spec = load_spec()
    base, change = load_runs(args.base), load_runs(args.change)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        seeds = sorted(set(b_runs) & set(c_runs))
        print(f"{workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(c_runs)} change runs, {len(seeds)} seed-matched pairs")
        print(f"  {'metric':34} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'bound':>6} {'wins':>6} verdict")
        for name in sorted(set().union(*b_runs.values()) & set().union(*c_runs.values())):
            bv = [m[name] for m in b_runs.values() if name in m]
            cv = [m[name] for m in c_runs.values() if name in m]
            bq1, bmed, bq3 = quartiles(bv)
            cq1, cmed, cq3 = quartiles(cv)
            m = spec.get(name, {})
            higher = m.get("better") == "higher"
            bound = m.get("bound")
            wins = ties = 0
            for seed in seeds:
                b, c = b_runs[seed].get(name), c_runs[seed].get(name)
                if b is None or c is None or b == c:
                    ties += 1
                elif (c > b) == higher:
                    wins += 1
            decided = len(seeds) - ties
            win_rate = wins / len(seeds) if seeds else float("nan")
            if bound is None:
                verdict = "(no bound)"
            else:
                worse_by = (bmed - cmed if higher else cmed - bmed) / abs(bmed) if bmed else 0.0
                if worse_by > bound:
                    verdict = "worse"
                elif (seeds and wins >= 0.9 * len(seeds) and worse_by < 0
                      and abs(cmed - bmed) > (bq3 - bq1)):
                    verdict = "better"
                elif spread(bv) > bound or spread(cv) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "same"
            print(f"  {name:34} {bmed:12.5g} [{bq1:8.4g}, {bq3:8.4g}] "
                  f"{cmed:12.5g} [{cq1:8.4g}, {cq3:8.4g}] "
                  f"{'' if bound is None else bound:>6} "
                  f"{wins:>2}/{decided:<3} {verdict}  (win rate {win_rate:.2f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run one workload over several seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread", help="median, quartiles and spread per metric")
    p.add_argument("dir")
    p = sub.add_parser("diff", help="compare two sets of runs")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args()
    if args.cmd == "collect" and args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    main()
