#!/usr/bin/env python3
"""Build and run one pbench workload.

    python3 pbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
the repository's libraries with its own CMakeLists.txt, then the
benchmark package in this directory (build trees under .bench_build,
or $CARGO_TARGET_DIR when set). Later runs rebuild only what changed.

The benchmark's stdout is passed through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. This wrapper
checks that the metric names match BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1) and exits non-zero, without
printing a result, when the build fails, the run fails or the result
is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"failed ({proc.returncode}): {' '.join(cmd)}")
        sys.exit(2)


def build(base):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the checkout root; nothing to benchmark")
        sys.exit(2)
    repo = os.path.join(base, "repo")
    bench = os.path.join(base, "pbench-build")
    if not os.path.isfile(os.path.join(repo, "CMakeCache.txt")):
        run_step(["cmake", "-S", ROOT, "-B", repo])
    # The CLI target links every library the benchmark needs.
    run_step(["cmake", "--build", repo, "--target", "pelican", "-j", BUILD_JOBS])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", bench, f"-DPELICAN_BUILD_DIR={repo}"])
    run_step(["cmake", "--build", bench, "-j", BUILD_JOBS])
    return os.path.join(bench, "pbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "batch", "batch_int8", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    base = build_root()
    binary = build(base)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(base, "pbench-data")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = proc.stdout.rstrip("\n").split("\n")
    body = "\n".join(lines[:-1])
    if body:
        print(body, flush=True)
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        log(f"bad result line: {err}")
        sys.exit(proc.returncode or 3)
    if proc.returncode != 0 or not result["correct"]:
        log(f"benchmark failed (exit {proc.returncode}); result: {lines[-1]}")
        sys.exit(proc.returncode or 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
