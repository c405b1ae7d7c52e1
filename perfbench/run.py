#!/usr/bin/env python3
"""Builds the program under test and the benchmark, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 25 --trace 0

The last line of standard output is the result as one JSON object (see
perfbench/README.md). Everything else (build output, per-phase detail)
goes to standard error. The exit code is the benchmark's: 1 when a
correctness check failed, 2 when nothing could be measured.

Steadiness mode runs a workload repeatedly with seeds N, N+1, ... and
prints each metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --workload batch-srpt --repeat 10 --seed 1 --seconds 25
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds `mmsec` and the benchmark into one target directory."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the root of a checkout (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mmsec-apps", "--bin", "mmsec"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "mmsec")


def spread(values):
    """Median, quartiles, and interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def repeat(bench, mmsec, args):
    """Runs the workload `args.repeat` times and reports each metric's spread."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values = {}
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        out = subprocess.run(
            [bench, "--workload", args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--mmsec", mmsec],
            stdout=subprocess.PIPE, text=True)
        line = out.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", file=sys.stderr)
        result = json.loads(line)
        if out.returncode != 0 or not result["correct"]:
            print(f"run {i} (seed {seed}) failed correctness", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{args.repeat} (seed {seed}) done", file=sys.stderr)
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med, q1, q3, s = spread(vs)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "OVER" if s > bound else ("wide" if s > bound / 3 else "")
        same = " (identical)" if len(set(vs)) == 1 else ""
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
              f"{bound if bound is not None else '-':>6} {flag}{same}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run this many times with successive seeds")
    p.add_argument("--same-seed", action="store_true",
                   help="steadiness mode: reuse --seed for every run")
    args = p.parse_args()
    bench, mmsec = build()
    if args.repeat:
        repeat(bench, mmsec, args)
        return
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mmsec", mmsec]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
