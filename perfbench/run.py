#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Builds perfbench/ (a CMake package of its own that compiles ../src) in
Release under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload per fresh process, serially, on one worker thread.
Build output goes to stderr; the last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  With --workload all the
per-workload results come first and the last line merges them, each metric
prefixed with its workload name.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_battery", "hostile_mix", "fleet_idle")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the benchmark binary's path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def run_one(exe, workload, args, extra):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.jsonl" % (workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.workload != "all":
        run_one(exe, args.workload, args, extra)
        return 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = run_one(exe, w, args, extra)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
