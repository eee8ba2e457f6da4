#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the GPGPU-over-GLES2 stack.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_large --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --self-test      # the benchmark's own unit tests

The benchmark is built from source into .bench_build/ (a CMake project in
e2ebench/ that pulls in the repository's layer libraries). The last line of
standard output is one JSON object with correct / attempted / failed /
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Seeds, held-out seeds and the layer-to-end-to-end predictions are
in e2ebench/predictions.json.

Deterministic values (modelled VideoCore IV time and its breakdown, shader
op counts, the output hash) must repeat exactly for a seed. Each run records
them under .bench_build/determinism/ keyed by workload, seed and the
benchmark binary's digest; a later run of the same binary and seed that
disagrees counts as a failure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper_large", "churn_small", "gl_tenants")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    path = BUILD / target
    return path if path.exists() else None


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_determinism(binary, workload, seed, values):
    """Compares `values` with an earlier run of the same binary and seed.

    Returns a list of the names that differ (empty when they agree or when
    there is no earlier record).
    """
    record_dir = BUILD / "determinism"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / f"{workload}-{seed}.json"
    fingerprint = digest(binary)
    if record.exists():
        try:
            old = json.loads(record.read_text())
        except ValueError:
            old = {}
        if old.get("binary") == fingerprint:
            return sorted(k for k in set(values) | set(old.get("values", {}))
                          if old["values"].get(k) != values.get(k))
    record.write_text(json.dumps({"binary": fingerprint, "values": values}))
    return []


def self_test():
    binary = build("e2ebench_stats_test")
    if binary is None:
        return 1
    return subprocess.run([str(binary)]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed is None:
        args.seed = json.loads((HERE / "predictions.json").read_text())[
            "default_seed"]

    binary = build("e2ebench")
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    deterministic = result.pop("deterministic")
    mismatched = check_determinism(binary, args.workload, args.seed,
                                   deterministic)
    if mismatched:
        log("deterministic values differ from an earlier run of this seed: "
            + ", ".join(mismatched))
        result["failed"] += 1
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
