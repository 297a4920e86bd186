#!/usr/bin/env python3
"""Build and run one workload of the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark binary, checks that it
emitted exactly the metrics BENCHMARK.json declares for the mode, with their
units, and prints the result object as the last line of stdout.  Traced
runs also write their spans as a Chrome trace under <build dir>/traces/.
Build output goes to stderr.  Exits non-zero, without a result line, when
the build, the run or the check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "perfbench_mlid"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, BINARY)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, spec, trace):
    """Raises ValueError unless `result` is a well-formed result object whose
    metrics are exactly the declared ones for the mode, with their units."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ValueError(f"'{key}' must be a non-negative integer")
    if result["attempted"] < 1:
        raise ValueError("'attempted' must be at least 1")
    declared = declared_metrics(spec, trace)
    emitted = result["metrics"]
    unknown = sorted(set(emitted) - set(declared))
    missing = sorted(set(declared) - set(emitted))
    if unknown:
        raise ValueError(f"undeclared metric(s): {', '.join(unknown)}")
    if missing:
        raise ValueError(f"missing metric(s): {', '.join(missing)}")
    for name, metric in emitted.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != declared[name]:
            raise ValueError(f"metric {name} must be {{value, unit: {declared[name]}}}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"metric {name} has a non-numeric value")


def parse_args(spec, argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    spec = load_spec()
    args = parse_args(spec, argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}_seed{args.seed}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"error: {BINARY} exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
        validate(result, spec, bool(args.trace))
    except ValueError as e:
        print(f"error: bad result line: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
