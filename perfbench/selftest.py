#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

A short run of every workload, untraced and traced, through run.py, on a
seed that was held out while the benchmark was written.  Checks that
  1. every declared metric is emitted with its unit (run.py's validation),
  2. traced and untraced runs produce the same result digest, and the
     sequential and sharded big-fabric workloads the same digest,
  3. the correctness gate passes, with no failure beyond the recorded
     incast base-seed-11 contract miss,
  4. an unknown workload or metric name is rejected.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HELD_OUT_SEED = 8675309
SECONDS = "1"
KNOWN = "incast (base seed 11): contract victim-avg-cc-ratio violated"


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def bench(workload, trace, seed=HELD_OUT_SEED):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True)


def result_of(workload, trace):
    proc = bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(l)["info"] for l in lines if l.startswith('{"info"'))
    if not result["correct"]:
        fail(f"{workload} --trace {trace}: correctness gate failed: {info['problems']}")
    expected_known = [KNOWN] if workload == "scenario_suite" else []
    if info["known_failures"] != expected_known:
        fail(f"{workload}: unexpected known failures {info['known_failures']}")
    print(f"ok   {workload} --trace {trace}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} ops, {result['failed']} failed, digest {info['result_digest']}")
    return info["result_digest"]


def main():
    spec = run.load_spec()
    run.build()

    proc = bench("no_such_workload", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("an unknown workload was not rejected")
    binary = subprocess.run([os.path.join(run.build_dir(), run.BINARY), "--workload", "nope",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            capture_output=True, text=True)
    if binary.returncode != 2 or binary.stdout.strip():
        fail("the benchmark binary accepted an unknown workload")
    print("ok   unknown workload rejected")

    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}}
    run.validate(good, spec, trace=False)
    for name, mutate in [
        ("unknown metric", lambda r: r["metrics"].update(bogus_ms={"value": 1.0, "unit": "ms"})),
        ("missing metric", lambda r: r["metrics"].pop("wall_s")),
        ("wrong unit", lambda r: r["metrics"]["wall_s"].update(unit="ms")),
    ]:
        bad = json.loads(json.dumps(good))
        mutate(bad)
        try:
            run.validate(bad, spec, trace=False)
        except ValueError:
            print(f"ok   {name} rejected")
            continue
        fail(f"{name} was not rejected")

    digests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = result_of(workload, 0)
        traced = result_of(workload, 1)
        if plain != traced:
            fail(f"{workload}: tracing changed the results ({plain} vs {traced})")
        digests[workload] = plain
    if digests["big_fabric"] != digests["big_fabric_sharded"]:
        fail("big_fabric and big_fabric_sharded digests differ")
    print("ok   traced == untraced digests; big_fabric == big_fabric_sharded")
    print("PASS")


if __name__ == "__main__":
    main()
