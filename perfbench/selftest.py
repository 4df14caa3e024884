#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Runs every workload in BENCHMARK.json in a short mode (--seconds 1; each
workload still does its fixed floor of work) and checks that

  * the untraced run prints every end-to-end metric, and the traced run
    every per-layer metric, each with the unit BENCHMARK.json gives it;
  * every run reports correct output with no failed operation;
  * the exact counts repeat exactly across two traced runs with the same
    seed.

Usage, from the repository root:  python3 perfbench/selftest.py [workload...]
Takes a few minutes (the big_job floor is four 1M-node jobs plus replays).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that count work rather than time it: identical for a given seed.
EXACT = [
    "sim.rounds", "sim.executed_rounds", "sim.messages", "sim.bits",
    "core.palette_bytes", "storage.snapshot_built",
    "storage.snapshot_loaded", "storage.snapshot_reused",
    "recolor.colors_changed", "recolor.dirty_nodes", "recolor.fallbacks",
]

# The counts each workload itself produces, which must also be non-zero.
MEASURED = {
    "big_job": ["sim.rounds", "sim.executed_rounds", "sim.messages",
                "sim.bits", "core.palette_bytes"],
    "fleet": ["storage.snapshot_built", "storage.snapshot_loaded",
              "storage.snapshot_reused"],
    "serve": ["recolor.colors_changed", "recolor.dirty_nodes"],
}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, catalogue, what):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{what}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{what}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in catalogue}
    if set(metrics) != set(expected):
        errors.append(f"{what}: metric names differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            errors.append(f"{what}: {name} unit {got.get('unit')} != {unit}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{what}: {name} value {got.get('value')!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    errors = []
    for workload in workloads:
        seed = 7
        plain = run(workload, seed, 0)
        errors += check_result(plain, spec["end_to_end"], f"{workload}/plain")
        for m in spec["end_to_end"]:
            value = plain["metrics"].get(m["name"], {}).get("value")
            if not value:
                errors.append(f"{workload}: end-to-end {m['name']} is {value}")
        traced = [run(workload, seed, 1) for _ in range(2)]
        for i, result in enumerate(traced):
            errors += check_result(result, spec["per_layer"],
                                   f"{workload}/traced#{i + 1}")
        for name in EXACT:
            a, b = (r["metrics"].get(name, {}).get("value") for r in traced)
            if a != b:
                errors.append(f"{workload}: exact count {name} {a} != {b}")
            if name in MEASURED.get(workload, []) and not a:
                errors.append(f"{workload}: exact count {name} is {a}")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
