#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

Runs every workload of BENCHMARK.json on tiny inputs, untraced and
traced, and checks that each run passes its own correctness checks and
prints exactly the declared metrics with their units. Also checks that
an unknown workload fails without printing a result. Run from the
repository root:

    python3 perfbench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)


def check_result(name, trace, declared, proc):
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metrics {sorted(set(metrics) ^ set(declared))} "
                      "differ from BENCHMARK.json")
    for metric, unit in declared.items():
        got = metrics.get(metric, {})
        if got.get("unit") != unit:
            errors.append(f"{metric}: unit {got.get('unit')} != {unit}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{metric}: value {value!r}")
    return [f"{name} --trace {trace}: {e}" for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in bench["workloads"]:
        for trace in ("0", "1"):
            proc = run(["--workload", workload["name"], "--seed", "7",
                        "--seconds", "1", "--trace", trace, "--tiny"])
            found = check_result(workload["name"], trace, declared[trace],
                                 proc)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    bad = run(["--workload", "no-such-workload", "--seed", "1",
               "--seconds", "1", "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip():
        errors.append("unknown workload did not fail cleanly")
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke test:", "PASS" if not errors else "FAIL")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
