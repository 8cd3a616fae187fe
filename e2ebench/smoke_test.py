#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes.

    python3 e2ebench/smoke_test.py

Run from the root of a checkout (it builds through run.py). For every
workload it checks that:
  - an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit and a nonzero value, and passes every check;
  - a traced run prints exactly the per-layer metrics, each with its unit,
    with checks.pass_rate = 1;
  - a second traced run with the same seed repeats every exact counter;
  - another seed generates another trace.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}.tiny.trace{trace}.json")) as f:
        detail = json.load(f)
    return result, detail


def check_result(name, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{name}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    metrics = result["metrics"]
    want = {m["name"] for m in expected}
    if set(metrics) != want:
        fail(f"{name}: metric set differs (missing {sorted(want - set(metrics))}, "
             f"extra {sorted(set(metrics) - want)})")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{name}: {m['name']} = {got}, want unit {m['unit']}")
    return metrics


def exact_counters(detail):
    return {m["name"]: m["value"] for m in detail["metrics"] if m["exact"]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        e2e, _ = run(w, 7, 0)
        metrics = check_result(f"{w} untraced", e2e, bench["end_to_end"])
        zero = [k for k, v in metrics.items() if v["value"] == 0]
        if zero:
            fail(f"{w}: end-to-end metrics read 0: {zero}")

        layer, first = run(w, 7, 1)
        metrics = check_result(f"{w} traced", layer, bench["per_layer"])
        if metrics["checks.pass_rate"]["value"] != 1:
            fail(f"{w}: checks.pass_rate = {metrics['checks.pass_rate']}")

        _, again = run(w, 7, 1)
        a, b = exact_counters(first), exact_counters(again)
        if not a or a != b:
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            fail(f"{w}: exact counters differ between same-seed runs: {diff}")
        if first["trace_digest"] != again["trace_digest"]:
            fail(f"{w}: the same seed generated another trace")

        _, other = run(w, 8, 0)
        if other["trace_digest"] == first["trace_digest"]:
            fail(f"{w}: seeds 7 and 8 generated the same trace")
        print(f"ok {w}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics, "
              f"{len(a)} exact counters repeat")
    print("PASS")


if __name__ == "__main__":
    main()
