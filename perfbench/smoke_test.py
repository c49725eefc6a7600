#!/usr/bin/env python3
"""Smoke test of the campaign benchmark at tiny budgets.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs perfbench/run.py --smoke in both
modes and checks that the result line is well formed, correct, and carries
every end_to_end (untraced) or per_layer (traced) metric with its unit.
Then checks that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark fail without printing a result.  Exits non-zero on the
first failure.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        return f"not correct: {res}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(res["metrics"]) != {m["name"] for m in wanted}:
        return f"metric names {sorted(res['metrics'])}"
    for m in wanted:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            return f"{m['name']}: {got}"
    return None


def check_bare_directory(workload):
    """Only BENCHMARK.json and perfbench/: no sources, so it must fail."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workload, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"
        return None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            err = check_result(spec, workload, trace)
            print(f"{workload} trace={trace}: {'FAIL ' + err if err else 'ok'}",
                  flush=True)
            if err:
                return 1
    err = check_bare_directory(workloads[0])
    print(f"bare directory: {'FAIL ' + err if err else 'ok'}", flush=True)
    return 1 if err else 0


if __name__ == "__main__":
    sys.exit(main())
