"""Smoke test of the benchmark: every workload briefly, traced and untraced.

    python3 perfbench/smoke.py

Run from the root of a ranknet checkout. For each workload and each trace
mode it runs ``perfbench/run.py`` for one round, and checks that the last
line is a result whose metric names and units are exactly those that
``BENCHMARK.json`` lists, that every checked output was correct, and that
the only failed operations are the known-faulty ``sort_cold`` requests, one
per round. It then checks that the benchmark refuses to run, printing no
result, in a directory that holds only ``BENCHMARK.json`` and the benchmark.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# operations per round: one per slice, plus the mixed-precision request
ROUND = {
    "sort_cold": workloads.SortCold.K + 1,
    "execute_warm": workloads.ExecuteWarm.K,
    "audit": workloads.Audit.K,
}


def run(cwd, workload, trace, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                fail(f"{workload} trace={trace}: metrics {units} != {expected[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                fail(f"{workload}: a metric value is not a number")
            if not result["correct"]:
                fail(f"{workload} trace={trace}: an output was wrong")
            attempted, failed = result["attempted"], result["failed"]
            if attempted < 1 or attempted % ROUND[workload]:
                fail(f"{workload}: {attempted} operations is not a whole number of rounds")
            probes = attempted // ROUND[workload] if workload == "sort_cold" else 0
            if failed != probes:
                fail(f"{workload}: {failed} failed operations, expected {probes}")
            print(f"ok: {workload} trace={trace} attempted={attempted} failed={failed}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "sort_cold", 0, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without a checkout of the program")
    print("ok: refuses to run without the program")
    print("smoke: all passed")


if __name__ == "__main__":
    main()
