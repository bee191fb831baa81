#!/usr/bin/env python3
"""Self-test of the tcpz benchmark: short runs of every workload.

    python3 tcpzbench/selftest.py

Run from the root of a source checkout (it builds through run.py). For each
workload it makes a run with --seconds 1 and --trace 0 and one with
--trace 1 (the real workloads, only fewer repetitions) and asserts that
  * the last stdout line is a result with exactly the contract's keys,
  * every metric BENCHMARK.json names for that mode is emitted, with the
    unit BENCHMARK.json gives it, and nothing else is,
  * the benchmark's own output checks passed (correct, no failed operation),
  * the run label names hardware, build, source, seed and shards.
It also repeats the --trace 0 runs of the simulator workloads and asserts
that their event and counter digests repeat exactly (the determinism
contract), and that the benchmark refuses a directory without sources.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, seed=7):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(workload, trace, lines, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failed_checks = [l for l in lines if l.startswith("[FAIL]")]
        fail(f"{workload} trace={trace}: checks failed: {failed_checks}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics[name]
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            fail(f"{workload}: metric {name} is {got}, want unit {unit}")
    labels = [l for l in lines if l.startswith("label ")]
    if not labels:
        fail(f"{workload}: no run label")
    label = json.loads(labels[-1][len("label "):])
    for key in ("cpu_model", "nproc", "build_type", "compiler", "commit",
                "seed", "shards", "cpus", "transport"):
        if key not in label:
            fail(f"{workload}: run label lacks {key}")


def digests(lines):
    return [l for l in lines if l.startswith("digest ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in (x["name"] for x in spec["workloads"]):
        lines, result = run(w, 0)
        check_result(w, 0, lines, result, end_to_end)
        if w != "wire_storm":
            again, _ = run(w, 0)
            if not digests(lines) or digests(lines) != digests(again):
                fail(f"{w}: digests differ across runs: {digests(lines)} vs "
                     f"{digests(again)}")
        lines, result = run(w, 1)
        check_result(w, 1, lines, result, per_layer)
        print(f"selftest: {w}: ok")

    # A directory holding only the benchmark must be refused, without a result.
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        shutil.copytree(HERE, os.path.join(tmp, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        proc = subprocess.run(
            [sys.executable, os.path.join(tmp, os.path.basename(HERE), "run.py"),
             "--workload", "botnet_flood", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("a checkout without sources was not refused")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
