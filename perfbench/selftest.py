#!/usr/bin/env python3
"""Self-test of the isex benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes a one-pass smoke run (run.py --smoke) with --trace 0 and --trace 1,
and asserts that the last stdout line is the result object with exactly
the keys correct/attempted/failed/metrics, that every output check passed,
and that the metrics are exactly the declared end_to_end (trace 0) or
per_layer (trace 1) set, each with its declared unit and a finite value
(end-to-end values also non-zero). Finally it copies BENCHMARK.json and
perfbench/ alone into a scratch directory and asserts that the benchmark
fails there without printing a result. Exits 0 when everything holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_json_line(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace, problems):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-800:]}")
        return
    try:
        result = last_json_line(proc.stdout)
    except json.JSONDecodeError as e:
        problems.append(f"{tag}: last line is not JSON ({e})")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{tag}: checks did not pass: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{tag}: missing {sorted(set(want) - set(got))}, "
                        f"undeclared {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name not in got:
            continue
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            problems.append(f"{tag}: {name} unit {got[name].get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {name} value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{tag}: end-to-end {name} is {value}")
    print(f"ran {tag}: {len(got)} metrics, attempted={result['attempted']}", flush=True)


def check_bare_directory(spec, problems):
    """Without the isex sources the benchmark must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        problems.append("bare directory: benchmark exited 0")
    try:
        if last_json_line(proc.stdout) is not None:
            problems.append("bare directory: benchmark printed a result")
    except json.JSONDecodeError:
        pass
    print(f"ran bare directory: exit {proc.returncode}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, problems)
    check_bare_directory(spec, problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("PASS" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
