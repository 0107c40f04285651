"""Smoke test of the benchmark itself, at tiny sizes, in about twenty seconds.

    python3 perfbench/smoke.py

Runs every workload at its smoke size (m = 3, a few samples) with tracing
off and on, and checks the result line of each against BENCHMARK.json: the
four keys, every listed metric with its unit, no failed operation.  Then it
copies BENCHMARK.json and this directory, without the program, into
``.bench_out/smoke-bare`` and checks that the benchmark fails there without
printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_spec(spec: dict) -> list:
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    return problems


def check_result(spec: dict, workload: str, trace: int, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['correct']=} {result['failed']=} {result['attempted']=}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} is {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {metric['name']} is {got['value']}")
    if len(result["metrics"]) != len(wanted):
        problems.append(f"{where}: {len(result['metrics'])} metrics, {len(wanted)} listed")
    return problems


def check_bare() -> list:
    """Without src/, the benchmark must exit non-zero and print no result."""
    bare = os.path.join(run.OUT, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench(bare, next(iter(run.WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without the program: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    started = time.perf_counter()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace, bench(run.ROOT, workload, trace))
    problems += check_bare()
    for problem in problems:
        print("FAIL " + problem)
    print(f"smoke {'failed' if problems else 'ok'} in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
