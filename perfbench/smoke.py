#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload on a tiny batch (--smoke), untraced and traced, and
checks that the last line of standard output is a result object whose
metrics are exactly the ones BENCHMARK.json lists, with their units.  Then
copies BENCHMARK.json and perfbench/ alone into a scratch directory and
checks that the benchmark exits non-zero there without printing a result.
Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"
TIMEOUT_S = 170


def bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def problems_in(stdout: str, listed: list[dict]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"checks failed: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        out.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in listed]:
        out.append(f"metric names {list(metrics)}")
    for m in listed:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            out.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{m['name']}: value {value!r}")
        elif "bound" in m and value == 0:
            out.append(f"{m['name']}: end-to-end metric reads 0")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = bench(ROOT, workload, trace)
            found = [f"exit code {res.returncode}"] if res.returncode else []
            found += problems_in(res.stdout, spec[key])
            if found:
                print(f"FAIL {workload} --trace {trace}:", *found, res.stderr[-2000:], sep="\n  ")
                return 1
            print(f"ok   {workload} --trace {trace}")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    res = bench(bare, spec["workloads"][0]["name"], 0, smoke=False)
    shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        print(f"FAIL without the package: exit {res.returncode}, stdout {res.stdout!r}")
        return 1
    print("ok   exits non-zero without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
