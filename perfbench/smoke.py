"""Smoke test of the benchmark: a very short run of every workload.

    python3 perfbench/smoke.py

Runs each workload for one second untraced and one second traced (at least
one full run each), and checks that every run passed, that the result line
carries every metric ``BENCHMARK.json`` names with its unit, and that the
report prints each metric with a unit, ``failed_frac`` everywhere and
``err_inf`` on ``mms_m256``.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{where}: runs failed: {lines[-1]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric" and len(parts) == 4:
            float(parts[2])
            printed[parts[1]] = parts[3]
    expect = dict(wanted, failed_frac="1")
    if workload == "mms_m256":
        expect["err_inf"] = "1"
    if printed != expect:
        problems.append(f"{where}: report prints {printed}, expected {expect}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
