#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
every metric of BENCHMARK.json prints by name with its unit, that
error_ratio is 0, and that the layer table adds up to the traced wall.

    python3 perfbench/smoke.py
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign-cosyn", "service-platform")


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {result.returncode}:\n"
                             f"{result.stderr}")
    return result.stdout.splitlines()


def check(workload, trace, spec):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    for metric in wanted:
        printed = f"{metric['name']} = "
        if not any(line.startswith(printed) and line.endswith(" " + metric["unit"])
                   for line in lines):
            problems.append(f"{metric['name']} not printed with unit {metric['unit']}")
        if result["metrics"].get(metric["name"], {}).get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} missing from the result")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{result['failed']} failed of {result['attempted']}")
    if not any(line.startswith("error_ratio = 0 ratio") for line in lines):
        problems.append("error_ratio is not 0")
    if trace:
        wall = float(re.search(r"traced wall ([0-9.]+) ms", "\n".join(lines)).group(1))
        rows = [line.split() for line in lines if line.startswith("  ")]
        total = sum(float(row[1]) for row in rows
                    if len(row) in (3, 4) and row[0] not in ("layer", "trace_overhead"))
        # Rows print to 1 µs; allow that rounding per row.
        if abs(total - wall) > 0.001 * len(rows) + 1e-9:
            problems.append(f"layer table sums to {total:.3f} ms, traced wall {wall:.3f} ms")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
