#!/usr/bin/env python3
"""Smoke test of strata_bench (registered as the bench_smoke ctest).

    python3 smoke.py <strata_bench binary> <BENCHMARK.json>

Runs `strata_bench --smoke` (every workload in both modes, one short round)
and fails unless every run matched the serial reference and printed exactly
the metrics BENCHMARK.json declares for its mode, with the declared units.
"""
import json
import subprocess
import sys


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run = subprocess.run([binary, "--smoke"], stdout=subprocess.PIPE, text=True)
    lines = [json.loads(line) for line in run.stdout.splitlines()
             if line.startswith("{")]
    rows = [line for line in lines if "row" in line]
    results = [line for line in lines if "metrics" in line]

    problems = []
    if run.returncode != 0:
        problems.append(f"strata_bench --smoke exited {run.returncode}")
    seen = set()
    for row, result in zip(rows, results):
        where = f"{row['workload']} trace={row['trace']}"
        seen.add((row["workload"], row["trace"]))
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{where}: {result['failed']} failed reports")
        if result["attempted"] < 1:
            problems.append(f"{where}: no reports attempted")
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != declared[row["trace"]]:
            missing = sorted(set(declared[row["trace"]]) - set(printed))
            extra = sorted(set(printed) - set(declared[row["trace"]]))
            problems.append(f"{where}: metrics differ from {spec_path}: "
                            f"missing {missing}, extra {extra}, or units")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            if (workload["name"], trace) not in seen:
                problems.append(f"{workload['name']} trace={trace}: no result")

    for problem in problems:
        print("smoke:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
