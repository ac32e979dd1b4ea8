"""Self-test of the benchmark at smoke size; takes well under a minute.

    python3 bench/selftest.py [--seed N]

For every workload: one untraced run must check every answer as correct,
and two traced runs with the same seed must give identical work counters.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

import tracing  # noqa: E402
import workloads  # noqa: E402

# Counters that must repeat exactly: they are computed from arguments and
# results only.
EXACT = tracing.WORK_COUNTERS + ["modgb.linalg.unique_ratio"] + \
    [f"{name}.cap_hits" for name in tracing.CAP_SPANS] + ["trace.cap_hits"]


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures = 0
    for workload in workloads.WORKLOADS:
        plain = run(workload, args.seed, 0)
        first = run(workload, args.seed, 1)
        second = run(workload, args.seed, 1)
        problems = []
        if not (plain["correct"] and first["correct"] and second["correct"]):
            problems.append("an answer does not match expected/")
        missing = [name for name in tracing.per_layer_metric_names()
                   if name not in first["metrics"]]
        if missing:
            problems.append(f"missing per-layer metrics {missing}")
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name} differs between traced runs: {a} vs {b}")
        status = "FAIL" if problems else "PASS"
        print(f"{status} {workload}: {plain['attempted']} jobs, "
              f"{plain['failed']} undecided")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
