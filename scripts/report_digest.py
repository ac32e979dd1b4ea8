#!/usr/bin/env python3
"""One digest line per benchmark pool job, to compare two versions of kbundle.

    python3 scripts/report_digest.py [WORKLOAD ...]

runs every `workloads.pool_ids(WORKLOAD)` job of `bench/` for each named
workload (all of them when none is named) through
`kbundle.cli.execute_job` (from this checkout's `src/`), one after another
in this process, and prints per job

    <workload> <job id> <sha256> <outcome>

where the sha256 covers the report minus `timing` (JSON, sorted keys) and
the human lines, and the outcome is `exit <code>` or, when the job raises,
the exception type and message.  Two versions give byte-identical reports
exactly when `diff` of their outputs is empty.  Jobs that hit their cap
(`ResourceCapError: timeout exceeded`) depend on the machine's speed near
the cap.  The script only reads `bench/`.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from kbundle.cli import execute_job  # noqa: E402


def digest_line(workload: str, job_id: str) -> str:
    job = workloads.build_job(workload, job_id)
    try:
        report, lines, code = execute_job(job)
    except Exception as exc:
        return f"{job_id} - {type(exc).__name__}: {exc}"
    report.pop("timing", None)
    payload = json.dumps([report, lines], sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{job_id} {digest} exit {code}"


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"usage: report_digest.py [{{{','.join(workloads.WORKLOADS)}}} ...]",
              file=sys.stderr)
        return 2
    for name in names:
        for job_id in workloads.pool_ids(name):
            print(name, digest_line(name, job_id), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
