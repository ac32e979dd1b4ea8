#!/usr/bin/env python3
"""One digest line per benchmark pool job, to compare two versions of kbundle.

    python3 scripts/report_digest.py [WORKLOAD ...]

runs every `workloads.pool_ids(WORKLOAD)` job of `bench/` for each named
workload (all of them when none is named) through
`kbundle.cli.execute_job` (from this checkout's `src/`), one after another
in this process, and prints per job

    <workload> <job id> <sha256> <outcome> <answer>

where the sha256 covers the report minus `timing` (JSON, sorted keys) and
the human lines, and the outcome is `exit <code>` or, when the job raises,
the exception type and message.  Two versions give byte-identical reports
exactly when `diff` of their outputs is empty.  Jobs that hit their cap
(`ResourceCapError: timeout exceeded`) depend on the machine's speed near
the cap.  The answer checks the job as `bench/run.py` does: `match` when
its exit code and decision fields (`answers.decision_fields`) equal those
frozen in `bench/expected/<workload>.json`, `-` when the job has no frozen
answer, and `MISMATCH` otherwise: a different answer, a job that raised,
or a frozen answer for a differently generated job.  The script only
reads `bench/`.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from answers import decision_fields  # noqa: E402
from kbundle.cli import execute_job  # noqa: E402
from run import job_digest, load_expected  # noqa: E402


def answer_check(job: dict, entry, report, code) -> str:
    """`match`, `MISMATCH` or `-` (no frozen answer) for one job's run;
    report is None when the job raised."""
    if entry is None:
        return "-"
    if report is None or entry["digest"] != job_digest(job):
        return "MISMATCH"
    fields = json.loads(json.dumps(
        decision_fields(job["task"]["name"], report["results"])))
    ok = code == entry.get("exit", 0) and fields == entry["fields"]
    return "match" if ok else "MISMATCH"


def digest_line(workload: str, job_id: str, expected: dict) -> str:
    job = workloads.build_job(workload, job_id)
    entry = expected.get(job_id)
    try:
        report, lines, code = execute_job(job)
    except Exception as exc:
        return (f"{job_id} - {type(exc).__name__}: {exc} "
                f"{answer_check(job, entry, None, None)}")
    check = answer_check(job, entry, report, code)
    report.pop("timing", None)
    payload = json.dumps([report, lines], sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{job_id} {digest} exit {code} {check}"


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"usage: report_digest.py [{{{','.join(workloads.WORKLOADS)}}} ...]",
              file=sys.stderr)
        return 2
    for name in names:
        expected = load_expected(name)["jobs"]
        for job_id in workloads.pool_ids(name):
            print(name, digest_line(name, job_id, expected), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
