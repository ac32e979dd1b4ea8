#!/usr/bin/env python3
"""Which lines of kbundle the benchmark pools (and the tests) never run.

    python3 scripts/unexecuted_lines.py [WORKLOAD ...] [--tests]

runs every `workloads.pool_ids(WORKLOAD)` job of `bench/` for each named
workload (all of them when none is named) through
`kbundle.cli.execute_job` (from this checkout's `src/`), one after another
in this process, under a `sys.settrace` line trace limited to
`src/kbundle/*.py`.  Each job's `timeout_seconds` is dropped, since the
trace slows the jobs down; a job that raises is traced up to the raise
and named on stderr.  With `--tests` the tier-1 tests (`tests/`) also run in this process,
under the same trace, after the pools.

The executable lines of a module are those its code objects map
instructions to (`co_lines`).  The script prints one summary line per
module,

    src/kbundle/<module>.py: <ran> of <executable> lines ran

then, under `unexecuted:`, every executable line that nothing ran, as
`src/kbundle/<module>.py:<line>: <source text>`.  The exit code is the
tests' (0 without `--tests`).  The script only reads `bench/`, and it is
standard library only (the tests need pytest).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

PACKAGE = ROOT / "src" / "kbundle"


def executable_lines(code) -> set:
    """The line numbers that code and the code objects nested in it map
    instructions to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def trace_lines(files: set, ran: dict):
    """A global trace function recording (file -> set of lines) for the
    frames of the given files: the first line on each call, then every line
    event."""
    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            return None
        ran[filename].add(frame.f_lineno)
        return local

    return tracer


def run_pools(names):
    # imported under the trace, so that module-level lines count
    from kbundle.cli import execute_job
    for name in names:
        for job_id in workloads.pool_ids(name):
            job = workloads.build_job(name, job_id)
            job["task"]["options"].pop("timeout_seconds", None)
            try:
                execute_job(job)
            except Exception as exc:
                # traced up to the raise; named, since most jobs do not raise
                print(f"{name} {job_id}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)


def run_tests() -> int:
    import pytest
    # as the tier-1 command sets it, for the tests that start a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    with_tests = "--tests" in args
    names = [a for a in args if a != "--tests"] or list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"usage: unexecuted_lines.py [{{{','.join(workloads.WORKLOADS)}}} ...] "
              "[--tests]", file=sys.stderr)
        return 2
    if any(m == "kbundle" or m.startswith("kbundle.") for m in sys.modules):
        print("kbundle is already imported; its module-level lines would not "
              "be traced", file=sys.stderr)
        return 2
    paths = sorted(PACKAGE.glob("*.py"))
    ran = {str(path): set() for path in paths}
    sys.settrace(trace_lines(set(ran), ran))
    try:
        run_pools(names)
        code = run_tests() if with_tests else 0
    finally:
        sys.settrace(None)
    missing = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        done = lines & ran[str(path)]
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(done)} of {len(lines)} lines ran")
        text = source.splitlines()
        missing += [f"{rel}:{n}: {text[n - 1].strip()}"
                    for n in sorted(lines - done)]
    print("unexecuted:")
    for line in missing:
        print(line)
    if code:
        print(f"the tests exited with code {code}", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
