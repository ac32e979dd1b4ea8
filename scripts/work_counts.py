#!/usr/bin/env python3
"""Elimination and Buchberger call counts per benchmark workload, to check
that two versions of kbundle do the same work.

    python3 scripts/work_counts.py [WORKLOAD ...]

runs every `workloads.pool_ids(WORKLOAD)` job of `bench/` for each named
workload (all of them when none is named) through
`kbundle.cli.execute_job` (from this checkout's `src/`), one after another
in this process, and prints one line per workload

    <workload> jobs=<n> raised=<n> kernel_dim_linalg=<calls> ...

with the number of calls of each COUNTED function of `kbundle.modgb`.  Each
function is replaced by a counting wrapper in every kbundle module that
binds it, as `bench/tracing.py` does, so a call made through
`kbundle.stability.kernel_dim_linalg` counts as well as one made inside
`kbundle.modgb`.  A name this checkout does not define prints `-`.  A job
that raises (`raised`) is counted as far as it ran; where a job hits its
cap depends on the machine's speed.  To compare two versions, copy this
script into the other checkout's `scripts/`, run it in both and `diff` the
outputs.  Standard library only; the script only reads `bench/`.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
import kbundle.cli  # noqa: E402,F401  (loads every kbundle module)
from kbundle import modgb  # noqa: E402
from kbundle.cli import execute_job  # noqa: E402

COUNTED = ["kernel_dim_linalg", "kernel_sections_linalg", "kernel_dims_gb",
           "_section_kernel", "_echelon_kernel", "_gb_core"]


def install(counts: Counter) -> None:
    """Wrap each COUNTED function wherever a kbundle module binds it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "kbundle" or name.startswith("kbundle.")]
    for name in COUNTED:
        original = getattr(modgb, name, None)
        if original is None:
            continue

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"usage: work_counts.py [{{{','.join(workloads.WORKLOADS)}}} ...]",
              file=sys.stderr)
        return 2
    counts = Counter()
    install(counts)
    for name in names:
        counts.clear()
        ids = workloads.pool_ids(name)
        raised = 0
        for job_id in ids:
            try:
                execute_job(workloads.build_job(name, job_id))
            except Exception:
                raised += 1
        cells = [f"{fn}={counts[fn] if hasattr(modgb, fn) else '-'}"
                 for fn in COUNTED]
        print(name, f"jobs={len(ids)}", f"raised={raised}", *cells, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
