#!/usr/bin/env python3
"""Full pipeline for the rank-6 self-dual syzygy bundle.

Runs the semistability driver with both engines, upgrades stability via the
certified self-dual pairing, computes the invariant dimensions as intervals
(one prime from above, the pairing's sections from below) plus an exact
rational confirmation of the decisive cell, and classifies the dual group.
Expected outcome: semistable, self-dual, h0(E0^(x)4) = 3, group Sp(6).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kbundle.algebra import make_ring, parse_many
from kbundle.bundle import from_syzygy
from kbundle.stability import analyze_bundle
from kbundle.tannaka import TensorSections, classify_group, fingerprint, tensor_dim_cell


GENERATORS = [
    "X^6 - Y^4*Z^2",
    "Y^6 - X^2*Z^4",
    "X^4*Y^2 - Z^6",
    "X^2*Y^4",
    "Y^2*Z^4",
    "X^4*Z^2",
    "X^2*Y^2*Z^2",
]


def main() -> int:
    bundle = from_syzygy(parse_many(GENERATORS, make_ring(3)), twist=7)
    started = time.perf_counter()

    analysis = analyze_bundle(bundle, engine="both")
    report = analysis.report
    print(f"verdict: {report.verdict}; stability: {report.stability}")
    for check in report.per_power:
        print(f"  q={check.q}: alpha={check.alpha} relation={check.relation} "
              f"threshold={check.threshold}")
    if report.verdict != "semistable":
        print("unexpected verdict", file=sys.stderr)
        return 1

    fp = fingerprint(bundle, report.stability, q_max=4, method="default")
    for q, cell in sorted(fp.dims.items()):
        print(f"h0(E0^(x){q}) = {cell.value}  [{cell.evidence}]")
    print(f"self-dual: {fp.selfdual} ({fp.selfdual_reason})")

    exact4 = tensor_dim_cell(TensorSections(bundle), 4, 0, method="exact")
    print(f"exact rational confirmation of the q=4 cell: {exact4.value}")
    if exact4.value != fp.dims[4].value:
        print("interval cell disagrees with the exact value", file=sys.stderr)
        return 1

    guess = classify_group(fp)
    print(f"dual group: {guess.label()}")
    print(f"  {guess.justification}")
    print(f"elapsed: {time.perf_counter() - started:.2f}s")
    return 0 if guess.label() == "Sp(6)" else 1


if __name__ == "__main__":
    sys.exit(main())
