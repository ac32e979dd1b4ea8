#!/usr/bin/env python3
"""Check that the tier-1 tests catch each of a fixed list of unsound edits.

    python3 scripts/mutants.py [NAME ...]

Each mutant is a one-spot edit of `src/kbundle`: a file, the exact text it
replaces, the new text, and the claim the edit breaks.  For each named
mutant (all of them when none is named) the script copies the repository,
without `.git`, into a temporary directory, applies the edit there, and
runs the tier-1 tests on the copy with `-x`, but for
`tests/test_mutants.py`, which checks the unedited tree:

    PYTHONPATH=src python3 -m pytest -q -x --continue-on-collection-errors \
        --ignore=tests/test_mutants.py

It prints one line per mutant, `killed` when a test fails and `survived`
when all pass, with the seconds the run took; a run that takes longer
than TIMEOUT_S is reported `timeout`.  A mutant whose old text no longer
occurs exactly once in its file is reported `stale`.  The exit code
is 0 when every mutant is killed, else 1.  The repository itself is never
written.  Standard library only (the tests need pytest).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/kbundle, old text, new text, the claim it breaks)
MUTANTS = [
    ("dense-keeps-zero-residue", "modgb.py",
     "                continue            # cancelled mod p\n",
     "                pass                # cancelled mod p\n",
     "a coefficient that is 0 mod p leaves no term in the dense sweep's "
     "normal form"),
    ("primary-trusts-mod-p-no", "modgb.py",
     "            span = _leading_terms_cover_variables(reduced, caps, expected)\n",
     "            return _leading_terms_cover_variables(reduced, caps, expected)\n",
     "a 'no' of the primary test mod p proves nothing; QQ decides it"),
    ("mod-p-section-as-alpha", "stability.py",
     "yield PRIMARY_TEST_PRIME, lambda k: (0, dim_p(k))",
     "yield PRIMARY_TEST_PRIME, lambda k: (dim_p(k), dim_p(k))",
     "the first mod-p section only bounds alpha from below; alpha is found "
     "over QQ"),
    ("witness-unverified", "stability.py",
     "witness.verified = _verify_witness(",
     "witness.verified = True or _verify_witness(",
     "an unstable verdict rests on a witness verified exactly"),
    ("sym-char-guard-off-by-one", "powers.py",
     "if kind == \"symmetric\" and 0 < fld.char <= q:",
     "if kind == \"symmetric\" and 0 < fld.char < q:",
     "Sym^q is refused in characteristic 0 < p <= q"),
    ("section-count-one-too-many", "stability.py",
     "comb(N + top - k + 1, N) <= sections",
     "comb(N + top - k + 1, N) <= sections + 1",
     "the walk trusts D sections at the top, not D + 1"),
    ("sl-row-at-rank-6", "tannaka.py",
     "if r <= 2 or (r <= 5 and not h2):",
     "if r <= 2 or (r <= 6 and not h2):",
     "from rank 6 on, one invariant in V^(x)r does not force SL(r)"),
    ("restriction-bisection-skips", "bounds.py",
     "    low = k // 2 + 1\n",
     "    low = k // 2 + 2\n",
     "restriction_bound returns the least k that satisfies the inequality"),
    ("rank-2-equality-stable", "stability.py",
     "            report.stability = \"not_stable\"\n",
     "            report.stability = \"proven_stable\"\n",
     "a rank-2 section at the boundary degree shows strict semistability"),
    ("sp-row-four-invariants", "tannaka.py",
     "and cell_4.value == 3 and cell_4.certified:",
     "and cell_4.value >= 3 and cell_4.certified:",
     "Sp(4) has 3 invariants in V^(x)4; SL(2) on Sym^3 has 4"),
    ("witness-at-threshold", "stability.py",
     "not Fraction(degree) < threshold:",
     "not Fraction(degree) <= threshold:",
     "a witness lies strictly below the threshold"),
    ("non-strict-gate-proves-stability", "stability.py",
     "if not equalities and gate == \"pass_strict\":",
     "if not equalities and gate != \"fail\":",
     "stability at rank >= 3 needs a strict slope gate"),
    ("walk-past-bound", "stability.py",
     "comb(N + top - k + 1, N) <= sections",
     "comb(N + top - k, N) <= sections",
     "the walk probes no degree the section-count bound rules out"),
    ("walk-short-of-bound", "stability.py",
     "comb(N + top - k + 1, N) <= sections",
     "comb(N + top - k + 2, N) <= sections",
     "the walk reaches a first mod-p section that sits on the bound"),
    ("cell-prime-used-anyway", "tannaka.py",
     "else modular_twin(bundle, CELL_PRIME)\n",
     "else modular_twin(bundle, CELL_PRIME) or bundle\n",
     "a cell whose prime divides a denominator is exact, not 'F1000003 <='"),
    ("section-table-both-unchecked", "powers.py",
     "            if gb != linalg:\n",
     "            if False:\n",
     "'both' compares the gb count with the linalg one, in a section table "
     "as in the Hoppe scan"),
    ("both-compares-first-degree-only", "powers.py",
     "            if not runs:\n"
     "                runs.append(kernel_dims_gb(*args, caps, top))\n"
     "            gb, linalg = runs[0](k), kernel_dim_linalg(*args, k, caps)\n",
     "            gb = linalg = kernel_dim_linalg(*args, k, caps)\n"
     "            if not runs:\n"
     "                runs.append(kernel_dims_gb(*args, caps, top))\n"
     "                gb = runs[0](k)\n",
     "'both' compares the two counts at every degree it reads, not only at "
     "the first"),
    ("fp-polynomial-reduced-mod-p", "algebra.py",
     "    if p.ring.field.char:\n        raise RingMismatchError(",
     "    if False:\n        raise RingMismatchError(",
     "only a polynomial over QQ is reduced mod p; residues mod another prime "
     "are no rationals"),
    ("composite-field-accepted", "algebra.py",
     "            return False\n    return True\n",
     "            continue\n    return True\n",
     "fp:P is refused unless P passes every Miller-Rabin round"),
    ("unknown-job-key-ignored", "cli.py",
     "        if key not in required + optional:\n",
     "        if False:\n",
     "a job key that its block does not take is refused, not ignored"),
    ("missing-required-key-accepted", "cli.py",
     "    for key in required:\n",
     "    for key in ():\n",
     "a job block without a key it must hold is refused before any parsing"),
    ("object-kind-unchecked", "cli.py",
     "    if (kind == \"ideal\") != (name == _IDEAL_TASK):\n",
     "    if False:\n",
     "closure takes an ideal and every other task a bundle, checked before "
     "any parsing"),
    ("genus-and-degree-both-accepted", "bounds.py",
     "        if genus is not None and plane_curve_degree is not None:\n",
     "        if False:\n",
     "a closure query takes the genus or the plane curve degree, not both"),
    ("scan-skips-bundle-test", "stability.py",
     "    checked = require_valid(bundle, check_surjectivity=True, caps=caps)\n",
     "    checked = require_valid(bundle, check_surjectivity=False, caps=caps)\n",
     "hoppe_check gives a verdict only on a bundle: surjectivity is tested "
     "before any scan"),
    ("koszul-range-one-low", "stability.py",
     "        if q < n - N - 1:\n",
     "        if q < n - N - 2:\n",
     "the Koszul complex is exact above degree n - N - 1 only: rank "
     "n - N - 2 has homology the count leaves out"),
    ("koszul-upper-from-lower", "stability.py",
     "            sections = bounds(top)[1]\n",
     "            sections = bounds(top)[0]\n",
     "a '>' of a pass, the Koszul one too, needs the upper bound on h^0 at "
     "the window top to vanish"),
    ("pass-start-one-high", "stability.py",
     "            start = k\n",
     "            start = k + 1\n",
     "a pass that leaves alpha open hands on the degree where it stopped, "
     "not the one above"),
    ("koszul-no-hf-term", "stability.py",
     "            if q > n - N - 1:\n",
     "            if q >= n - N - 1:\n",
     "rank n - N - 1 carries the top Koszul homology HF(S/I, D - N - 1 - e)"),
    ("koszul-exact-term-over-fp", "stability.py",
     "        bundle.columns(), bundle.source_module(), bundle.target_module(), t, caps))\n",
     "        (b := modular_twin(bundle, PRIMARY_TEST_PRIME) or bundle).columns(),\n"
     "        b.source_module(), b.target_module(), t, caps))\n",
     "HF mod p only bounds HF over QQ from above; the exact term is "
     "eliminated over the bundle's own field"),
    ("koszul-exact-term-off-by-one", "stability.py",
     "lo = hi = forms(t) - products(t) + h0(t - c)\n",
     "lo = hi = forms(t) - products(t) + h0(t - c - 1)\n",
     "the top Koszul homology in degree e is HF(S/I, t), t = D - N - 1 - e"),
    ("koszul-exact-term-untwisted", "stability.py",
     "lo = hi = forms(t) - products(t) + h0(t - c)\n",
     "lo = hi = forms(t) - products(t) + h0(t)\n",
     "dim I_t is read off E = Syz(f)(c) at the dual twist t - c, where its "
     "column i has the monomials of degree t - d_i"),
    ("staged-skips-shape-check", "tannaka.py",
     "    require_valid(bundle)\n    caps = caps.start()\n    if q < 1:\n",
     "    caps = caps.start()\n    if q < 1:\n",
     "a section table, under every engine, refuses a mis-graded presentation"),
]

# tests/test_mutants.py checks that every edit applies to the unedited tree,
# which a copy with one edit applied is not
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 600     # tier-1 takes about 15 s; a hang is no kill


def run_mutant(file: str, old: str, new: str) -> str:
    """'killed', 'survived', 'timeout' or 'stale' for one edit, on a copy
    of the repository."""
    with tempfile.TemporaryDirectory(prefix="kbundle-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks"))
        path = copy / "src" / "kbundle" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(TIER1, cwd=copy, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    outcomes = []
    for name, file, old, new, claim in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        outcome = run_mutant(file, old, new)
        outcomes.append(outcome)
        print(f"{outcome:8} {name} ({file}, {time.perf_counter() - start:.1f} s): "
              f"{claim}", flush=True)
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
