"""Freezes the expected decision fields of every pool job into expected/.

    python3 bench/freeze.py paper
    python3 bench/freeze.py scan            # writes scan_linalg and scan_gb
    python3 bench/freeze.py surjectivity

Each answer is taken from a path other than the one the workload times:

- paper: the acceptance-suite values (tests/test_acceptance.py), plus a
  second engine, method or hand computation for the fields the suite leaves
  open;
- scan_gb: the linalg engine;
- scan_linalg: the gb engine where it finishes within twice the cap, else
  the linalg scan over F_p (p = 1000003), whose kernel dimensions bound the
  rational ones from above, so a scan without sections there is a proof;
- surjectivity: I_d = R_d for the ideal of maximal minors at
  d = (N+1)(D-1)+1, without Buchberger: full rank over F_p proves yes, a
  common zero of the minors with small integer coordinates proves no, and
  otherwise the rank is computed over QQ.  Jobs whose check takes more than
  a minute are left out of the pool.

Every job is also timed on its timed path with its cap.  A decided job must
take at most half the cap; a job that hits the cap must still hit it at twice
the cap, and is listed as cap_bound (known undecided).
"""

from __future__ import annotations

import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from answers import decision_fields  # noqa: E402
from run import job_digest  # noqa: E402
from kbundle.bounds import restriction_bound  # noqa: E402
from kbundle.cli import execute_job  # noqa: E402
from kbundle.modgb import ResourceCapError  # noqa: E402

CHECK_PRIME = 2147483647
SCAN_PRIME = 1000003


# ---------------------------------------------------------------------------
# Running one job.
# ---------------------------------------------------------------------------

def run_job(job: dict, exit_codes=(0,), **options):
    """(fields or "cap", seconds) of a job with some options replaced."""
    job = json.loads(json.dumps(job))
    job["task"]["options"].update(options)
    started = time.perf_counter()
    try:
        report, _, code = execute_job(job)
    except ResourceCapError:
        return "cap", time.perf_counter() - started
    elapsed = time.perf_counter() - started
    if code not in exit_codes:
        raise SystemExit(f"job exited {code}: {job}")
    fields = decision_fields(job["task"]["name"], report["results"])
    return json.loads(json.dumps(fields)), elapsed


class MarginError(Exception):
    """The job's time lies within a factor 2 of its cap."""


def timed_path(workload: str, job: dict, exit_codes=(0,)) -> tuple:
    """Runs the job as the benchmark does; checks the 2x cap margin.

    Returns (fields, seconds), with fields None for a job that hits the cap.
    """
    cap = workloads.CAPS[workload]
    fields, seconds = run_job(job, exit_codes)
    if fields == "cap":
        again, again_seconds = run_job(job, exit_codes, timeout_seconds=2 * cap)
        if again != "cap":
            raise MarginError(f"{workload}: finishes in {again_seconds:.2f} s, "
                              f"between the {cap} s cap and twice the cap")
        return None, seconds
    if seconds > cap / 2:
        raise MarginError(f"{workload}: {seconds:.2f} s is within 2x of the "
                          f"{cap} s cap")
    return fields, seconds


def entry(job, fields, reference, seconds, cap_bound=False, exit_code=0) -> dict:
    return {"digest": job_digest(job), "fields": fields, "reference": reference,
            "cap_bound": cap_bound, "seed_seconds": round(seconds, 4),
            "exit": exit_code}


# ---------------------------------------------------------------------------
# Buchberger-free surjectivity: I_d = R_d for the ideal of maximal minors.
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_terms(text: str, names) -> dict:
    """The CLI grammar without rationals: "3*X^2*Y - Z" -> {mono: coeff}."""
    index = {v: k for k, v in enumerate(names)}
    poly: dict = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = -1 if sign == "-" else 1
        mono = [0] * len(names)
        for factor in body.split("*"):
            base, _, exp = factor.partition("^")
            if base in index:
                mono[index[base]] += int(exp or 1)
            else:
                coeff *= int(base)
        key = tuple(mono)
        poly[key] = poly.get(key, 0) + coeff
    return {m: c for m, c in poly.items() if c}


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def determinant(rows) -> dict:
    if len(rows) == 1:
        return rows[0][0]
    total: dict = {}
    for k, e in enumerate(rows[0]):
        if e:
            minor = [r[:k] + r[k + 1:] for r in rows[1:]]
            total = poly_add(total, poly_mul(e, determinant(minor)),
                             1 if k % 2 == 0 else -1)
    return total


def maximal_minors(matrix) -> list:
    from itertools import combinations
    m, n = len(matrix), len(matrix[0])
    minors = []
    for cols in combinations(range(n), m):
        det = determinant([[row[c] for c in cols] for row in matrix])
        if det:
            minors.append(det)
    return minors


class ReferenceTimeout(Exception):
    """The Buchberger-free check ran past its time budget."""


def _full_rank(vectors, target: int, reduce, deadline: float) -> bool:
    """Do the vectors (dicts keyed by int) span a space of dimension target?"""
    pivots: dict = {}
    for vec in vectors:
        if time.perf_counter() > deadline:
            raise ReferenceTimeout
        v = dict(vec)
        while v:
            lead = min(v)
            if lead not in pivots:
                break
            reduce(v, pivots[lead], v[lead])
        if v:
            lead = min(v)
            inv = reduce.inverse(v[lead])
            pivots[lead] = {t: reduce.scale(c, inv) for t, c in v.items()}
            if len(pivots) == target:
                return True
    return False


class _ModP:
    def __init__(self, p):
        self.p = p

    def inverse(self, a):
        return pow(a, -1, self.p)

    def scale(self, a, b):
        return a * b % self.p

    def __call__(self, v, pivot, c):
        p = self.p
        for t, pc in pivot.items():
            s = (v.get(t, 0) - c * pc) % p
            if s:
                v[t] = s
            else:
                v.pop(t, None)


class _QQ(_ModP):
    def __init__(self):
        super().__init__(None)

    def inverse(self, a):
        return 1 / Fraction(a)

    def scale(self, a, b):
        return a * b

    def __call__(self, v, pivot, c):
        for t, pc in pivot.items():
            s = v.get(t, 0) - c * pc
            if s:
                v[t] = s
            else:
                v.pop(t, None)


def degree_piece_spans(minors, nvars: int, d: int, field, deadline: float) -> bool:
    """Do the degree-d multiples of the minors span all of R_d?"""
    index = {mono: k for k, mono in enumerate(workloads.monomials(nvars, d))}
    vectors = []
    for g in minors:
        e = sum(next(iter(g)))
        if e > d:
            continue
        for mono in workloads.monomials(nvars, d - e):
            vectors.append({index[tuple(a + b for a, b in zip(m, mono))]:
                            (c % field.p if field.p else c)
                            for m, c in g.items()})
    return _full_rank(vectors, len(index), field, deadline)


def common_zero(minors, nvars: int):
    """A point with coordinates in -2..2 where every minor vanishes, or None.

    Such a point proves that the minors do not cut out the empty set, so the
    presentation is not surjective.  Sparse random entries often share a
    coordinate point or line.
    """
    from itertools import product
    for point in product(range(-2, 3), repeat=nvars):
        if not any(point):
            continue
        if all(sum(c * _power_product(point, m) for m, c in g.items()) == 0
               for g in minors):
            return point
    return None


def _power_product(point, mono) -> int:
    out = 1
    for x, e in zip(point, mono):
        out *= x ** e
    return out


def surjective_without_groebner(matrix, nvars: int, seconds: float) -> tuple:
    """(surjective, how), without Buchberger.

    With D the largest minor degree, an m-primary ideal contains R_d for
    d = nvars*(D-1)+1; I_d0 = R_d0 for a smaller d0 implies it there too.
    Full rank over F_p implies full rank over QQ, and a common zero of the
    minors proves the answer no; otherwise the bound is decided over QQ.
    Raises ReferenceTimeout after `seconds`.
    """
    deadline = time.perf_counter() + seconds
    minors = maximal_minors(matrix)
    if not minors:
        return False, "every maximal minor is zero"
    point = common_zero(minors, nvars)
    if point is not None:
        return False, f"the maximal minors vanish at {point}"
    D = max(sum(next(iter(g))) for g in minors)
    bound = nvars * (D - 1) + 1
    for d in range(min(sum(next(iter(g))) for g in minors), bound + 1):
        if degree_piece_spans(minors, nvars, d, _ModP(CHECK_PRIME), deadline):
            return True, f"I_d = R_d for the maximal minors at d = {d} over F_p"
    if degree_piece_spans(minors, nvars, bound, _QQ(), deadline):
        return True, f"I_d = R_d for the maximal minors at d = {bound} over QQ"
    return False, f"I_d != R_d for the maximal minors at d = {bound} over QQ"


def matrix_terms(job: dict) -> list:
    names = job["ring"]["variables"]
    obj = job["object"]
    if "syzygy" in obj:
        return [[parse_terms(g, names) for g in obj["syzygy"]["generators"]]]
    return [[parse_terms(t, names) for t in row] for row in obj["kernel"]["matrix"]]


def surjectivity_reference(job: dict, seconds: float = float("inf")) -> tuple:
    """(valid and surjective fields, how); the generated presentations pass
    every other check of validate, so valid equals surjective."""
    nvars = len(job["ring"]["variables"])
    surjective, how = surjective_without_groebner(matrix_terms(job), nvars, seconds)
    return {"valid": surjective, "surjective": surjective}, how


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

def _sections_positive(table, zero, positive):
    return all(table[str(k)] == 0 for k in zero) and \
        all(table[str(k)] > 0 for k in positive)


# job id -> (acceptance criterion, predicate on the decision fields)
ACCEPTANCE = {
    "check/five_quadrics": ("criterion 4", lambda f: f["verdict"] == "semistable"),
    "check/five_quadrics/pullback2": (
        "criterion 4", lambda f: f["stability"] in ("proven_stable",
                                                    "proven_via_selfduality")
        and f["pullback"]["stability"] == "proven_via_selfduality"),
    "check/five_quartics": (
        "criterion 3", lambda f: f["verdict"] == "semistable"
        and f["stability"] == "proven_via_selfduality"
        and f["per_power"][0][2] == ">" and f["per_power"][1][1:] == [10, "="]),
    "check/dual_five_monomials": (
        "criterion 1", lambda f: f["verdict"] == "semistable"
        and f["stability"] == "undetermined" and f["per_power"][1][1:] == [-5, "="]),
    "check/cubes": ("criterion 2", lambda f: f["verdict"] == "unstable"
                    and f["witness_degree"] == 9 and f["per_power"][-1][0] == 2),
    "check/cubes/gb": ("criterion 2", lambda f: f["verdict"] == "unstable"
                       and f["witness_degree"] == 9),
    "check/sl3": ("criterion 5", lambda f: f["stability"] == "proven_stable"),
    "check/sl3/linalg": ("criterion 5", lambda f: f["stability"] == "proven_stable"),
    "check/rank6_sp6": ("criterion 6", lambda f: f["verdict"] == "semistable"
                        and f["stability"] == "proven_via_selfduality"),
    "check/rank6_sp6/linalg": ("criterion 6",
                               lambda f: f["stability"] == "proven_via_selfduality"),
    "sections/dual_five_monomials/tensor1": (
        "criterion 1", lambda f: _sections_positive(f["sections"], (-4, -3), (-2,))),
    "sections/dual_five_monomials/exterior2": (
        "criterion 1", lambda f: _sections_positive(f["sections"], (-7, -6), (-5,))),
    "sections/dual_five_monomials/exterior2/both": (
        "criterion 1", lambda f: _sections_positive(f["sections"], (-7, -6), (-5,))),
    "sections/five_quartics/tensor1": (
        "criterion 3", lambda f: _sections_positive(f["sections"], (4, 5), ())),
    "sections/five_quartics/exterior2": (
        "criterion 3", lambda f: _sections_positive(f["sections"], (8, 9), (10,))),
    "sections/cubes/exterior2": (
        "criterion 2", lambda f: f["sections"]["9"] > 0),
    "tannaka/sl3": ("criterion 5", lambda f: f["dims"]["3"] == 1
                    and f["group"] == "SL(3)"),
    "tannaka/sl3/exact": ("criterion 5", lambda f: f["dims"]["3"] == 1
                          and f["group"] == "SL(3)"),
    "tannaka/five_quartics": ("criterion 3", lambda f: f["simplicity"] == 1
                              and f["dims"]["4"] == 3 and f["selfdual"]
                              and f["group"] == "Sp(4)"),
    "tannaka/rank6_sp6/assumed": ("criterion 6", lambda f: f["dims"]["4"] == 3
                                  and f["selfdual"] and f["group"] == "Sp(6)"),
    "tannaka/rank6_sp6": ("criterion 6", lambda f: f["dims"]["4"] == 3
                          and f["selfdual"] and f["group"] == "Sp(6)"),
    "restrict/five_quartics/langer": ("criterion 10", lambda f: f["k_min"] == 61),
    "closure/five_quadrics": ("criterion 10", lambda f: f["tau"] == "5/2"
                              and f["m_min"] == 3),
}

# Fields the acceptance suite leaves open, by hand: closure thresholds are
# sum(d_i)/(n-1); X*Y is itself a generator of the five quadrics, and
# (XY)^49 is not divisible by X^98, Y^98 or Z^98.
BY_HAND = {
    "closure/sl3": {"tau": "4", "m_min": 4, "member": False},
    "closure/squares/fp7": {"tau": "3", "m_min": 3, "member": False},
    "closure/five_quadrics/fp7": {"tau": "5/2", "m_min": 3, "member": True},
}


def _other_path(job_id: str, job: dict):
    """A second engine or method for the same decision fields."""
    task = job["task"]["name"]
    options = job["task"]["options"]
    if task == "check":
        other = "linalg" if options.get("engine", "both") != "linalg" else "gb"
        return f"engine {other}", run_job(job, engine=other)[0]
    if task == "sections":
        other = "gb" if options.get("engine", "linalg") != "gb" else "linalg"
        if options.get("engine") == "staged":
            other = "linalg"
        return f"engine {other}", run_job(job, engine=other)[0]
    if task == "tannaka":
        other = "exact" if options.get("method", "two_prime") != "exact" else "two_prime"
        return f"method {other}", run_job(job, method=other)[0]
    if task == "validate":
        fields, how = surjectivity_reference(job)
        if not options.get("surjectivity"):
            fields = {"valid": True, "surjective": None}
        return how, fields
    if task == "restrict":
        return "boundary re-evaluation", None
    if task == "closure":
        return "by hand", None
    raise ValueError(task)


def freeze_paper() -> dict:
    jobs = {}
    for job_id in workloads.pool_ids("paper"):
        job = workloads.build_job("paper", job_id)
        fields, seconds = timed_path("paper", job)
        how, other = _other_path(job_id, job)
        refs = [how]
        if other is not None and other != fields:
            raise SystemExit(f"paper {job_id}: {fields} but {how} gives {other}")
        if job_id in ACCEPTANCE:
            criterion, holds = ACCEPTANCE[job_id]
            if not holds(fields):
                raise SystemExit(f"paper {job_id}: {fields} fails {criterion}")
            refs.insert(0, f"acceptance {criterion}")
        if job_id in BY_HAND and BY_HAND[job_id] != fields:
            raise SystemExit(f"paper {job_id}: {fields} != {BY_HAND[job_id]}")
        if job["task"]["name"] == "restrict":
            _check_restriction(job, fields)
        jobs[job_id] = entry(job, fields, "; ".join(refs), seconds)
        print(f"paper {job_id}: {seconds:.3f} s", file=sys.stderr)
    return {"paper": (jobs, {})}


def _check_restriction(job, fields):
    """k_min is the first degree the theorem's inequality holds at."""
    from kbundle.bundle import invariants
    from kbundle.cli import build_object, build_ring
    ring = build_ring(job["ring"])
    _, (bundle, _) = build_object(job["object"], ring)
    inv = invariants(bundle)
    options = job["task"]["options"]
    bound = restriction_bound(options["theorem"], bundle.N, inv.rank, inv.delta,
                              c=options.get("c", 1), field_char=ring.field.char,
                              certificate=fields["certificate"])
    k = fields["k_min"]
    if not (bound.predicate(k) and not bound.predicate(k - 1)):
        raise SystemExit(f"{job}: k_min {k} is not the boundary")


# ---------------------------------------------------------------------------
# scan_linalg / scan_gb
# ---------------------------------------------------------------------------

def freeze_scan() -> dict:
    lin, gb, left_out = {}, {}, {}
    for job_id in workloads.pool_ids("scan_linalg"):
        job_l = workloads.build_job("scan_linalg", job_id)
        job_g = workloads.build_job("scan_gb", job_id)
        presentation, how = surjectivity_reference(job_l)
        if not presentation["surjective"]:
            # a sheaf, not a bundle: analyze_bundle's cross-checks refuse it
            left_out[job_id] = f"no bundle: {how}"
            print(f"scan {job_id}: left out, {how}", file=sys.stderr)
            continue
        try:
            fields_l, sec_l = timed_path("scan_linalg", job_l)
            fields_g, sec_g = timed_path("scan_gb", job_g)
        except MarginError as exc:
            # both scan workloads draw from one pool
            left_out[job_id] = str(exc)
            print(f"scan {job_id}: left out, {exc}", file=sys.stderr)
            continue
        if fields_l is None:
            raise SystemExit(f"scan_linalg {job_id} hits the cap")
        gb[job_id] = entry(job_g, fields_l, "engine linalg", sec_g,
                           cap_bound=fields_g is None)
        if fields_g is not None:
            ref, fields_ref = "engine gb", fields_g
        else:
            ring = dict(job_l["ring"], field=f"fp:{SCAN_PRIME}")
            fields_ref, _ = run_job(dict(job_l, ring=ring), timeout_seconds=None)
            ref = f"engine linalg over F_{SCAN_PRIME} (gb hits twice the cap)"
        if fields_ref != fields_l:
            raise SystemExit(f"scan {job_id}: linalg {fields_l} but {ref} "
                             f"gives {fields_ref}")
        lin[job_id] = entry(job_l, fields_l, ref, sec_l)
        print(f"scan {job_id}: linalg {sec_l:.3f} s, gb {sec_g:.3f} s"
              + (" (cap)" if fields_g is None else ""), file=sys.stderr)
    return {"scan_linalg": (lin, left_out), "scan_gb": (gb, left_out)}


# ---------------------------------------------------------------------------
# surjectivity
# ---------------------------------------------------------------------------

REFERENCE_SECONDS = 60.0


def freeze_surjectivity() -> dict:
    jobs, left_out = {}, {}
    for job_id in workloads.pool_ids("surjectivity"):
        job = workloads.build_job("surjectivity", job_id)
        try:
            fields, seconds = timed_path("surjectivity", job, exit_codes=(0, 1))
            reference, how = surjectivity_reference(job, REFERENCE_SECONDS)
        except MarginError as exc:
            left_out[job_id] = str(exc)
            print(f"surjectivity {job_id}: left out, {exc}", file=sys.stderr)
            continue
        except ReferenceTimeout:
            left_out[job_id] = (f"the Buchberger-free check takes more than "
                                f"{REFERENCE_SECONDS:.0f} s")
            print(f"surjectivity {job_id}: left out, slow reference", file=sys.stderr)
            continue
        if fields is not None and fields != reference:
            raise SystemExit(f"surjectivity {job_id}: {fields} but {how} "
                             f"gives {reference}")
        # validate exits 1 on a presentation that is not surjective
        jobs[job_id] = entry(job, reference, how, seconds, cap_bound=fields is None,
                             exit_code=0 if reference["valid"] else 1)
        print(f"surjectivity {job_id}: {seconds:.3f} s, {how}"
              + (" (cap)" if fields is None else ""), file=sys.stderr)
    return {"surjectivity": (jobs, left_out)}


def main(argv) -> int:
    which = argv[1] if len(argv) > 1 else ""
    freezers = {"paper": freeze_paper, "scan": freeze_scan,
                "surjectivity": freeze_surjectivity}
    if which not in freezers:
        print(__doc__, file=sys.stderr)
        return 2
    for workload, (jobs, left_out) in freezers[which]().items():
        doc = {"workload": workload, "cap_seconds": workloads.CAPS[workload],
               "pool_size": len(jobs),
               "cap_bound": sorted(j for j, e in jobs.items() if e["cap_bound"]),
               "left_out": left_out,
               "jobs": jobs}
        path = BENCH / "expected" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
