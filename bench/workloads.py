"""Job generators for the four benchmark workloads.

Every job is a plain job dict for `kbundle.cli.execute_job`.  Instances come
from fixed pools: instance `i` of stratum `s` is generated from its own
random stream, so a pool entry never changes and its answer can be frozen in
`expected/`.  A pass holds a fixed number of jobs from each stratum, the
first pool entries that `expected/` keeps; the run seed sets their order.

This module does not import kbundle: building the job dicts is part of the
measured set-up, and the generator must not share code with the program.
"""

from __future__ import annotations

import random

# Instances per stratum; a pass uses the first ones that expected/ keeps.
POOL_SIZE = {"scan_linalg": 24, "scan_gb": 24, "surjectivity": 40}

# Per-job caps (options.timeout_seconds).  When expected/ was frozen, every
# decided job took less than half of its cap, and the jobs listed there as
# cap_bound still hit twice the cap (freeze.py checks both).
CAPS = {"paper": 30.0, "scan_linalg": 4.0, "scan_gb": 4.0, "surjectivity": 1.0}

MIN_JOBS = 100          # at least ten samples beyond p90


# ---------------------------------------------------------------------------
# Random homogeneous forms, written in the CLI polynomial grammar.
# ---------------------------------------------------------------------------

def variables(N: int) -> list:
    return ["X", "Y", "Z"] if N == 2 else [f"X{i}" for i in range(N + 1)]


def monomials(nvars: int, d: int) -> list:
    """Exponent tuples of degree d, lexicographically descending."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in monomials(nvars - 1, d - e))
    return out


def format_poly(terms, names) -> str:
    """[(exponents, int coefficient), ...] -> "3*X^2*Y - Z^3"."""
    text = ""
    for mono, c in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, mono) if e]
        body = "*".join(factors)
        mag = abs(c)
        piece = body if (mag == 1 and body) else (f"{mag}*{body}" if body else str(mag))
        if not text:
            text = piece if c > 0 else "-" + piece
        else:
            text += (" + " if c > 0 else " - ") + piece
    return text or "0"


def random_form(rng: random.Random, names, d: int):
    """Dense random form of degree d with small nonzero coefficients: every
    monomial is present, as in the generic bundles the scans stand for."""
    return [(m, rng.choice((-3, -2, -1, 1, 2, 3))) for m in monomials(len(names), d)]


def _ring(N: int) -> dict:
    return {"variables": variables(N), "field": "qq", "order": "degrevlex"}


# ---------------------------------------------------------------------------
# scan_linalg / scan_gb: generic syzygy bundles and a few m = 2 kernels.
# ---------------------------------------------------------------------------

# name -> (N, kind, shape, jobs per pass)
#   kind "syz": shape = (number of forms, degree)
#   kind "ker": shape = (twists_a, twists_b)
# The mix follows the generic scans measured on kbundle 0.1 (see README):
# generic syzygy bundles make up most of a pass, led by 5 cubics on P^2 (gb
# about 35x linalg) and 4 quadrics on P^3 (about 4x); four m = 2 kernel
# bundles stand for the "few" kernel bundles, and two P^3 cubics for the
# cubic scans that hit the gb cap.  A pass reaches about 6x, not the 40x of
# larger bundles, whose gb rounds would not fit into a run.
SCAN_STRATA = {
    "p2_syz3_d2": (2, "syz", (3, 2), 9),
    "p2_syz3_d3": (2, "syz", (3, 3), 9),
    "p2_syz4_d3": (2, "syz", (4, 3), 18),
    "p2_syz5_d2": (2, "syz", (5, 2), 18),
    "p2_syz5_d3": (2, "syz", (5, 3), 16),
    "p3_syz4_d2": (3, "syz", (4, 2), 24),
    "p2_ker_m2": (2, "ker", ((0, 0, 0, 0, -1), (1, 1)), 3),
    "p3_ker_m2": (3, "ker", ((0, 0, 0, 0, 0, 0), (1, 1)), 1),
    "p3_syz4_d3": (3, "syz", (4, 3), 2),
}


def scan_object(stratum: str, index: int) -> tuple:
    """(ring block, object block) of pool entry `index` of a scan stratum."""
    N, kind, shape, _ = SCAN_STRATA[stratum]
    names = variables(N)
    rng = random.Random(f"scan/{stratum}/{index}")
    if kind == "syz":
        count, d = shape
        gens = [format_poly(random_form(rng, names, d), names) for _ in range(count)]
        return _ring(N), {"syzygy": {"generators": gens, "twist": 0}}
    twists_a, twists_b = shape
    rows = [[format_poly(random_form(rng, names, b - a), names) for a in twists_a]
            for b in twists_b]
    return _ring(N), {"kernel": {"twists_a": list(twists_a),
                                 "twists_b": list(twists_b), "matrix": rows}}


def scan_job(stratum: str, index: int, engine: str) -> dict:
    ring, obj = scan_object(stratum, index)
    return {"ring": ring, "object": obj,
            "task": {"name": "check", "options": {"engine": engine}}}


# ---------------------------------------------------------------------------
# surjectivity: interlaced kernel presentations, validate --check-surjectivity.
# ---------------------------------------------------------------------------

# Strata of the criterion-07 generator (tests/test_acceptance.py): N is 2 with
# probability 2/3 and 3 with 1/3, m is 1 or 2 with equal odds, so a pass of
# 100 jobs holds 33, 33, 17 and 17 (name -> (N, m, jobs per pass)).
SURJ_STRATA = {
    "p2_m1": (2, 1, 33),
    "p2_m2": (2, 2, 33),
    "p3_m1": (3, 1, 17),
    "p3_m2": (3, 2, 17),
}


def sparse_form(rng: random.Random, names, d: int):
    """Random form as criterion 07 draws it: each monomial of degree d with
    probability 0.7, coefficients in -3..3; never zero."""
    terms = []
    for m in monomials(len(names), d):
        if rng.random() < 0.7:
            c = rng.randint(-3, 3)
            if c:
                terms.append((m, c))
    if not terms:
        terms = [(rng.choice(monomials(len(names), d)), rng.choice((1, 2, -1)))]
    return terms


def interlaced_twists(rng: random.Random, N: int, m: int) -> tuple:
    """Twists a (N + m of them, in -2..0) and b (b_j = a_j + 1 or 2)."""
    while True:
        a = sorted((rng.randint(-2, 0) for _ in range(N + m)), reverse=True)
        b = sorted((a[j] + rng.randint(1, 2) for j in range(m)), reverse=True)
        if all(b[j] > a[j] for j in range(m)):
            return a, b


def surjectivity_object(stratum: str, index: int) -> tuple:
    N, m, _ = SURJ_STRATA[stratum]
    names = variables(N)
    rng = random.Random(f"surjectivity/{stratum}/{index}")
    twists_a, twists_b = interlaced_twists(rng, N, m)
    rows = [[format_poly(sparse_form(rng, names, b - a), names) if b > a else "0"
             for a in twists_a] for b in twists_b]
    return _ring(N), {"kernel": {"twists_a": twists_a, "twists_b": twists_b,
                                 "matrix": rows}}


def surjectivity_job(stratum: str, index: int) -> dict:
    ring, obj = surjectivity_object(stratum, index)
    return {"ring": ring, "object": obj,
            "task": {"name": "validate", "options": {"surjectivity": True}}}


# ---------------------------------------------------------------------------
# paper: the named bundles through every CLI task.
# ---------------------------------------------------------------------------

QQ3 = {"variables": ["X", "Y", "Z"], "field": "qq", "order": "degrevlex"}
FP7 = {"variables": ["X", "Y", "Z"], "field": "fp:7", "order": "degrevlex"}

FIVE_QUADRICS = ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"]
FIVE_QUARTICS = ["X^4 - Y^4", "X^4 - Z^4", "X^2*Y^2", "X^2*Z^2", "Y^2*Z^2"]
CUBES = ["X^3", "Y^3", "Z^3", "X*Y^2*Z^2"]
SL3 = ["X^3", "Y^3", "Z^3", "X*Y*Z"]
RANK6 = ["X^6 - Y^4*Z^2", "Y^6 - X^2*Z^4", "X^4*Y^2 - Z^6",
         "X^2*Y^4", "Y^2*Z^4", "X^4*Z^2", "X^2*Y^2*Z^2"]

BUNDLES = {
    "five_quadrics": {"syzygy": {"generators": FIVE_QUADRICS, "twist": 0}},
    "five_quartics": {"syzygy": {"generators": FIVE_QUARTICS, "twist": 0}},
    "dual_five_monomials": {"kernel": {
        "twists_a": [3] * 6, "twists_b": [4, 4],
        "matrix": [["X", "-Y", "-Y", "0", "-Z", "0"],
                   ["0", "0", "X", "-Y", "0", "Z"]]}},
    "cubes": {"syzygy": {"generators": CUBES, "twist": 0}},
    "sl3": {"syzygy": {"generators": SL3, "twist": 4}},
    "rank6_sp6": {"syzygy": {"generators": RANK6, "twist": 7}},
}

IDEALS = {
    "five_quadrics": FIVE_QUADRICS,
    "squares": ["X^2", "Y^2", "Z^2"],
    "sl3": SL3,
}

# (job name, ring, object, task, options); every job runs once per pass.
_PAPER = [
    # check: engine both by default, then option variants
    ("check/five_quadrics", QQ3, "five_quadrics", "check", {}),
    ("check/five_quadrics/pullback2", QQ3, "five_quadrics", "check", {"via_pullback": 2}),
    ("check/five_quartics", QQ3, "five_quartics", "check", {}),
    ("check/five_quartics/no_upgrade", QQ3, "five_quartics", "check", {"upgrade_selfdual": False}),
    ("check/dual_five_monomials", QQ3, "dual_five_monomials", "check", {}),
    ("check/dual_five_monomials/semistability", QQ3, "dual_five_monomials", "check",
     {"mode": "semistability"}),
    ("check/cubes", QQ3, "cubes", "check", {}),
    ("check/cubes/gb", QQ3, "cubes", "check", {"engine": "gb"}),
    ("check/sl3", QQ3, "sl3", "check", {}),
    ("check/sl3/linalg", QQ3, "sl3", "check", {"engine": "linalg"}),
    ("check/rank6_sp6", QQ3, "rank6_sp6", "check", {}),
    ("check/rank6_sp6/linalg", QQ3, "rank6_sp6", "check", {"engine": "linalg"}),
    # sections
    ("sections/dual_five_monomials/tensor1", QQ3, "dual_five_monomials", "sections",
     {"kind": "tensor", "q": 1, "twists": "-4..-2"}),
    ("sections/dual_five_monomials/exterior2", QQ3, "dual_five_monomials", "sections",
     {"kind": "exterior", "q": 2, "twists": "-7..-5"}),
    ("sections/dual_five_monomials/exterior2/both", QQ3, "dual_five_monomials", "sections",
     {"kind": "exterior", "q": 2, "twists": "-7..-5", "engine": "both"}),
    ("sections/five_quartics/tensor1", QQ3, "five_quartics", "sections",
     {"kind": "tensor", "q": 1, "twists": "4..5"}),
    ("sections/five_quartics/exterior2", QQ3, "five_quartics", "sections",
     {"kind": "exterior", "q": 2, "twists": "8..10"}),
    ("sections/cubes/exterior2", QQ3, "cubes", "sections",
     {"kind": "exterior", "q": 2, "twists": "8..9"}),
    ("sections/sl3/symmetric2", QQ3, "sl3", "sections",
     {"kind": "symmetric", "q": 2, "twists": "0..1"}),
    ("sections/sl3/tensor3/staged", QQ3, "sl3", "sections",
     {"kind": "tensor", "q": 3, "twists": "0..0", "engine": "staged"}),
    # tannaka
    ("tannaka/sl3", QQ3, "sl3", "tannaka", {"q_max": 3}),
    ("tannaka/sl3/exact", QQ3, "sl3", "tannaka", {"q_max": 3, "method": "exact"}),
    ("tannaka/five_quartics", QQ3, "five_quartics", "tannaka", {"q_max": 4}),
    ("tannaka/rank6_sp6/assumed", QQ3, "rank6_sp6", "tannaka",
     {"q_max": 4, "assume_stability": "proven_via_selfduality"}),
    ("tannaka/rank6_sp6", QQ3, "rank6_sp6", "tannaka", {"q_max": 4}),
    # restrict
    ("restrict/five_quartics/langer", QQ3, "five_quartics", "restrict", {"theorem": "langer"}),
    ("restrict/five_quartics/flenner", QQ3, "five_quartics", "restrict",
     {"theorem": "flenner", "c": 1}),
    ("restrict/five_quadrics/pullback2", QQ3, "five_quadrics", "restrict",
     {"theorem": "langer", "via_pullback": 2}),
    ("restrict/sl3/fp7/langer_strong", FP7, "sl3", "restrict",
     {"theorem": "langer_strong", "assume_stability": "stable"}),
    ("restrict/dual_five_monomials/flenner", QQ3, "dual_five_monomials", "restrict",
     {"theorem": "flenner", "c": 1}),
    # closure
    ("closure/five_quadrics", QQ3, "ideal:five_quadrics", "closure", {}),
    ("closure/sl3", QQ3, "ideal:sl3", "closure", {"candidate": "X*Y*Z"}),
    ("closure/squares/fp7", FP7, "ideal:squares", "closure",
     {"candidate": "X*Y", "genus": 3, "frobenius_exponent": 2,
      "strong_flag": "elliptic-curve"}),
    ("closure/five_quadrics/fp7", FP7, "ideal:five_quadrics", "closure",
     {"candidate": "X*Y", "plane_curve_degree": 3, "strong_flag": "assumed"}),
    # validate
    ("validate/five_quadrics", QQ3, "five_quadrics", "validate", {"surjectivity": True}),
    ("validate/five_quartics", QQ3, "five_quartics", "validate", {"surjectivity": True}),
    ("validate/dual_five_monomials", QQ3, "dual_five_monomials", "validate",
     {"surjectivity": True}),
    ("validate/cubes", QQ3, "cubes", "validate", {"surjectivity": True}),
    ("validate/sl3", QQ3, "sl3", "validate", {}),
    ("validate/rank6_sp6", QQ3, "rank6_sp6", "validate", {"surjectivity": True}),
]


def paper_job(name: str) -> dict:
    for job_name, ring, obj, task, options in _PAPER:
        if job_name == name:
            if obj.startswith("ideal:"):
                obj_block = {"ideal": {"generators": list(IDEALS[obj[6:]])}}
            else:
                obj_block = BUNDLES[obj]
            return {"ring": dict(ring), "object": obj_block,
                    "task": {"name": task, "options": dict(options)}}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Pools and passes.
# ---------------------------------------------------------------------------

WORKLOADS = ("paper", "scan_linalg", "scan_gb", "surjectivity")


def pool_ids(workload: str) -> list:
    """Every candidate job id of a workload.  expected/ freezes one answer per
    id and lists under left_out the ids that are not in the pool a run draws
    from (no bundle, or a time within 2x of the cap)."""
    if workload == "paper":
        return [entry[0] for entry in _PAPER]
    strata = SURJ_STRATA if workload == "surjectivity" else SCAN_STRATA
    return [f"{s}/{i}" for s in strata for i in range(POOL_SIZE[workload])]


def group(workload: str, job_id: str) -> str:
    """The task of a paper job, the stratum of any other."""
    return job_id.split("/")[0] if workload == "paper" else job_id.rsplit("/", 1)[0]


def build_job(workload: str, job_id: str) -> dict:
    """The job dict for one pool id, with the workload's per-job cap."""
    if workload == "paper":
        job = paper_job(job_id)
    else:
        stratum, index = job_id.rsplit("/", 1)
        if workload == "surjectivity":
            job = surjectivity_job(stratum, int(index))
        else:
            job = scan_job(stratum, int(index), workload[len("scan_"):])
    job["task"]["options"]["timeout_seconds"] = CAPS[workload]
    return job


def pass_ids(workload: str, rng: random.Random, pool, scale: float = 1.0) -> list:
    """One pass: the first `count` pool entries of every stratum, shuffled.

    Every seed runs the same jobs in its own order.  A seed-drawn subset
    would move the quantiles wherever they sit on a steep part of the cost
    curve (by about 20% at p50 of surjectivity and scan_gb), which is noise
    that says nothing about the program.  `scale` < 1 shrinks every stratum
    count for the smoke size, dropping the strata it rounds to zero; the
    paper workload then keeps a fixed subset.
    """
    if workload == "paper":
        ids = [job_id for job_id in pool_ids(workload) if job_id in pool]
        if scale < 1.0:
            ids = ids[::max(1, round(1 / scale))]
    else:
        strata = SURJ_STRATA if workload == "surjectivity" else SCAN_STRATA
        ids = []
        for stratum, spec in strata.items():
            members = [job_id for job_id in pool_ids(workload)
                       if job_id in pool and job_id.rsplit("/", 1)[0] == stratum]
            ids.extend(members[:round(spec[-1] * scale)])
    rng.shuffle(ids)
    return ids


def first_passes(workload: str, rng: random.Random, pool) -> list:
    """The whole passes that make up a run's first MIN_JOBS jobs."""
    ids: list = []
    while len(ids) < MIN_JOBS:
        ids.extend(pass_ids(workload, rng, pool))
    return ids
