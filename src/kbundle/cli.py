"""Command-line front end: parse bundle/ideal descriptions, dispatch to the
engines, and emit human-readable plus machine-readable reports.

Exit codes: 0 = decided, 1 = input error, 2 = indeterminate (resource cap or
internal cross-check mismatch; never a wrong verdict).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import (
    AlgebraError,
    FieldSpec,
    PolyRing,
    default_variables,
    parse_polynomial,
)
from .bounds import (
    BoundsError,
    ClosureQuery,
    closure_threshold,
    frobenius_membership,
    restriction_bound,
)
from .bundle import (
    BundleError,
    KernelBundle,
    SyzygyBundleSpec,
    from_syzygy,
    invariants,
    make_kernel_bundle,
    require_valid,
    validate,
)
from .modgb import Caps, ResourceCapError
from .stability import InternalCheckError, StabilityError, analyze_bundle
from . import tannaka
from .tannaka import TannakaError

if TYPE_CHECKING:
    import argparse


class InputError(ValueError):
    pass


def _frac(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Job assembly (flags and job files share one normalized dict form).
# ---------------------------------------------------------------------------

def _ring_config_from_args(args) -> dict:
    if args.vars:
        variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    else:
        variables = list(default_variables(args.dim + 1))
    return {"variables": variables, "field": args.field, "order": args.order}


def build_ring(cfg: dict) -> PolyRing:
    field_text = _typed(cfg.get("field", "qq"), _STR, "field").lower()
    if field_text in ("qq", "q", "rationals"):
        field = FieldSpec(0)
    elif field_text.startswith("fp:"):
        try:
            field = FieldSpec(int(field_text[3:]))
        except ValueError as exc:
            raise InputError(f"bad field spec {field_text!r}: {exc}") from exc
        if not field.char:
            raise InputError(f"bad field spec {field_text!r}: P must be a prime")
    else:
        raise InputError(f"unknown field {field_text!r} (use qq or fp:P)")
    if "variables" not in cfg:
        raise InputError("the ring block needs a 'variables' list")
    variables = tuple(_typed(v, _STR, "variables entry")
                      for v in _typed(cfg["variables"], _LIST, "variables"))
    try:
        return PolyRing(variables, field, cfg.get("order", "degrevlex"))
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc


def _split_list(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


_BOOL, _INT, _STR = ("a boolean", bool), ("an integer", int), ("a string", str)
_LIST, _DICT = ("a list", list), ("an object", dict)
_NUMBER = ("a number", int, float)


def _typed(value, kind: tuple, what: str):
    """value, if its type is one of kind's types (so True is no integer)."""
    if type(value) not in kind[1:]:
        raise InputError(f"{what} must be {kind[0]}, got {value!r}")
    return value


def _int_list(text: str, what: str) -> list:
    try:
        return [int(t) for t in _split_list(text)]
    except ValueError:
        raise InputError(f"{what} must be integers, got {text!r}") from None


def _object_config_from_args(args) -> dict:
    given = [name for name in ("syzygy", "ideal", "matrix") if getattr(args, name, None)]
    if len(given) != 1:
        raise InputError("give exactly one object: --syzygy, --ideal, or "
                         "--matrix with --twists-a/--twists-b")
    if args.syzygy:
        return {"syzygy": {"generators": _split_list(args.syzygy),
                           "twist": args.twist}}
    if args.ideal:
        return {"ideal": {"generators": _split_list(args.ideal)}}
    if not (args.twists_a and args.twists_b):
        raise InputError("--matrix needs --twists-a and --twists-b")
    rows = [_split_list(row) for row in args.matrix.split(";")]
    return {"kernel": {
        "twists_a": _int_list(args.twists_a, "--twists-a"),
        "twists_b": _int_list(args.twists_b, "--twists-b"),
        "matrix": rows,
    }}


def _polys(texts, ring: PolyRing, what: str) -> list:
    return [parse_polynomial(_typed(t, _STR, f"{what} entry"), ring)
            for t in _typed(texts, _LIST, what)]


def build_object(cfg: dict, ring: PolyRing):
    """Returns (kind, payload): kind "bundle" pairs the bundle with an optional
    syzygy spec; kind "ideal" carries the generator list."""
    try:
        if "syzygy" in cfg:
            spec_cfg = _typed(cfg["syzygy"], _DICT, "syzygy")
            gens = tuple(_polys(spec_cfg["generators"], ring, "generators"))
            spec = SyzygyBundleSpec(ring, gens,
                                    _typed(spec_cfg.get("twist", 0), _INT, "twist"))
            return "bundle", (from_syzygy(spec), spec)
        if "kernel" in cfg:
            kcfg = _typed(cfg["kernel"], _DICT, "kernel")
            matrix = [_polys(row, ring, "matrix row")
                      for row in _typed(kcfg["matrix"], _LIST, "matrix")]
            twists = [[_typed(t, _INT, f"{name} entry")
                       for t in _typed(kcfg[name], _LIST, name)]
                      for name in ("twists_a", "twists_b")]
            bundle = make_kernel_bundle(ring, *twists, matrix)
            return "bundle", (bundle, None)
        if "ideal" in cfg:
            ideal_cfg = _typed(cfg["ideal"], _DICT, "ideal")
            gens = tuple(_polys(ideal_cfg["generators"], ring, "generators"))
            if not gens:
                raise InputError("an ideal needs at least one generator")
            return "ideal", gens
    except (AlgebraError, BundleError, KeyError) as exc:
        raise InputError(str(exc)) from exc
    raise InputError("object block must contain syzygy, kernel, or ideal")


# The options a job of each task takes, under the names a command line job
# passes on, with the kind of their values; then the caps options (the fields
# of Caps), which every task takes, and the stability assumptions a task
# accepts.
_TASK_OPTIONS = {
    "validate": {"surjectivity": _BOOL},
    "check": {"engine": _STR, "mode": _STR, "via_pullback": _INT,
              "upgrade_selfdual": _BOOL},
    "sections": {"kind": _STR, "q": _INT, "twists": _STR, "engine": _STR},
    "tannaka": {"q_max": _INT, "method": _STR, "engine": _STR,
                "assume_stability": _STR, "via_pullback": _INT},
    "restrict": {"theorem": _STR, "c": _INT, "engine": _STR,
                 "assume_stability": _STR, "via_pullback": _INT},
    "closure": {"engine": _STR, "candidate": _STR, "frobenius_exponent": _INT,
                "genus": _INT, "plane_curve_degree": _INT, "strong_flag": _STR,
                "assume_stability": _STR},
}
_CAPS_OPTIONS = {"max_degree": _INT, "max_pairs": _INT, "timeout_seconds": _NUMBER}
_ASSUMPTIONS = {"tannaka": tannaka.PROVEN,
                "restrict": ("semistable", "stable"),
                "closure": ("semistable", "stable")}


def _check_options(name: str, options: dict):
    kinds = {**_TASK_OPTIONS[name], **_CAPS_OPTIONS}
    for key, value in options.items():
        if key not in kinds:
            raise InputError(f"unknown option {key!r} for task {name!r}")
        _typed(value, kinds[key], f"option {key!r}")
        if key in _CAPS_OPTIONS and not value >= 0:    # NaN fails too
            raise InputError(f"option {key!r} must be nonnegative, got {value!r}")
    assumed = options.get("assume_stability")
    if assumed is not None and assumed not in _ASSUMPTIONS[name]:
        raise InputError(f"option 'assume_stability' must be one of "
                         f"{', '.join(_ASSUMPTIONS[name])}, got {assumed!r}")


def _require_bundle(kind, payload, well_formed: bool = True):
    """The (bundle, spec) payload.  Unless well_formed is False (validate,
    which reports the problems), a presentation that fails validate's
    structure checks is an input error; surjectivity is analyze_bundle's."""
    if kind != "bundle":
        raise InputError("this task needs a bundle object (syzygy or kernel)")
    if well_formed:
        require_valid(payload[0])
    return payload


def _require_ideal(kind, payload):
    if kind != "ideal":
        raise InputError("this task needs an ideal object (--ideal)")
    return payload


# ---------------------------------------------------------------------------
# Task executors: each returns (results dict, human lines).
# ---------------------------------------------------------------------------

def _bundle_summary(bundle: KernelBundle) -> dict:
    """Twists and rank; the Chern data too unless the rank is below one
    (validate reports such a shape, which has no slope)."""
    summary = {
        "N": bundle.N,
        "twists_a": list(bundle.twists_a),
        "twists_b": list(bundle.twists_b),
        "rank": bundle.rank,
    }
    if bundle.rank >= 1:
        inv = invariants(bundle)
        summary.update(c1=inv.c1, mu=_frac(inv.mu), c2=_frac(inv.c2),
                       delta=_frac(inv.delta))
    return summary


def _report_dict(report) -> dict:
    out = {
        "verdict": report.verdict,
        "stability": report.stability,
        "gate": report.gate,
        "mode": report.mode,
        "engine": report.engine,
        "mu": _frac(report.mu),
        "rank": report.rank,
        "per_power": [
            {"q": c.q, "alpha": c.alpha, "threshold": _frac(c.threshold),
             "relation": c.relation, "window": [c.window_low, c.window_top],
             "prime": c.prime}
            for c in report.per_power
        ],
        "trace": list(report.criteria_trace),
    }
    if report.witness is not None:
        w = report.witness
        out["witness"] = {"q": w.q, "degree": w.degree,
                          "verified": w.verified,
                          "element": str(w.element)}
    return out


def task_validate(kind, payload, options, caps):
    bundle, _ = _require_bundle(kind, payload, well_formed=False)
    report = validate(bundle, check_surjectivity=options.get("surjectivity", False),
                      caps=caps)
    results = {
        "bundle": _bundle_summary(bundle),
        "valid": report.ok,
        "surjective": report.surjective,
        "problems": [str(p) for p in report.problems],
    }
    lines = [f"bundle: {bundle.describe()}"]
    if report.ok:
        lines.append("valid presentation"
                     + (", surjective" if report.surjective else ""))
    else:
        lines.extend(f"problem: {p}" for p in report.problems)
    return results, lines, 0 if report.ok else 1


def task_check(kind, payload, options, caps):
    bundle, spec = _require_bundle(kind, payload)
    analysis = analyze_bundle(
        bundle,
        engine=options.get("engine", "both"),
        mode=options.get("mode", "stability_evidence"),
        upgrade_selfdual=options.get("upgrade_selfdual", True),
        via_pullback=options.get("via_pullback"),
        spec=spec,
        caps=caps,
    )
    report = analysis.report
    results = {
        "bundle": _bundle_summary(bundle),
        "report": _report_dict(report),
        "criteria": {name: {"verdict": res.verdict}
                     for name, res in analysis.criteria.items()},
    }
    if analysis.pullback is not None:
        results["pullback"] = {
            "k": options.get("via_pullback"),
            "report": _report_dict(analysis.pullback.report),
        }
    lines = [f"bundle: {bundle.describe()}, mu = {report.mu}",
             f"slope gate: {report.gate}"]
    for c in report.per_power:
        if c.relation == ">":
            by = f", mod {c.prime}" if c.prime else ""
            lines.append(f"q={c.q}: no sections up to twist {c.window_top} "
                         f"(threshold {c.threshold}{by})")
        else:
            lines.append(f"q={c.q}: first section at twist {c.alpha} "
                         f"{c.relation} threshold {c.threshold}")
    if report.witness:
        lines.append(f"witness: q={report.witness.q}, degree "
                     f"{report.witness.degree}, verified")
    lines.append(f"verdict: {report.verdict}"
                 + (f"; stability: {report.stability}"
                    if report.verdict == "semistable" else ""))
    return results, lines, 0


def _parse_twist_range(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            twists = list(range(int(lo), int(hi) + 1))
        else:
            twists = [int(t) for t in _split_list(text)]
    except ValueError:
        raise InputError(f"bad twist range {text!r}: twists must be integers") from None
    if not twists:
        raise InputError(f"empty twist range {text!r}")
    return twists


def task_sections(kind, payload, options, caps):
    bundle, _ = _require_bundle(kind, payload)
    kind_name = options.get("kind", "exterior")
    q = options.get("q", 1)
    twists = _parse_twist_range(options.get("twists", "0..0"))
    engine = options.get("engine", "linalg")
    table = tannaka.section_dim_table(bundle, kind_name, q, twists, engine, caps)
    results = {
        "bundle": _bundle_summary(bundle),
        "power": {"kind": kind_name, "q": q},
        "sections": {str(k): table[k] for k in twists},
    }
    lines = [f"h^0(({kind_name}^{q} E)(k)) for k in {twists[0]}..{twists[-1]}:"]
    lines.extend(f"  k = {k}: {table[k]}" for k in twists)
    return results, lines, 0


def _stability_report(bundle, spec, options, caps):
    """The stability analysis of `tannaka`, `restrict` and `closure` when no
    stability is assumed: engine linalg unless the job names one."""
    return analyze_bundle(bundle, engine=options.get("engine", "linalg"),
                          via_pullback=options.get("via_pullback"),
                          spec=spec, caps=caps).report


def task_tannaka(kind, payload, options, caps):
    bundle, spec = _require_bundle(kind, payload)
    assume = options.get("assume_stability")
    if assume:
        status = assume
        report_dict = {"assumed": assume}
    else:
        report = _stability_report(bundle, spec, options, caps)
        status = report.stability if report.is_semistable else "unstable"
        report_dict = _report_dict(report)
    fp = tannaka.fingerprint(bundle, status, q_max=options.get("q_max", 4),
                             method=options.get("method", "default"), caps=caps)
    results = {
        "bundle": _bundle_summary(bundle),
        "stability": report_dict,
        "fingerprint": {
            "rank": fp.rank,
            "normalizing_twist": fp.normalizing_twist,
            "dims": {str(q): {"value": cell.value, "evidence": cell.evidence}
                     for q, cell in sorted(fp.dims.items())},
            "simplicity": fp.dims[2].value,
            "selfdual": fp.selfdual,
            "selfdual_reason": fp.selfdual_reason,
        },
    }
    lines = [f"stability status: {status}"]
    lines.extend(f"h^0(E0^(x){q}) = {cell.value}  [{cell.evidence}]"
                 for q, cell in sorted(fp.dims.items()))
    lines.append(f"self-dual: {fp.selfdual} ({fp.selfdual_reason})")
    try:
        guess = tannaka.classify_group(fp)
        results["group"] = {"label": guess.label(),
                            "justification": guess.justification}
        lines.append(f"dual group: {guess.label()}")
        lines.append(f"  {guess.justification}")
    except TannakaError as exc:
        results["group"] = {"label": "not classified", "reason": str(exc)}
        lines.append(f"dual group not classified: {exc}")
    return results, lines, 0


def task_restrict(kind, payload, options, caps):
    bundle, spec = _require_bundle(kind, payload)
    inv = invariants(bundle)
    assume = options.get("assume_stability")
    if assume:
        certificate = assume
        cert_source = f"assumed {assume}"
    else:
        report = _stability_report(bundle, spec, options, caps)
        if not report.is_semistable:
            raise BoundsError("the bundle is unstable; no restriction theorem "
                              "applies")
        certificate = "stable" if report.is_stable_proven else "semistable"
        cert_source = f"computed ({report.stability or report.verdict})"
    theorem = options.get("theorem", "langer").replace("-", "_")
    bound = restriction_bound(theorem, bundle.N, inv.rank, inv.delta,
                              c=options.get("c", 1),
                              field_char=bundle.ring.field.char,
                              certificate=certificate)
    results = {
        "bundle": _bundle_summary(bundle),
        "certificate": {"level": certificate, "source": cert_source},
        "bound": {"theorem": bound.theorem, "k_min": bound.k_min,
                  "delta": _frac(bound.delta), "c": bound.c,
                  "conclusion": bound.conclusion},
    }
    lines = [f"certificate: {certificate} ({cert_source})",
             f"{bound.theorem}: k_min = {bound.k_min}",
             bound.conclusion]
    return results, lines, 0


def task_closure(kind, payload, options, caps):
    gens = _require_ideal(kind, payload)
    ring = gens[0].ring
    certificate = options.get("assume_stability")
    trace = []
    primary_proven = False
    if ring.field.char == 0 and certificate is None:
        spec = SyzygyBundleSpec(ring, gens, 0)
        report = _stability_report(from_syzygy(spec), spec, options, caps)
        if not report.is_semistable:
            raise BoundsError(
                "the syzygy bundle of the ideal is unstable; the inclusion "
                "bound does not apply")
        certificate = "stable" if report.is_stable_proven else "semistable"
        trace.append(f"semistability certificate computed: {certificate}")
        # a bundle: the analysis proved its generators irrelevant-primary
        primary_proven = True
    candidate_text = options.get("candidate")
    query = ClosureQuery(
        generators=gens,
        certificate=certificate,
        strong_flag=options.get("strong_flag"),
        genus=options.get("genus"),
        plane_curve_degree=options.get("plane_curve_degree"),
        candidate=parse_polynomial(candidate_text, ring) if candidate_text else None,
        frobenius_exponent=options.get("frobenius_exponent"),
    )
    closure = closure_threshold(query, caps, primary_proven)
    results = {
        "ideal": {"generators": [str(g) for g in gens],
                  "degrees": list(query.degrees)},
        "threshold": {"tau": _frac(closure.tau), "m_min": closure.m_min},
        "trace": trace + closure.trace,
    }
    lines = [f"tau = {closure.tau}: R_m lies in the closure for m >= "
             f"{closure.m_min}"]
    if query.candidate is not None:
        if ring.field.char == 0:
            m = query.candidate.homogeneous_degree()
            member = m is not None and Fraction(m) >= closure.tau
            results["membership"] = {
                "candidate": str(query.candidate),
                "member_by_threshold": member,
                "note": ("below the threshold, membership in solid closure "
                         "is not decided by this tool in characteristic 0"
                         if not member else "degree reaches the threshold"),
            }
            lines.append(f"candidate degree {m}: "
                         + ("in the closure by the threshold rule" if member
                            else "below the threshold; not decided"))
        else:
            membership = frobenius_membership(query, caps, closure)
            results["membership"] = {
                "candidate": str(query.candidate),
                "member": membership.member,
                "decisive": membership.decisive,
                "regime": membership.regime,
                "via": membership.via,
            }
            results["trace"].extend(membership.trace)
            lines.append(f"membership: {membership.member} ({membership.regime})")
    return results, lines, 0


TASKS = {
    "validate": task_validate,
    "check": task_check,
    "sections": task_sections,
    "tannaka": task_tannaka,
    "restrict": task_restrict,
    "closure": task_closure,
}


# ---------------------------------------------------------------------------
# Argument parsing and the entry point.
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--vars", help="comma-separated variable names")
    parser.add_argument("--dim", type=int, default=2,
                        help="projective dimension N (default 2)")
    parser.add_argument("--field", default="qq", help="qq or fp:P")
    parser.add_argument("--order", default="degrevlex",
                        choices=["degrevlex", "deglex", "lex"])
    parser.add_argument("--syzygy", help="comma-separated homogeneous generators")
    parser.add_argument("--twist", type=int, default=0,
                        help="twist for the syzygy bundle")
    parser.add_argument("--ideal", help="comma-separated ideal generators")
    parser.add_argument("--matrix", help="rows separated by ';', entries by ','")
    parser.add_argument("--twists-a", dest="twists_a")
    parser.add_argument("--twists-b", dest="twists_b")
    parser.add_argument("--max-degree", dest="max_degree", type=int)
    parser.add_argument("--max-pairs", dest="max_pairs", type=int)
    parser.add_argument("--timeout-seconds", dest="timeout_seconds", type=float)
    parser.add_argument("--json-out", dest="json_out")


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only the command line needs it; execute_job does not
    parser = argparse.ArgumentParser(
        prog="kbundle",
        description="Exact semistability and section computations for kernel "
                    "and syzygy bundles on projective space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a kernel presentation")
    _add_common(p)
    p.add_argument("--check-surjectivity", action="store_true",
                   dest="surjectivity")

    p = sub.add_parser("check", help="decide semistability and stability")
    _add_common(p)
    p.add_argument("--engine", default="both", choices=["gb", "linalg", "both"])
    p.add_argument("--mode", default="stability_evidence",
                   choices=["semistability", "stability_evidence"])
    p.add_argument("--upgrade", choices=["selfdual", "none"], default="selfdual")
    p.add_argument("--via-pullback", dest="via_pullback", type=int)

    p = sub.add_parser("sections", help="section-dimension tables of powers")
    _add_common(p)
    p.add_argument("--kind", default="exterior",
                   choices=["tensor", "exterior", "symmetric"])
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--twists", default="0..0", help="LO..HI or a comma list")
    p.add_argument("--engine", default="linalg",
                   choices=["gb", "linalg", "staged", "both"])

    p = sub.add_parser("tannaka", help="invariant fingerprint and dual group")
    _add_common(p)
    p.add_argument("--q-max", dest="q_max", type=int, default=4)
    p.add_argument("--method", default="default",
                   help="default (one prime plus proven lower bounds) or exact")
    p.add_argument("--engine", default="linalg", choices=["gb", "linalg"])
    p.add_argument("--assume-stability", dest="assume_stability",
                   choices=_ASSUMPTIONS["tannaka"])
    p.add_argument("--via-pullback", dest="via_pullback", type=int)

    p = sub.add_parser("restrict", help="restriction-degree bounds")
    _add_common(p)
    p.add_argument("--theorem", default="langer",
                   choices=["flenner", "langer", "langer-strong"])
    p.add_argument("--c", type=int, default=1,
                   help="number of general divisors (flenner)")
    p.add_argument("--engine", default="linalg", choices=["gb", "linalg", "both"])
    p.add_argument("--assume-stability", dest="assume_stability",
                   choices=_ASSUMPTIONS["restrict"])
    p.add_argument("--via-pullback", dest="via_pullback", type=int)

    p = sub.add_parser("closure", help="closure thresholds and membership")
    _add_common(p)
    p.add_argument("--engine", default="linalg", choices=["gb", "linalg", "both"])
    p.add_argument("--candidate", help="homogeneous element to test")
    p.add_argument("--frobenius-e", dest="frobenius_exponent", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--plane-curve-degree", dest="plane_curve_degree", type=int)
    p.add_argument("--strong-flag", dest="strong_flag",
                   help="justification for strong semistability in char p")
    p.add_argument("--assume-stability", dest="assume_stability",
                   choices=_ASSUMPTIONS["closure"])

    p = sub.add_parser("run", help="execute a JSON job file")
    p.add_argument("jobfile")
    p.add_argument("--json-out", dest="json_out")
    return parser


def _job_from_args(args) -> dict:
    options = {}
    for key in [*_TASK_OPTIONS[args.command], *_CAPS_OPTIONS]:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if getattr(args, "upgrade", None) == "none":
        options["upgrade_selfdual"] = False
    if "theorem" in options:
        options["theorem"] = options["theorem"].replace("-", "_")
    return {
        "ring": _ring_config_from_args(args),
        "object": _object_config_from_args(args),
        "task": {"name": args.command, "options": options},
    }


def _job_from_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            job = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read job file {path}: {exc}") from exc
    for block in ("ring", "object", "task"):
        if block not in job:
            raise InputError(f"job file is missing the {block!r} block")
        if not isinstance(job[block], dict):
            raise InputError(f"the {block!r} block must be an object")
    if not isinstance(job["task"].get("options", {}), dict):
        raise InputError("task options must be an object of name: value pairs")
    return job


def execute_job(job: dict):
    """Run one job; returns (report dict, human lines, exit code)."""
    ring = build_ring(job["ring"])
    kind, payload = build_object(job["object"], ring)
    task = job["task"]
    name = task.get("name")
    if name not in TASKS:
        raise InputError(f"unknown task {name!r}")
    options = dict(task.get("options", {}))
    _check_options(name, options)
    resources = {key: options.get(key) for key in _CAPS_OPTIONS}
    caps = Caps(**resources).start()
    started = time.perf_counter()
    results, lines, code = TASKS[name](kind, payload, options, caps)
    elapsed = time.perf_counter() - started
    report = {
        "job": {"ring": job["ring"], "object": job["object"],
                "task": {"name": name, "options": options}},
        "results": results,
        "resources": resources,
        "timing": {"seconds": round(elapsed, 6)},
    }
    return report, lines, code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            job = _job_from_file(args.jobfile)
        else:
            job = _job_from_args(args)
        report, lines, code = execute_job(job)
    except (InputError, AlgebraError, BundleError, StabilityError,
            BoundsError, TannakaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"INTERNAL cross-check mismatch, no verdict: {exc}",
              file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    json_out = getattr(args, "json_out", None)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
