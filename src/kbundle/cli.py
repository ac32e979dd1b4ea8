"""Command-line front end: parse bundle/ideal descriptions, dispatch to the
engines, and emit human-readable plus machine-readable reports.

A job is one dict of ring, object and task blocks, from flags, a job file
(`kbundle run`) or a library caller of `execute_job`.  `execute_job` checks
its shape (`_check_job`, declared in `_JOB_KEYS`) and its options
(`_check_options`, declared in `_TASK_OPTIONS`) before anything is parsed.

Exit codes: 0 = decided, 1 = input error (a usage error of the command line
too), 2 = indeterminate (resource cap or internal cross-check mismatch; never
a wrong verdict).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import (AlgebraError, FieldSpec, PolyRing, default_variables,
                      parse_polynomial)
from .bounds import (CERTIFICATES, THEOREMS, BoundsError, ClosureQuery,
                     closure_threshold, frobenius_membership, restriction_bound)
from .bundle import (KernelBundle, from_syzygy, invariants,
                     make_kernel_bundle, require_valid, validate)
from .modgb import Caps, ResourceCapError
from .powers import KINDS
from .stability import ENGINES, MODES, InternalCheckError, analyze_bundle
from . import tannaka
from .tannaka import METHODS, PROVEN, SECTION_ENGINES, TannakaError

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
    return {"variables": variables, "field": args.field}


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
    variables = tuple(_typed(v, _STR, "variables entry")
                      for v in _typed(cfg["variables"], _LIST, "variables"))
    order = cfg.get("order", "degrevlex")
    if order != "degrevlex":
        raise InputError(f"unknown monomial order {order!r} "
                         "(kbundle computes in degrevlex)")
    try:
        return PolyRing(variables, field)
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc


def _split_list(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


_BOOL, _INT, _STR = ("a boolean", bool), ("an integer", int), ("a string", str)
_LIST, _DICT = ("a list", list), ("an object", dict)
_NUMBER = ("a number", float, int)    # kind[1] converts a flag's text


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
    """Returns (kind, payload) for an object block that _check_job passed:
    kind "bundle" carries (bundle, None); kind "ideal" carries the
    generator list."""
    try:
        if "syzygy" in cfg:
            syz = cfg["syzygy"]
            gens = _polys(syz["generators"], ring, "generators")
            bundle = from_syzygy(gens, _typed(syz.get("twist", 0), _INT, "twist"))
            return "bundle", (bundle, None)
        if "kernel" in cfg:
            kcfg = cfg["kernel"]
            matrix = [_polys(row, ring, "matrix row")
                      for row in _typed(kcfg["matrix"], _LIST, "matrix")]
            twists = [[_typed(t, _INT, f"{name} entry")
                       for t in _typed(kcfg[name], _LIST, name)]
                      for name in ("twists_a", "twists_b")]
            bundle = make_kernel_bundle(ring, *twists, matrix)
            return "bundle", (bundle, None)
        gens = tuple(_polys(cfg["ideal"]["generators"], ring, "generators"))
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc
    if not gens:
        raise InputError("an ideal needs at least one generator")
    return "ideal", gens


# The shape of a job: each block -> (the keys it must hold, the keys it may
# hold besides).  The object block holds exactly one object: an ideal for
# _IDEAL_TASK, a syzygy or a kernel for every other task.
_JOB_KEYS = {"job": (("ring", "object", "task"), ()),
             "ring": (("variables",), ("field", "order")),
             "object": ((), ("syzygy", "kernel", "ideal")),
             "task": (("name",), ("options",)),
             "syzygy": (("generators",), ("twist",)),
             "kernel": (("twists_a", "twists_b", "matrix"), ()),
             "ideal": (("generators",), ())}
_IDEAL_TASK = "closure"


def _check_block(name: str, block) -> dict:
    required, optional = _JOB_KEYS[name]
    _typed(block, _DICT, f"the {name!r} block")
    for key in block:
        if key not in required + optional:
            raise InputError(f"unknown key {key!r} in the {name!r} block")
    for key in required:
        if key not in block:
            raise InputError(f"the {name!r} block is missing {key!r}")
    return block


def _check_job(job) -> dict:
    """The one check of a job's shape, before anything in it is parsed: each
    block is an object with every key it must hold and no other (a misspelled
    key would leave its default in force), the task is known and takes the
    one object, and its options, returned for _check_options, are an object."""
    _check_block("job", job)
    _, obj, task = (_check_block(name, job[name]) for name in _JOB_KEYS["job"][0])
    if len(obj) != 1:
        raise InputError("the 'object' block must hold exactly one of "
                         "syzygy, kernel, ideal")
    [(kind, block)] = obj.items()
    _check_block(kind, block)
    name = task["name"]
    if type(name) is not str or name not in TASKS:
        raise InputError(f"unknown task {name!r}")
    if (kind == "ideal") != (name == _IDEAL_TASK):
        wanted = "ideal" if name == _IDEAL_TASK else "syzygy or kernel"
        raise InputError(f"the 'object' block of a {name!r} job must hold "
                         f"{wanted}, got {kind!r}")
    return _typed(task.get("options", {}), _DICT, "task options")


def _opt(kind, default=None, allowed=None, text=""):
    return kind, default, allowed, text


# Every option a job of each task takes, declared once: its name in the job
# -> (kind of its values, default, allowed values or None, flag help).  The
# allowed values are the tuple of the module that acts on them.  The flags,
# the job check and the defaults the tasks read are all built from here; a
# flag is `--` and the name with '-' for '_' unless _FLAGS names another
# (None: no flag).  The caps options (the fields of Caps) belong to every task.
_ENGINE = _opt(_STR, "linalg", ENGINES)
_TASK_OPTIONS = {
    "validate": {"surjectivity": _opt(_BOOL, False)},
    "check": {"engine": _opt(_STR, "both", ENGINES, "both: linalg, and gb "
                             "re-counts the degrees read over the field"),
              "mode": _opt(_STR, "stability_evidence", MODES),
              "via_pullback": _opt(_INT), "upgrade_selfdual": _opt(_BOOL, True)},
    "sections": {"kind": _opt(_STR, "exterior", KINDS), "q": _opt(_INT, 1),
                 "twists": _opt(_STR, "0..0", None, "LO..HI or a comma list"),
                 "engine": _opt(_STR, "linalg", SECTION_ENGINES)},
    "tannaka": {"q_max": _opt(_INT, 4),
                "method": _opt(_STR, "default", METHODS, "default: one prime "
                               "plus proven lower bounds"),
                "engine": _ENGINE, "assume_stability": _opt(_STR, None, PROVEN),
                "via_pullback": _opt(_INT)},
    "restrict": {"theorem": _opt(_STR, "langer", THEOREMS,
                                 "a flag may spell it langer-strong"),
                 "c": _opt(_INT, 1, None, "number of general divisors (flenner)"),
                 "engine": _ENGINE,
                 "assume_stability": _opt(_STR, None, CERTIFICATES),
                 "via_pullback": _opt(_INT)},
    "closure": {"engine": _ENGINE,
                "candidate": _opt(_STR, None, None, "homogeneous element to test"),
                "frobenius_exponent": _opt(_INT), "genus": _opt(_INT),
                "plane_curve_degree": _opt(_INT),
                "strong_flag": _opt(_STR, None, None, "justification for "
                                    "strong semistability in char p"),
                "assume_stability": _opt(_STR, None, CERTIFICATES)},
}
_CAPS_OPTIONS = {"max_degree": _opt(_INT), "max_pairs": _opt(_INT),
                 "timeout_seconds": _opt(_NUMBER)}
_FLAGS = {"surjectivity": "--check-surjectivity",
          "frobenius_exponent": "--frobenius-e", "upgrade_selfdual": None}


def _check_options(name: str, options: dict) -> dict:
    """The options of a job of task `name`, checked, with every default
    filled in.  This is the only check of an option's value; it runs before
    any work, for flags and job files alike."""
    declared = {**_TASK_OPTIONS[name], **_CAPS_OPTIONS}
    for key, value in options.items():
        if key not in declared:
            raise InputError(f"unknown option {key!r} for task {name!r}")
        kind, _, allowed, _ = declared[key]
        _typed(value, kind, f"option {key!r}")
        if allowed is not None and value not in allowed:
            raise InputError(f"option {key!r} must be one of "
                             f"{', '.join(allowed)}, got {value!r}")
        if key in _CAPS_OPTIONS and not value >= 0:    # NaN fails too
            raise InputError(f"option {key!r} must be nonnegative, got {value!r}")
    settings = {key: options.get(key, spec[1]) for key, spec in declared.items()}
    if "twists" in settings:
        settings["twists"] = _parse_twist_range(settings["twists"])
    return settings


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


def task_validate(payload, options, caps):
    """validate a kernel presentation"""
    bundle, _ = payload
    report = validate(bundle, check_surjectivity=options["surjectivity"],
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


def task_check(payload, options, caps):
    """decide semistability and stability"""
    bundle, _ = payload
    analysis = analyze_bundle(
        bundle,
        engine=options["engine"],
        mode=options["mode"],
        upgrade_selfdual=options["upgrade_selfdual"],
        via_pullback=options["via_pullback"],
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
            "k": options["via_pullback"],
            "report": _report_dict(analysis.pullback.report),
        }
    lines = [f"bundle: {bundle.describe()}, mu = {report.mu}",
             f"slope gate: {report.gate}"]
    for c in report.per_power:
        # the counter that decided the rank: a prime, or KOSZUL
        if c.relation == ">":
            by = (f", mod {c.prime}" if isinstance(c.prime, int)
                  else f", {c.prime}" if c.prime else "")
            lines.append(f"q={c.q}: no sections up to twist {c.window_top} "
                         f"(threshold {c.threshold}{by})")
        else:
            by = f" ({c.prime})" if c.prime else ""
            lines.append(f"q={c.q}: first section at twist {c.alpha} "
                         f"{c.relation} threshold {c.threshold}{by}")
    if report.witness:
        lines.append(f"witness: q={report.witness.q}, degree "
                     f"{report.witness.degree}, verified")
    lines.append(f"verdict: {report.verdict}"
                 + (f"; stability: {report.stability}"
                    if report.verdict == "semistable" else ""))
    return results, lines, 0


# A sections table has one entry per twist, and a job has no default
# timeout, so the number of twists is bounded before the list is built.
MAX_TWISTS = 1000


def _parse_twist_range(text: str) -> list:
    """The twists of LO..HI or a comma list, at most MAX_TWISTS of them."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            twists = range(int(lo), int(hi) + 1)   # its length, not its list
        else:
            twists = [int(t) for t in _split_list(text)]
    except ValueError:
        raise InputError(f"bad twist range {text!r}: twists must be integers") from None
    if not twists:
        raise InputError(f"empty twist range {text!r}")
    if len(twists) > MAX_TWISTS:
        raise InputError(f"twist range {text!r} holds {len(twists)} twists, "
                         f"more than {MAX_TWISTS}")
    return list(twists)


def task_sections(payload, options, caps):
    """section-dimension tables of powers"""
    bundle, _ = payload
    kind_name, q = options["kind"], options["q"]
    twists = options["twists"]
    table = tannaka.section_dim_table(bundle, kind_name, q, twists,
                                      options["engine"], caps)
    results = {
        "bundle": _bundle_summary(bundle),
        "power": {"kind": kind_name, "q": q},
        "sections": {str(k): table[k] for k in twists},
    }
    run = all(b == a + 1 for a, b in zip(twists, twists[1:]))
    shown = f"{twists[0]}..{twists[-1]}" if run else ",".join(map(str, twists))
    lines = [f"h^0(({kind_name}^{q} E)(k)) for k in {shown}:"]
    lines.extend(f"  k = {k}: {table[k]}" for k in twists)
    return results, lines, 0


def _stability_report(bundle, options, caps):
    """The stability analysis of `tannaka`, `restrict` and `closure` when no
    stability is assumed (closure takes no pullback)."""
    return analyze_bundle(bundle, engine=options["engine"],
                          via_pullback=options.get("via_pullback"),
                          caps=caps).report


def task_tannaka(payload, options, caps):
    """invariant fingerprint and dual group"""
    assume = options["assume_stability"]
    bundle, _ = payload
    if assume:
        status = assume
        report_dict = {"assumed": assume}
    else:
        report = _stability_report(bundle, options, caps)
        status = report.stability if report.is_semistable else "unstable"
        report_dict = _report_dict(report)
    fp = tannaka.fingerprint(bundle, status, q_max=options["q_max"],
                             method=options["method"], caps=caps)
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


def task_restrict(payload, options, caps):
    """restriction-degree bounds"""
    assume = options["assume_stability"]
    bundle, _ = payload
    if assume:
        require_valid(bundle)
        certificate = assume
        cert_source = f"assumed {assume}"
    else:
        report = _stability_report(bundle, options, caps)
        if not report.is_semistable:
            raise BoundsError("the bundle is unstable; no restriction theorem "
                              "applies")
        certificate = "stable" if report.is_stable_proven else "semistable"
        cert_source = f"computed ({report.stability or report.verdict})"
    inv = invariants(bundle)
    bound = restriction_bound(options["theorem"], bundle.N, inv.rank, inv.delta,
                              c=options["c"],
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


def task_closure(gens, options, caps):
    """closure thresholds and membership"""
    ring = gens[0].ring
    certificate = options["assume_stability"]
    trace = []
    primary_proven = False
    if ring.field.char == 0 and certificate is None:
        report = _stability_report(from_syzygy(gens), options, caps)
        if not report.is_semistable:
            raise BoundsError(
                "the syzygy bundle of the ideal is unstable; the inclusion "
                "bound does not apply")
        certificate = "stable" if report.is_stable_proven else "semistable"
        trace.append(f"semistability certificate computed: {certificate}")
        # a bundle: the analysis proved its generators irrelevant-primary
        primary_proven = True
    candidate_text = options["candidate"]
    query = ClosureQuery(
        generators=gens,
        certificate=certificate,
        strong_flag=options["strong_flag"],
        genus=options["genus"],
        plane_curve_degree=options["plane_curve_degree"],
        candidate=parse_polynomial(candidate_text, ring) if candidate_text else None,
        frobenius_exponent=options["frobenius_exponent"],
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
            member = Fraction(m) >= closure.tau
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
            membership = frobenius_membership(closure, caps)
            results["membership"] = {
                "candidate": str(query.candidate),
                "member": membership.member,
                "decisive": membership.decisive,
                "regime": membership.regime,
                "via": membership.via,
            }
            results["trace"] += membership.trace
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
    parser.add_argument("--syzygy", help="comma-separated homogeneous generators")
    parser.add_argument("--twist", type=int, default=0,
                        help="twist for the syzygy bundle")
    parser.add_argument("--ideal", help="comma-separated ideal generators")
    parser.add_argument("--matrix", help="rows separated by ';', entries by ','")
    parser.add_argument("--twists-a", dest="twists_a")
    parser.add_argument("--twists-b", dest="twists_b")
    parser.add_argument("--json-out", dest="json_out")


def _add_options(parser: argparse.ArgumentParser, options: dict):
    """One flag per declared option that has one; argparse converts its
    text, and _check_options checks its value."""
    for key, (kind, default, allowed, text) in options.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        if flag is None:
            continue
        notes = [text, allowed and f"one of {', '.join(allowed)}",
                 kind is not _BOOL and default is not None and f"default {default}"]
        how = {"action": "store_true"} if kind is _BOOL else {"type": kind[1]}
        parser.add_argument(flag, dest=key, default=default,
                            help="; ".join(filter(None, notes)), **how)


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only the command line needs it; execute_job does not

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # a usage error is an input error: exit 1, as the job check's
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="kbundle",
        description="Exact semistability and section computations for kernel "
                    "and syzygy bundles on projective space")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, task in TASKS.items():
        p = sub.add_parser(name, help=task.__doc__)
        _add_common(p)
        _add_options(p, {**_TASK_OPTIONS[name], **_CAPS_OPTIONS})
        if name == "check":
            p.add_argument("--upgrade", choices=["selfdual", "none"],
                           default="selfdual", help="none: no self-duality "
                           "upgrade (upgrade_selfdual false in a job)")
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
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read job file {path}: {exc}") from exc


def execute_job(job: dict):
    """Run one job; returns (report dict, human lines, exit code).  The
    job's shape (_check_job) and its options (_check_options) are checked
    before anything in it is parsed."""
    options = dict(_check_job(job))
    name = job["task"]["name"]
    settings = _check_options(name, options)
    ring = build_ring(job["ring"])
    _, payload = build_object(job["object"], ring)
    resources = {key: settings[key] for key in _CAPS_OPTIONS}
    caps = Caps(**resources).start()
    started = time.perf_counter()
    results, lines, code = TASKS[name](payload, settings, caps)
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
    except (InputError, AlgebraError) as exc:
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
    if args.json_out:   # every subcommand declares --json-out
        try:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"input error: cannot write report file {args.json_out}: "
                  f"{exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
