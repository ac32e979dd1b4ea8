"""Spans and work counters around kbundle's public functions, installed from
the benchmark's side for the traced run only.

Each wrapped call records a span (name, start, end, parent).  A function is
patched in every kbundle module that binds it, so a call made through
`kbundle.stability.kernel_dim_linalg` is seen as well as one made through
`kbundle.modgb.kernel_dim_linalg`.  Counters are computed from the arguments
and results of the calls only, so they do not depend on the machine.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb

# (module, attribute) of every wrapped function; "Class.method" patches the
# class.  The span name is "<module>.<attribute>".
TRACED = [
    ("cli", "build_object"),
    ("algebra", "parse_polynomial"),
    ("bundle", "validate"),
    ("bundle", "maximal_minors"),
    ("powers", "exterior_power_matrix"),
    ("powers", "tensor_power_matrix"),
    ("powers", "symmetric_power_matrix"),
    ("modgb", "syzygy_module_columns"),
    ("modgb", "ideal_groebner"),
    ("modgb", "is_irrelevant_primary"),
    ("modgb", "buchberger"),
    ("modgb", "graded_piece_dim"),
    ("modgb", "kernel_dim_linalg"),
    ("modgb", "kernel_sections_linalg"),
    ("stability", "analyze_bundle"),
    ("stability", "hoppe_check"),
    ("stability", "brenner_monomial"),
    ("stability", "bohnhorst_spindler"),
    ("stability", "parameter_criterion"),
    ("stability", "selfdual_upgrade"),
    ("tannaka", "fingerprint"),
    ("tannaka", "tensor_dim_cell"),
    ("tannaka", "TensorSections.basis"),
    ("tannaka", "TensorSections.dim"),
    ("tannaka", "section_dim_power"),
    ("tannaka", "selfdual_certify"),
    ("tannaka", "reduce_bundle_mod_p"),
    ("bounds", "closure_threshold"),
    ("bounds", "frobenius_membership"),
    ("bounds", "restriction_bound"),
]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]

# Spans that run a capped loop themselves (directly or through a private
# helper), so a ResourceCapError is first seen there.
CAP_SPANS = [
    "modgb.syzygy_module_columns",
    "modgb.buchberger",
    "modgb.kernel_dim_linalg",
    "modgb.kernel_sections_linalg",
    "stability.brenner_monomial",
    "tannaka.TensorSections.basis",
    "tannaka.TensorSections.dim",
]

WORK_COUNTERS = [
    "bundle.maximal_minors.count",
    "powers.presentation_cells",
    "modgb.syzygy_module_columns.calls",
    "modgb.syzygy_module_columns.syzygies",
    "modgb.ideal_groebner.calls",
    "modgb.ideal_groebner.basis_size",
    "modgb.kernel_dim_linalg.calls",
    "modgb.kernel_sections_linalg.calls",
    "modgb.linalg.columns",
    "modgb.linalg.rows",
    "stability.exterior_ranks",
    "tannaka.primes_per_cell",
]

RATIOS = ["modgb.linalg.unique_ratio", "trace.overhead_ratio"]


def per_layer_metric_names() -> list:
    """Every metric a traced run reports, in BENCHMARK.json order."""
    return ([f"{name}.s" for name in SPAN_NAMES] + WORK_COUNTERS + RATIOS
            + [f"{name}.cap_hits" for name in CAP_SPANS] + ["trace.cap_hits"])


def unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_cell"):
        return "ratio"
    return "count"


def _piece_size(degrees, t: int, nvars: int) -> int:
    """Monomials of degree t in a free module with these generator degrees."""
    return sum(comb(t - d + nvars - 1, nvars - 1) for d in degrees if t >= d)


def _linalg_key(args):
    columns, source, target, t = args[:4]
    cols = tuple(tuple((j, p) for j, p in col) for col in columns)
    return hash((source.generator_degrees, target.generator_degrees, t, cols))


class Tracer:
    """Installs wrappers, records spans and counters, restores on `remove`."""

    def __init__(self, cap_error: type):
        self.cap_error = cap_error
        # [name, start, end, parent index, prime reductions under the span]
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self._eliminations: set = set()
        self._before_job: Counter = Counter()
        self._patched: list = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kbundle" or name.startswith("kbundle.")]
        for mod_name, attr in TRACED:
            module = sys.modules[f"kbundle.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- per job -------------------------------------------------------------

    def start_job(self):
        """Duplicate eliminations are counted within one job."""
        self._eliminations.clear()
        self._before_job = Counter(self.counts)

    def discard_job(self):
        """Drops the work counted by an undecided job, keeping its cap hit:
        where the cap stops a job depends on the machine's speed."""
        hits = {k: v for k, v in self.counts.items() if k.endswith("cap_hits")}
        self.counts.clear()
        self.counts.update(self._before_job)
        for key, value in hits.items():
            self.counts[key] = value

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        cap_error = self.cap_error
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            if count is not None and name.startswith("modgb.kernel_"):
                count(args, kwargs, None)  # the matrix shape is known up front
            if name == "tannaka.reduce_bundle_mod_p":
                self._note_reduction()
            spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_error as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counts[f"{name}.cap_hits"] += 1
                    counts["trace.cap_hits"] += 1
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None and not name.startswith("modgb.kernel_"):
                count(args, kwargs, result)
            if name == "tannaka.tensor_dim_cell" and \
                    result.evidence.startswith("two-prime"):
                counts["_two_prime_cells"] += 1
                counts["_cell_reductions"] += spans[index][4]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_reduction(self):
        for index in reversed(self.stack[:-1]):
            if self.spans[index][0] == "tannaka.tensor_dim_cell":
                self.spans[index][4] += 1
                return

    # -- counters (arguments and results only) --------------------------------

    def _count_bundle_maximal_minors(self, args, kwargs, result):
        self.counts["bundle.maximal_minors.count"] += len(result)

    def _count_powers(self, args, kwargs, result):
        self.counts["powers.presentation_cells"] += result.n_source * result.n_target

    _count_powers_exterior_power_matrix = _count_powers
    _count_powers_tensor_power_matrix = _count_powers
    _count_powers_symmetric_power_matrix = _count_powers

    def _count_modgb_syzygy_module_columns(self, args, kwargs, result):
        self.counts["modgb.syzygy_module_columns.calls"] += 1
        self.counts["modgb.syzygy_module_columns.syzygies"] += len(result)

    def _count_modgb_ideal_groebner(self, args, kwargs, result):
        self.counts["modgb.ideal_groebner.calls"] += 1
        self.counts["modgb.ideal_groebner.basis_size"] += len(result)

    def _count_linalg(self, name, args, kwargs):
        _, source, target, t = args[:4]
        nvars = source.ring.nvars
        self.counts[f"modgb.{name}.calls"] += 1
        self.counts["modgb.linalg.columns"] += _piece_size(
            source.generator_degrees, t, nvars)
        self.counts["modgb.linalg.rows"] += _piece_size(
            target.generator_degrees, t, nvars)
        self.counts["_eliminations"] += 1
        key = _linalg_key(args)
        if key not in self._eliminations:
            self._eliminations.add(key)
            self.counts["_unique_eliminations"] += 1

    def _count_modgb_kernel_dim_linalg(self, args, kwargs, result):
        self._count_linalg("kernel_dim_linalg", args, kwargs)

    def _count_modgb_kernel_sections_linalg(self, args, kwargs, result):
        self._count_linalg("kernel_sections_linalg", args, kwargs)

    def _count_stability_hoppe_check(self, args, kwargs, result):
        self.counts["stability.exterior_ranks"] += len(result.per_power)

    # -- aggregation -----------------------------------------------------------

    def metrics(self) -> dict:
        """Self time per span name plus the work counters and ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[index]
        c = self.counts
        out = {f"{name}.s": float(self_time[name]) for name in SPAN_NAMES}
        for key in WORK_COUNTERS:
            out[key] = c[key]
        out["tannaka.primes_per_cell"] = (
            c["_cell_reductions"] / c["_two_prime_cells"]
            if c["_two_prime_cells"] else 0.0)
        out["modgb.linalg.unique_ratio"] = (
            c["_unique_eliminations"] / c["_eliminations"]
            if c["_eliminations"] else 1.0)
        for name in CAP_SPANS:
            out[f"{name}.cap_hits"] = c[f"{name}.cap_hits"]
        out["trace.cap_hits"] = c["trace.cap_hits"]
        return out
