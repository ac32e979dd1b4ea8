"""Section-dimension fingerprints of degree-0 bundles and classification of
the dual group in the decided low-rank cases (SL_r, Sp_4, Sp_6).

A stable degree-0 bundle generates a tensor category equivalent to the
representations of a connected semisimple group; the group is pinned down by
the invariant dimensions h^0 of its tensor powers.  A large cell is an
interval: one prime bounds it from above, sections proven to exist bound it
from below, and it is certified when the two meet.  Only classification rows
with a certified invariant count are shipped; everything else returns the raw
fingerprint.
"""

from __future__ import annotations

from math import prod
from typing import Optional

from .algebra import AlgebraError, Record, monomials_of_degree
# reduce_bundle_mod_p is bound only for the span bench/tracing.py names here
from .bundle import (KernelBundle, invariants, modular_twin,
                     reduce_bundle_mod_p, require_valid, twist)
from .modgb import (
    Caps,
    InternalCheckError,
    NO_CAPS,
    _echelon_kernel,
    _section_kernel,
)
from .powers import ENGINES, power_presentation


class TannakaError(AlgebraError):
    pass


CELL_PRIME = 1000003
SECTION_ENGINES = ENGINES + ("staged",)
METHODS = ("default", "exact")


# ---------------------------------------------------------------------------
# Staged tensor-power section engine.
#
# E^{(x)q} = E (x) E^{(x)(q-1)} is the kernel of the slot-one map on
# F (x) E^{(x)(q-1)}, so its twisted sections are cut out of the direct sum of
# lower-level section spaces by linear conditions living in the ambient free
# module coordinates.  This avoids materializing the full power presentation.
# ---------------------------------------------------------------------------

def _candidate_points(nvars: int):
    """Fixed points (1, t, t^2, ...) for `_generic_fiber` and the pairing
    bound; ints, so a point evaluates mod p too."""
    for t in (1, 2, 3, 5, 7, 11, 13):
        yield tuple(t ** i for i in range(nvars))


def _generic_fiber(bundle: KernelBundle, caps: Caps):
    """(point, D): the first candidate point where the fiber has rank m,
    and the m columns D at which no `_echelon_kernel` relation of its
    columns leads (each leads at a column that depends on those before it),
    or (None, ()).  The minor on D does not vanish at the point, so it is a
    nonzero polynomial."""
    p = bundle.ring.field.char
    columns = bundle.columns()
    for point in _candidate_points(bundle.ring.nvars):
        fiber = [{j: v for j, entry in col if (v := entry.evaluate(point))}
                 for col in columns]
        _, relations = _echelon_kernel(fiber, p, caps, want_vectors=True)
        dependent = {max(rel) for rel in relations}
        independent = tuple(i for i in range(bundle.n) if i not in dependent)
        if len(independent) == bundle.m:
            return point, independent
    return None, ()


class TensorSections:
    """Exact section spaces of tensor powers, computed slot by slot.

    Vectors are sparse dicts keyed by (index tuple alpha, monomial); the level
    q ambient module is the q-fold tensor power of the splitting bundle.  The
    bundle is taken as checked (`section_dim_table`, `fingerprint`).

    Level 0 in degree t is the list of exponent tuples of degree t, the
    monomial sections.  Level q >= 2 is built in quotient coordinates: the
    store finds once, from its own bundle (a mod-p twin's store from the
    twin), a point where the fiber has rank m and the columns D of a
    nonzero maximal minor (`_generic_fiber`), and `_section_kernel` drops
    from every image the blocks whose index tuple meets D.  Level q-1's
    basis lies in E^{(x)(q-1)}, on which the projection
    F^{(x)(q-1)} -> (F/F_D)^{(x)(q-1)} is injective (E meets F_D in
    ker M_D = 0 over the function field; the proof is in `_section_kernel`),
    so the kernel, its dimension, its unique basis and the lifted vectors
    are those of the full images; only fewer terms are built and
    eliminated.  Level 1 has nothing to drop, and without a point (None,
    which `selfdual_certify` refuses) D = () drops nothing.
    """

    def __init__(self, bundle: KernelBundle, caps: Caps = NO_CAPS):
        self.bundle = bundle
        self.ring = bundle.ring
        self.caps = caps
        self.columns = bundle.columns()
        self.point, self.drop = _generic_fiber(bundle, caps)
        self._basis_cache: dict = {}

    def _kernel(self, q: int, t: int, want_vectors: bool):
        """Level q in degree t: the slot-one map on the level q-1 bases."""
        a = self.bundle.twists_a
        lower = [self.basis(q - 1, t + a[i]) for i in range(self.bundle.n)]
        return _section_kernel(self.columns, lower, self.ring.field.char,
                               self.caps, want_vectors, self.drop)

    def basis(self, q: int, t: int):
        """Basis vectors of the degree-t sections of the q-th tensor power."""
        key = (q, t)
        basis = self._basis_cache.get(key)
        if basis is None:
            if q == 0:
                basis = list(monomials_of_degree(self.ring.nvars, t))
            else:
                _, basis = self._kernel(q, t, want_vectors=True)
            self._basis_cache[key] = basis
        return basis

    def dim(self, q: int, t: int) -> int:
        if q == 0 or (q, t) in self._basis_cache:
            return len(self.basis(q, t))
        dim, _ = self._kernel(q, t, want_vectors=False)
        return dim


def section_dim_power(bundle: KernelBundle, kind: str, q: int, k: int = 0,
                      engine: str = "linalg", caps: Caps = NO_CAPS) -> int:
    """h^0 of the q-th tensor/exterior/symmetric power twisted by k."""
    return section_dim_table(bundle, kind, q, (k,), engine, caps)[k]


def section_dim_table(bundle: KernelBundle, kind: str, q: int, twists,
                      engine: str = "linalg", caps: Caps = NO_CAPS) -> dict:
    """h^0 of the q-th tensor/exterior/symmetric power for a range of twists.

    Engines: PowerPresentation.kernel_dims counts the degree-k kernel piece
    of the power presentation under "linalg" (elimination), "gb" (one
    Buchberger run on the columns, truncated at the largest twist) and
    "both" (linalg, re-counted by gb at every twist: InternalCheckError
    where they differ); "staged" (tensor only) intersects slot conditions
    level by level.  The presentation, its image basis or the staged levels
    are built once, and every engine needs q >= 1.  The presentation's
    shape is checked first (BundleError).
    """
    require_valid(bundle)
    caps = caps.start()
    if q < 1:
        raise TannakaError(f"{kind} power needs q >= 1, got {q}")
    if engine not in SECTION_ENGINES:
        raise TannakaError(f"unknown engine {engine!r}")
    if engine == "staged":
        if kind != "tensor":
            raise TannakaError("the staged engine only computes tensor powers")
        sections = TensorSections(bundle, caps)
        return {k: sections.dim(q, k) for k in twists}
    dim = power_presentation(bundle, kind, q).kernel_dims(
        engine, caps, max(twists, default=0))
    return {k: dim(k) for k in twists}


# ---------------------------------------------------------------------------
# Dimension cells: intervals of section dimensions.
# ---------------------------------------------------------------------------

def _check_method(method) -> None:
    if method not in METHODS:
        raise TannakaError(f"unknown dimension method {method!r}; "
                           "use 'default' or 'exact'")


class DimCell(Record):
    """A section dimension known to lie in [lo, hi]."""

    __slots__ = ("lo", "hi", "evidence")

    def __init__(self, lo: int, hi: int, evidence: str):
        self.lo = lo
        self.hi = hi
        self.evidence = evidence

    @property
    def value(self) -> int:
        return self.hi

    @property
    def certified(self) -> bool:
        return self.lo == self.hi


def tensor_dim_cell(sections: TensorSections, q: int, k: int = 0,
                    method: str = "default") -> DimCell:
    """h^0(E^{(x)q}(k)) as an interval [lo, hi] with its evidence, for the
    bundle E of a section store.

    Over F_p, with method "exact", and when CELL_PRIME divides a denominator
    of E, lo == hi is the exact value read from the store.  The default
    takes hi from a store of modular_twin(E, CELL_PRIME) (a kernel mod p is
    never smaller than over QQ) and lo from sections proven to exist at k == 0
    when c1(E) == 0: det E = O lies in E^{(x)rank}, so lo >= 1 at q == rank;
    at q == 4 the slot permutations w12*w34, w13*w24, w14*w23 of w (x) w,
    for a section w of E (x) E in the store, stay in E^{(x)4}, and values
    independent at one point prove them independent.  lo > hi is a bug.  The
    store's bundle is taken as checked.
    """
    _check_method(method)
    bundle = sections.bundle
    char = bundle.ring.field.char
    reduced = None if method == "exact" else modular_twin(bundle, CELL_PRIME)
    if reduced is None:
        value = sections.dim(q, k)
        return DimCell(value, value,
                       f"exact-F{char}" if char else "exact-rational")
    hi = TensorSections(reduced, sections.caps).dim(q, k)
    lo, why = 0, ""
    if k == 0 and invariants(bundle).c1 == 0:
        if q == bundle.rank:
            lo, why = 1, "determinant"
        if q == 4 and (pairing := _pairing_products_rank(sections)) > lo:
            lo, why = pairing, "pairing"
    if lo > hi:
        raise InternalCheckError(f"h0(E^(x){q}): {why} proves {lo} sections, "
                                 f"but F{CELL_PRIME} gives {hi}")
    return DimCell(lo, hi, f"F{CELL_PRIME} <= {hi}" + (f", {why} >= {lo}" if lo else ""))


# ---------------------------------------------------------------------------
# Pairings: the q == 4 lower bound and the self-duality certificate.
# ---------------------------------------------------------------------------

def _rank(vectors, caps: Caps) -> int:
    """Rank over QQ of sparse vectors {index: value}."""
    return len(vectors) - _echelon_kernel(vectors, 0, caps)[0]


def _values_at(section, point) -> dict:
    """A tensor-power section {(alpha, mono): c} of a store evaluated at a
    point: {alpha: value}, zero values dropped."""
    values: dict = {}
    for (alpha, mono), c in section.items():
        values[alpha] = values.get(alpha, 0) + c * prod(map(pow, point, mono))
    return {alpha: v for alpha, v in values.items() if v}


def _pairing_products_rank(sections: TensorSections) -> int:
    """Rank at the candidate points of the sections w12*w34, w13*w24 and
    w14*w23 of E^{(x)4}, for the first section w of E (x) E in the store (0 if
    none): 3 for a nondegenerate pairing of rank >= 4, at most 2 on rank 2,
    where the Pluecker relation w12*w34 - w13*w24 + w14*w23 = 0 holds."""
    square = sections.basis(2, 0)
    if not square:
        return 0
    best = 0
    for point in _candidate_points(sections.ring.nvars):
        w = _values_at(square[0], point).items()
        products = ({}, {}, {})
        for (a, b), x in w:
            for (c, d), y in w:
                products[0][a, b, c, d] = products[1][a, c, b, d] = \
                    products[2][a, c, d, b] = x * y
        best = max(best, _rank(products, sections.caps))
        if best == 3:
            break
    return best


def selfdual_certify(bundle0: KernelBundle, caps: Caps = NO_CAPS):
    """Certify nondegeneracy of the pairing on a degree-0 bundle over QQ.

    Extracts the sections of (E (x) E)(0) exactly and checks that some section
    has full matrix rank at the store's point, where the fiber has rank m
    (TannakaError when the store has none).  Returns (ok, h0).  The bundle is
    taken as checked (`selfdual_upgrade` reaches it from `hoppe_check`).
    """
    caps = caps.start()
    if bundle0.ring.field.char != 0:
        raise TannakaError("certification runs over the rationals")
    if invariants(bundle0).mu != 0:
        raise TannakaError("certification expects a degree-0 bundle")
    sections = TensorSections(bundle0, caps)
    square = sections.basis(2, 0)
    if not square:
        return False, 0
    if (point := sections.point) is None:
        raise TannakaError("no generic evaluation point found")
    # a section lies fiberwise in E_x (x) E_x, so the rank of its n x n
    # matrix at a point with a full-rank fiber is that of its pairing; the
    # determinant of each induced map E* -> E is a constant, so that point
    # decides per section; callers pair this with h0 = 1, where the basis
    # section is the only candidate
    for section in square:
        rows: list = [{} for _ in range(bundle0.n)]
        for (i1, i2), v in _values_at(section, point).items():
            rows[i1][i2] = v
        if _rank(rows, caps) == bundle0.rank:
            return True, len(square)
    return False, len(square)


# ---------------------------------------------------------------------------
# Fingerprints and classification.
# ---------------------------------------------------------------------------

PROVEN = ("proven_stable", "proven_via_selfduality")


def _pairing_type(w) -> str:
    """"symmetric" or "alternating": the slot swap of E0 (x) E0 maps its
    sections to sections, so when they span a line it maps w to w or -w."""
    swapped = {((i2, i1), mono): c for ((i1, i2), mono), c in w.items()}
    if swapped == w:
        return "symmetric"
    if swapped == {key: -c for key, c in w.items()}:
        return "alternating"
    raise InternalCheckError("the slot swap maps the only section of "
                             "E0 (x) E0 to neither w nor -w")


class TannakaFingerprint(Record):
    """dims maps a power q to its DimCell at extra twist 0; pairing is
    "symmetric" or "alternating" iff dims[2] == 1, else None."""

    __slots__ = ("rank", "normalizing_twist", "dims", "pairing", "stability")
    __hash__ = None

    def __init__(self, rank: int, normalizing_twist: int, dims: dict,
                 pairing: Optional[str], stability: str):
        self.rank = rank
        self.normalizing_twist = normalizing_twist
        self.dims = dims
        self.pairing = pairing
        self.stability = stability

    @property
    def selfdual(self) -> bool:
        """A section of E0 (x) E0 = Hom(E0*, E0) between stable bundles of
        slope 0 is an isomorphism; for merely semistable E0 the flag is
        evidence, not proof."""
        return self.dims[2].value >= 1

    @property
    def selfdual_reason(self) -> str:
        h = self.dims[2].value
        if not h:
            return "h0((E(x)E)(0)) = 0"
        grade = "proof" if self.stability in PROVEN else "evidence"
        return f"h0((E(x)E)(0)) = {h} >= 1 ({grade} grade)"


class GroupGuess(Record):
    """group is "SL", "Sp" or "unknown"; degree the r in SL(r) / Sp(r)."""

    __slots__ = ("group", "degree", "justification")
    __hash__ = None

    def __init__(self, group: str, degree: Optional[int], justification: str):
        self.group = group
        self.degree = degree
        self.justification = justification

    def label(self) -> str:
        if self.group == "unknown":
            return "unknown (fingerprint evidence reported)"
        return f"{self.group}({self.degree})"


def fingerprint(bundle: KernelBundle, stability_status: str,
                q_max: int = 4, method: str = "default",
                caps: Caps = NO_CAPS) -> TannakaFingerprint:
    """Invariant dimensions h^0(E0^{(x)q}), 1 <= q <= q_max (>= 2), of the
    degree-0 normalization E0, read from one `TensorSections` store of E0
    over QQ: exact for q <= 2, else `tensor_dim_cell`s of the method.  The
    default's lower bounds are det E0 = O (c1 = 0) at q == rank and, at
    q == 4, the slot permutations of w (x) w for a section w of E0 (x) E0:
    they stay in E0^{(x)4}, and are independent when their values at one
    point are.  When dims[2] == 1 the pairing records whether w is
    symmetric or alternating.  The presentation's shape is checked first
    (BundleError).
    """
    require_valid(bundle)
    caps = caps.start()
    _check_method(method)
    if q_max < 2:
        raise TannakaError(
            f"q_max must be at least 2 (the simplicity cell), got {q_max}")
    if bundle.ring.field.char != 0:
        raise TannakaError("fingerprints are defined in characteristic 0")
    inv = invariants(bundle)
    if inv.mu.denominator != 1:
        raise TannakaError(
            f"slope {inv.mu} admits no degree-0 normalizing twist")
    c = -int(inv.mu)
    sections = TensorSections(twist(bundle, c), caps)
    # one basis of E0 (x) E0 serves dims[2], the q == 4 pairing bound and
    # the pairing type
    square = sections.basis(2, 0)
    dims = {q: tensor_dim_cell(sections, q, 0, "exact" if q <= 2 else method)
            for q in range(1, q_max + 1)}
    return TannakaFingerprint(
        rank=bundle.rank,
        normalizing_twist=c,
        dims=dims,
        pairing=_pairing_type(square[0]) if len(square) == 1 else None,
        stability=stability_status,
    )


def classify_group(fp: TannakaFingerprint) -> GroupGuess:
    """Decision table on the certified cells, the rank and the pairing.

    G is connected (Nori: P^N has a trivial fundamental group scheme), lies
    in SL(r) and acts irreducibly.  SL(r) has one invariant in V^{(x)r}, and
    so has SO(r) for odd r.  By Dynkin's maximal subgroups, the proper
    connected irreducible subgroups of SL(r), r <= 5, are self-dual; from
    r = 6 on (SL(3) on Sym^2, SL(2) x SL(3)) they need not be, and SL(r)
    stays unknown.  SO(6) has 3 invariants in V^{(x)4}, as Sp(6) has, but a
    symmetric pairing.
    """
    if fp.stability not in PROVEN:
        raise TannakaError(
            "classification requires proven stability; fingerprints of "
            "undetermined bundles are reported as raw evidence only")
    r, h2 = fp.rank, fp.dims[2].value
    cell_r = fp.dims.get(r)
    cell_4 = fp.dims.get(4)
    notes = []
    if cell_r is not None and cell_r.value == 1 and cell_r.certified:
        if r <= 2 or (r <= 5 and not h2):
            return GroupGuess("SL", r, f"h0(E0^(x){r}) = 1 [{cell_r.evidence}]: "
                              "exactly the determinant invariant of the "
                              "standard representation")
        why = "E0 is self-dual" if h2 else "from rank 6 on, so have others"
        notes.append(f"h0(E0^(x){r}) = 1 [{cell_r.evidence}], but {why}")
    if r in (4, 6) and fp.pairing == "alternating" and cell_4 is not None \
            and cell_4.value == 3 and cell_4.certified:
        return GroupGuess("Sp", r,
                          f"rank {r}, self-dual, h0(E0^(x)4) = 3 [{cell_4.evidence}]")
    notes.extend(f"dims[{q}] lies in [{cell.lo}, {cell.hi}] [{cell.evidence}]"
                 for q, cell in sorted(fp.dims.items())
                 if q in (r, 4) and not cell.certified)
    if r == 4 and cell_4 is not None and cell_4.value == 4 and not h2:
        notes.append("invariant count matches a type-A candidate, but no "
                     "decision row applies without self-duality")
    return GroupGuess("unknown", None, "; ".join(notes) or "no decision row applies")
