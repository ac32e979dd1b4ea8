"""Kernel presentations of tensor, exterior and symmetric powers of a bundle.

Each power of E = ker(F -> G), F = (+) O(a_i), G = (+) O(b_j), again sits as
the kernel of a graded map P^q F -> P^(q-1) F (x) G between splitting bundles
(in general no longer surjective, which is fine: only the kernel is used).
One builder serves the three kinds; a kind is a label family and the slots
(p, i = label[p], scalar) of a label:

- tensor: all q-tuples over range(n), lexicographic; every p, scalar 1.
- exterior: q-subsets as ascending tuples in colex order; every p, (-1)^p.
- symmetric: weakly increasing q-tuples, lexicographic; the first p of each
  value, scalar its multiplicity.

A slot puts scalar * a_ji at the target (label minus p, j), for tensor
(label minus p, j, p).  Targets run over family(n, q - 1) x rows (x slots
for tensor) in that nested order.
"""

from __future__ import annotations

from itertools import (combinations, combinations_with_replacement, count,
                       cycle, product, repeat)

from .algebra import AlgebraError, Record
from .bundle import KernelBundle, module_from_twists
from .modgb import (Caps, GradedFreeModule, InternalCheckError,
                    kernel_dim_linalg, kernel_dims_gb)


class PowerError(AlgebraError):
    pass


class CharacteristicError(PowerError):
    """Sym^q in characteristic 0 < p <= q: the presentation's kernel also
    holds p-th powers, which the map kills, so it is larger than Sym^q E."""


class PowerPresentation(Record):
    """Kernel presentation of a tensor operation applied to a kernel bundle.

    kind is "tensor", "exterior" or "symmetric"; columns holds, per source
    index, ((target index, entry Poly), ...).
    """

    __slots__ = ("kind", "q", "ring", "source_twists", "target_twists",
                 "source_labels", "target_labels", "columns")

    def __init__(self, kind: str, q: int, ring: object, source_twists: tuple,
                 target_twists: tuple, source_labels: tuple,
                 target_labels: tuple, columns: tuple):
        self.kind = kind
        self.q = q
        self.ring = ring
        self.source_twists = source_twists
        self.target_twists = target_twists
        self.source_labels = source_labels
        self.target_labels = target_labels
        self.columns = columns

    @property
    def n_source(self) -> int:
        return len(self.source_twists)

    @property
    def n_target(self) -> int:
        return len(self.target_twists)

    def source_module(self) -> GradedFreeModule:
        return module_from_twists(self.ring, self.source_twists)

    def target_module(self) -> GradedFreeModule:
        return module_from_twists(self.ring, self.target_twists)

    def kernel_dims(self, engine: str, caps: Caps, top: int):
        """k -> dim of the degree-k kernel piece, k <= top, for each of
        ENGINES: `gb` counts it on one run truncated at top, `linalg`
        eliminates k, and `both` eliminates k and re-counts it on that run,
        built at the first degree read (InternalCheckError if they differ)."""
        args = (self.columns, self.source_module(), self.target_module())
        if engine == "gb":
            return kernel_dims_gb(*args, caps, top)
        if engine == "linalg":
            return lambda k: kernel_dim_linalg(*args, k, caps)
        runs = []   # the one gb run

        def both(k: int) -> int:
            if not runs:
                runs.append(kernel_dims_gb(*args, caps, top))
            gb, linalg = runs[0](k), kernel_dim_linalg(*args, k, caps)
            if gb != linalg:
                raise InternalCheckError(
                    f"engine mismatch in {self.kind}^{self.q} at degree {k}: "
                    f"gb {gb}, linalg {linalg}")
            return linalg

        return both


# kind -> (label family, slots (p, label[p], scalar) of a label)
_KINDS = {
    "tensor": (lambda n, q: product(range(n), repeat=q),
               lambda alpha: zip(count(), alpha, repeat(1))),
    "exterior": (lambda n, q: sorted(combinations(range(n), q),
                                     key=lambda A: A[::-1]),
                 lambda A: zip(count(), A, cycle((1, -1)))),
    "symmetric": (lambda n, q: combinations_with_replacement(range(n), q),
                  lambda M: [(p, i, M.count(i)) for p, i in enumerate(M)
                             if not p or M[p - 1] != i]),
}
KINDS = tuple(_KINDS)
ENGINES = ("gb", "linalg", "both")   # of PowerPresentation.kernel_dims


def _power(bundle: KernelBundle, kind: str, q: int) -> PowerPresentation:
    n, m, a, b = bundle.n, bundle.m, bundle.twists_a, bundle.twists_b
    if q < 1 or (kind == "exterior" and q >= n - m):
        bound = f"1 <= q < rank = {n - m}" if kind == "exterior" else "q >= 1"
        raise PowerError(f"{kind} power needs {bound}, got {q}")
    fld = bundle.ring.field
    if kind == "symmetric" and 0 < fld.char <= q:
        raise CharacteristicError(f"symmetric power q={q} is unavailable in "
                                  f"characteristic {fld.char}")
    family, slots = _KINDS[kind]
    keep = kind == "tensor"   # the target label keeps the removed slot
    width = q if keep else 1
    tails = ([(j, p) for j in range(m) for p in range(q)] if keep
             else [(j,) for j in range(m)])
    lower = tuple(family(n, q - 1))
    offset = {beta: r * len(tails) for r, beta in enumerate(lower)}
    target_labels = tuple((beta, *t) for beta in lower for t in tails)
    target_twists = tuple(sum(a[i] for i in beta) + b[t[0]]
                          for beta in lower for t in tails)
    source_labels = tuple(family(n, q))
    source_twists = tuple(sum(a[i] for i in alpha) for alpha in source_labels)
    # scalar c -> per source index i, [(j * width, c * a_ji) for a_ji != 0];
    # a symmetric scalar is a multiplicity <= q < char, so never zero in K
    scaled = {}
    cols = []
    for alpha in source_labels:
        col = []
        for p, i, c in slots(alpha):
            if c not in scaled:
                scaled[c] = [[(j * width, e if c == 1 else -e if c == -1
                               else e.scale(fld.from_int(c))) for j, e in col_i]
                             for col_i in bundle.columns()]
            base = offset[alpha[:p] + alpha[p + 1:]] + (p if keep else 0)
            for jw, e in scaled[c][i]:
                col.append((base + jw, e))
        cols.append(tuple(col))
    return PowerPresentation(kind, q, bundle.ring, source_twists, target_twists,
                             source_labels, target_labels, tuple(cols))


def tensor_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th tensor power, q >= 1."""
    return _power(bundle, "tensor", q)


def exterior_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th exterior power, 1 <= q < rank."""
    return _power(bundle, "exterior", q)


def symmetric_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th symmetric power, q >= 1, in characteristic 0 or > q; the
    multiplicity scalars make products of kernel elements vanish exactly."""
    return _power(bundle, "symmetric", q)


def power_presentation(bundle: KernelBundle, kind: str, q: int) -> PowerPresentation:
    if kind not in KINDS:
        raise PowerError(f"unknown power kind {kind!r}")
    return {"tensor": tensor_power_matrix, "exterior": exterior_power_matrix,
            "symmetric": symmetric_power_matrix}[kind](bundle, q)
