"""Presenting matrices for tensor, exterior and symmetric powers of a kernel
bundle.

Each power of E = ker((+) O(a_i) -> (+) O(b_j)) again sits as the kernel of an
explicit graded map between splitting bundles (the map is in general no longer
surjective, which is fine: only the kernel is consumed downstream).

Index orders are fixed for determinism: tuples lexicographic, subsets as
ascending lists ranked colexicographically, multisets as weakly increasing
lists ranked lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from .algebra import AlgebraError
from .bundle import KernelBundle, module_from_twists
from .modgb import GradedFreeModule


class PowerError(AlgebraError):
    pass


class CharacteristicError(PowerError):
    """Symmetric powers refuse to run when the characteristic divides q."""


@dataclass(frozen=True)
class PowerPresentation:
    """Kernel presentation of a tensor operation applied to a kernel bundle."""

    kind: str            # "tensor" | "exterior" | "symmetric"
    q: int
    ring: object
    source_twists: tuple
    target_twists: tuple
    source_labels: tuple
    target_labels: tuple
    columns: tuple       # per source index: ((target index, entry Poly), ...)

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

    def columns_list(self):
        return [list(col) for col in self.columns]


def _subset_colex_key(A):
    return tuple(reversed(A))


def tensor_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th tensor power: source basis e_alpha over alpha in I^q, and
    e_alpha maps to the sum over (j, p) of a_{j, alpha_p} e_{(alpha^(p), j, p)}.
    """
    if q < 1:
        raise PowerError(f"tensor power needs q >= 1, got {q}")
    n, m = bundle.n, bundle.m
    a, b = bundle.twists_a, bundle.twists_b
    source_labels = tuple(product(range(n), repeat=q))
    target_labels = tuple(sorted(
        (beta, j, p)
        for beta in product(range(n), repeat=q - 1)
        for j in range(m) for p in range(q)))
    target_index = {lab: k for k, lab in enumerate(target_labels)}
    source_twists = tuple(sum(a[i] for i in alpha) for alpha in source_labels)
    target_twists = tuple(sum(a[i] for i in beta) + b[j]
                          for (beta, j, p) in target_labels)
    cols = []
    for alpha in source_labels:
        col = []
        for p in range(q):
            i = alpha[p]
            beta = alpha[:p] + alpha[p + 1:]
            for j in range(m):
                entry = bundle.entry(j, i)
                if entry.is_zero():
                    continue
                col.append((target_index[(beta, j, p)], entry))
        cols.append(tuple(col))
    return PowerPresentation("tensor", q, bundle.ring, source_twists,
                             target_twists, source_labels, target_labels,
                             tuple(cols))


def exterior_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th exterior power, 1 <= q < n - m: source basis e_A over q-subsets,
    with e_A mapping to sum over (i in A, j) of sign(i, A) a_{ji} e_{(A-i, j)}.

    sign(i, A) is -1 exactly when i sits at an even (1-based) position of the
    ascending list A.
    """
    n, m = bundle.n, bundle.m
    if not 1 <= q < n - m:
        raise PowerError(
            f"exterior power needs 1 <= q < rank + 1 = {n - m}, got {q}")
    a, b = bundle.twists_a, bundle.twists_b
    source_labels = tuple(sorted(combinations(range(n), q), key=_subset_colex_key))
    target_labels = tuple(sorted(
        ((B, j) for B in combinations(range(n), q - 1) for j in range(m)),
        key=lambda t: (_subset_colex_key(t[0]), t[1])))
    target_index = {lab: k for k, lab in enumerate(target_labels)}
    source_twists = tuple(sum(a[i] for i in A) for A in source_labels)
    target_twists = tuple(sum(a[i] for i in B) + b[j] for (B, j) in target_labels)
    cols = []
    for A in source_labels:
        col = []
        for pos, i in enumerate(A):
            sign = 1 if pos % 2 == 0 else -1
            B = A[:pos] + A[pos + 1:]
            for j in range(m):
                entry = bundle.entry(j, i)
                if entry.is_zero():
                    continue
                col.append((target_index[(B, j)],
                            entry if sign == 1 else -entry))
        cols.append(tuple(col))
    return PowerPresentation("exterior", q, bundle.ring, source_twists,
                             target_twists, source_labels, target_labels,
                             tuple(cols))


def symmetric_power_matrix(bundle: KernelBundle, q: int) -> PowerPresentation:
    """q-th symmetric power (requires char(K) to not divide q): source basis
    over weakly increasing q-multisets; removing one copy of i from the
    multiset M contributes mult_M(i) * a_{ji}.

    The multiplicity factor is forced by the monomial basis of Sym: with it,
    products of kernel elements are annihilated exactly.
    """
    if q < 1:
        raise PowerError(f"symmetric power needs q >= 1, got {q}")
    char = bundle.ring.field.char
    if char > 0 and q % char == 0:
        raise CharacteristicError(
            f"symmetric power q={q} is unavailable in characteristic {char}")
    n, m = bundle.n, bundle.m
    a, b = bundle.twists_a, bundle.twists_b
    source_labels = tuple(combinations_with_replacement(range(n), q))
    target_labels = tuple(sorted(
        (M, j) for M in combinations_with_replacement(range(n), q - 1)
        for j in range(m)))
    target_index = {lab: k for k, lab in enumerate(target_labels)}
    source_twists = tuple(sum(a[i] for i in M) for M in source_labels)
    target_twists = tuple(sum(a[i] for i in M) + b[j] for (M, j) in target_labels)
    fld = bundle.ring.field
    cols = []
    for M in source_labels:
        col = []
        seen = set()
        for pos, i in enumerate(M):
            if i in seen:
                continue
            seen.add(i)
            mult = M.count(i)
            reduced = M[:pos] + M[pos + 1:]
            for j in range(m):
                entry = bundle.entry(j, i)
                if entry.is_zero():
                    continue
                scaled = entry.scale(fld.from_int(mult))
                if scaled.is_zero():
                    continue
                col.append((target_index[(reduced, j)], scaled))
        cols.append(tuple(col))
    return PowerPresentation("symmetric", q, bundle.ring, source_twists,
                             target_twists, source_labels, target_labels,
                             tuple(cols))


def power_presentation(bundle: KernelBundle, kind: str, q: int) -> PowerPresentation:
    if kind == "tensor":
        return tensor_power_matrix(bundle, q)
    if kind == "exterior":
        return exterior_power_matrix(bundle, q)
    if kind == "symmetric":
        return symmetric_power_matrix(bundle, q)
    raise PowerError(f"unknown power kind {kind!r}")
