"""Expansions of products of kernel elements into the source bases of the
power presentations.

These are the acid test for the index and sign bookkeeping of
kbundle.powers: the expansion of kernel elements must be annihilated by the
power matrix, exactly.  Only the tests use them.
"""

from kbundle.modgb import ModuleElement
from kbundle.powers import PowerError, PowerPresentation


def _component_polys(element: ModuleElement, n: int):
    comps = element.components()
    ring = element.module.ring
    return [comps.get(i, ring.zero()) for i in range(n)]


def tensor_expand(pres: PowerPresentation, elements) -> ModuleElement:
    """s_1 (x) ... (x) s_q in the tensor source basis."""
    if len(elements) != pres.q:
        raise PowerError("need exactly q elements")
    n_cols = max(max(alpha) for alpha in pres.source_labels) + 1
    ring = pres.ring
    vectors = [_component_polys(e, n_cols) for e in elements]
    module = pres.source_module()
    index = {lab: k for k, lab in enumerate(pres.source_labels)}
    out: dict = {}
    for alpha in pres.source_labels:
        p = ring.one()
        for k, i in enumerate(alpha):
            p = p * vectors[k][i]
            if p.is_zero():
                break
        if p.is_zero():
            continue
        for mono, c in p.terms.items():
            out[(index[alpha], mono)] = c
    return ModuleElement(module, out)


def wedge_expand(pres: PowerPresentation, elements) -> ModuleElement:
    """s_1 ^ ... ^ s_q in the exterior source basis (ascending subsets)."""
    if len(elements) != pres.q:
        raise PowerError("need exactly q elements")
    ring = pres.ring
    n_cols = max(max(A) for A in pres.source_labels) + 1
    module = pres.source_module()
    index = {lab: k for k, lab in enumerate(pres.source_labels)}
    # fold: partial[A] = coefficient polynomial of e_A in s_1 ^ ... ^ s_k
    partial = {(): ring.one()}
    for e in elements:
        comps = _component_polys(e, n_cols)
        nxt: dict = {}
        for A, coeff in partial.items():
            for i in range(n_cols):
                if i in A or comps[i].is_zero():
                    continue
                bigger = tuple(sorted(A + (i,)))
                sign = sum(1 for x in A if x > i)
                term = coeff * comps[i]
                if sign % 2 == 1:
                    term = -term
                acc = nxt.get(bigger)
                nxt[bigger] = term if acc is None else acc + term
        partial = {A: p for A, p in nxt.items() if not p.is_zero()}
    out: dict = {}
    for A, p in partial.items():
        for mono, c in p.terms.items():
            out[(index[A], mono)] = c
    return ModuleElement(module, out)


def sym_expand(pres: PowerPresentation, elements) -> ModuleElement:
    """s_1 * ... * s_q in the symmetric (monomial) source basis."""
    if len(elements) != pres.q:
        raise PowerError("need exactly q elements")
    ring = pres.ring
    n_cols = max(max(M) for M in pres.source_labels) + 1
    module = pres.source_module()
    index = {lab: k for k, lab in enumerate(pres.source_labels)}
    partial = {(): ring.one()}
    for e in elements:
        comps = _component_polys(e, n_cols)
        nxt: dict = {}
        for M, coeff in partial.items():
            for i in range(n_cols):
                if comps[i].is_zero():
                    continue
                bigger = tuple(sorted(M + (i,)))
                term = coeff * comps[i]
                acc = nxt.get(bigger)
                nxt[bigger] = term if acc is None else acc + term
        partial = {M: p for M, p in nxt.items() if not p.is_zero()}
    out: dict = {}
    for M, p in partial.items():
        for mono, c in p.terms.items():
            out[(index[M], mono)] = c
    return ModuleElement(module, out)
