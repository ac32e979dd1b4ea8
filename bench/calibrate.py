"""A fixed reference kernel that tracks the speed of the shared machine.

The machine the benchmark runs on changes speed by up to 2x for seconds to
minutes at a time, more than any change worth measuring.  `kernel` does the
kinds of work kbundle's inner loops do, on fixed inputs, and never changes:
products of sparse polynomials held as dicts of exponent tuples with
Fraction coefficients, Gaussian elimination over QQ, and fraction-free
elimination over ZZ with growing integers and content removal (the normal
forms of the gb engine).  The two eliminations take about the same time, so
that neither kind of work sets the pace alone.  Timed between jobs, the
kernel says how fast the machine runs at that moment; run.py divides every
job time by it and reports seconds at NOMINAL_S per kernel call.

It does not import kbundle: a change to the program must not move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

# Kernel time on the 2-vCPU x86-64 host (Python 3.11) the benchmark was
# written on, near its fastest; any fixed value would do, this one keeps
# reported times close to wall time on a quiet machine.
NOMINAL_S = 0.0035


def _poly(seed: int, terms: int) -> dict:
    rng = random.Random(seed)
    return {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(terms)}


_F = _poly(1, 10)
_G = _poly(2, 10)
_QQ_ROWS = [[Fraction(random.Random(31 * i + j).randint(-5, 5)) for j in range(12)]
            for i in range(7)]
_ZZ_ROWS = [[random.Random(37 * i + j).randint(-99, 99) for j in range(20)]
            for i in range(16)]


def _eliminate(rows, combine) -> int:
    """Row echelon form in place; `combine(row, pivot_row, col)` clears col."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = combine(rows[i], rows[rank], col)
        rank += 1
    return rank


def _qq_combine(row, pivot_row, col):
    f = row[col] / pivot_row[col]
    return [a - f * b for a, b in zip(row, pivot_row)]


def _zz_combine(row, pivot_row, col):
    p, f = pivot_row[col], row[col]
    out = [a * p - f * b for a, b in zip(row, pivot_row)]
    content = 0
    for x in out:
        content = gcd(content, x)
    return [x // content for x in out] if content > 1 else out


def kernel() -> tuple:
    """A product of two 10-term polynomials, a 7 x 12 elimination over QQ
    and a 16 x 20 fraction-free elimination over ZZ."""
    product: dict = {}
    for ea, ca in _F.items():
        for eb, cb in _G.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            product[e] = product.get(e, 0) + ca * cb
    qq_rank = _eliminate([list(row) for row in _QQ_ROWS], _qq_combine)
    zz_rank = _eliminate([list(row) for row in _ZZ_ROWS], _zz_combine)
    return len(product), qq_rank, zz_rank


def sample() -> tuple:
    """(midpoint, seconds) of one timed kernel call."""
    started = time.perf_counter()
    kernel()
    ended = time.perf_counter()
    return (started + ended) / 2, ended - started
