"""Exact dense linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are tuples of row tuples.  It
serves the constant-coefficient case, where field division is available:
``rref`` picks the pivots that diagonalize a seminorm composition,
``inverse`` dualizes bases and functionals, ``rank``, ``span_eq`` and
``solve`` compare signed flags.  ``det_sign`` gives the sign of the
rational determinant that certifies the leading term of a series
determinant, by fraction-free elimination on integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def vec_scale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def rref(rows: Iterable[Sequence]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (zero rows dropped)."""
    work = [list(vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        # zero entries stay as they are, in the pivot row and below it
        support = [j for j in range(c, ncols) if top[j]]
        pv = top[c]
        for j in support:
            top[j] /= pv
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] -= f * top[j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve(rows, b: Sequence) -> Vec | None:
    """One solution of A x = b, or None when inconsistent."""
    rows = mat(rows)
    b = vec(b)
    if len(rows) != len(b):
        raise ValueError("right-hand side length does not match the rows")
    aug = [r + (bb,) for r, bb in zip(rows, b)]
    R, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    for row in R:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = R[r][-1]
    return tuple(x)


def inverse(rows) -> Mat:
    rows = mat(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    aug = [rows[i] + tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    R, pivots = rref(aug)
    if len(R) < n or pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(r[n:] for r in R)


def det_sign(rows) -> int:
    """Sign (-1, 0 or +1) of the determinant of a square rational matrix.

    Each row is scaled by the positive common denominator of its entries,
    which keeps the sign, and the integer matrix is eliminated fraction
    free (Bareiss): every division is exact, so no Fraction is built.
    """
    work = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        work.append([x.numerator * (den // x.denominator) for x in r])
    n = len(work)
    if any(len(r) != n for r in work):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        top = work[k]
        akk = top[k]
        for row in work[k + 1 :]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (akk * row[j] - aik * top[j]) // prev
        prev = akk
    return sign if prev > 0 else -sign


def span_basis(vectors: Iterable[Sequence]) -> Mat:
    """Canonical (rref) basis of the span of the given vectors."""
    return rref(list(vectors))[0]


def span_eq(vs: Iterable[Sequence], ws: Iterable[Sequence]) -> bool:
    return span_basis(vs) == span_basis(ws)

