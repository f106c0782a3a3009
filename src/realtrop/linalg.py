"""Exact dense linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are tuples of row tuples.  It
serves the constant-coefficient case, where field division is available:
``rref`` picks the pivots that diagonalize a seminorm composition,
``inverse`` dualizes bases and functionals, ``rank``, ``span_eq`` and
``solve`` compare signed flags.  ``int_det_sign`` gives the sign of the
determinant that certifies the leading term of a series determinant, and
``int_functionals`` also the int functionals that certify the leading
terms of the coordinates of a vector in a series basis.

The eliminations run fraction free on integers: ``clear_denominators`` scales
each row to primitive ints by a positive factor, which keeps every sign
and the row space.  ``int_det_sign`` is Bareiss's elimination, where
every division is exact; the leading-term certificates of ``puiseux``
call it on rows they hold as ints.  ``int_functionals`` is the same
division in a Gauss-Jordan elimination of [A^T | I], which ends in
[d I | d A^-T].  ``rref`` runs Gauss-Jordan on integer rows,
dividing each updated row by the gcd of its entries, and builds one
``Fraction`` per nonzero output entry, the entry over its row's pivot.

``rational`` is the one reader of rational scalars: ints, Fractions, and
strings in the ``"p/q"`` grammar of ``parse_rational`` (an optional sign,
an int, and an optional "/" and nonzero int).  Bools and floats are not
rational scalars here, and neither are float-like strings such as
``"1.5"``, ``"1e3"`` or ``"1_0"``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")  # the denominator is nonzero


def parse_rational(text: str) -> Fraction:
    """A rational from text: an optional sign, an int and an optional "/"
    and nonzero int ("p/q"); surrounding whitespace is ignored.  Anything
    else, floats, exponents and underscores included, raises ValueError."""
    body = text.strip()
    if not _RATIONAL_RE.fullmatch(body):
        raise ValueError(f"bad rational {text!r}")
    return Fraction(body)


def rational(x) -> Fraction:
    """An int, Fraction or rational string (``parse_rational``) as a
    Fraction; bools and floats raise ``TypeError``."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if type(x) is bool or type(x) is float:
        raise TypeError(f"cannot use {x!r} as a rational number")
    return Fraction(x)


def vec(xs) -> Vec:
    """The entries as Fractions, each read by ``rational``."""
    return tuple(rational(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def vec_scale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def clear_denominators(row: Sequence) -> list[int]:
    """The primitive integer row that is a positive multiple of a row of
    ints and Fractions: every entry keeps its sign, and the gcd is 1."""
    ratios = [x.as_integer_ratio() for x in row]
    den = math.lcm(*[d for _, d in ratios])
    out = [n * (den // d) for n, d in ratios]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def rref(rows: Iterable[Sequence]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (zero rows dropped).

    Rows are scaled to primitive ints and eliminated fraction free:
    clearing column c takes ``row = pv * row - row[c] * top`` and divides
    the row by the gcd of its entries.  Each integer row stays a nonzero
    multiple of the matching row of the rational elimination, so each row
    over its pivot is the reduced form, which is unique.
    """
    work = [clear_denominators(vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        pv = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return (
        tuple(
            tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
            for row, c in zip(work, pivots)
        ),
        tuple(pivots),
    )


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


def int_det_sign(rows) -> int:
    """Sign (-1, 0 or +1) of the determinant of a square int matrix, by
    fraction-free elimination (Bareiss): every division is exact, so no
    Fraction is built.  The rows are eliminated in place; pass rows the
    caller no longer needs."""
    work = list(rows)
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


def int_functionals(rows) -> tuple[int, list[list[int]] | None]:
    """For a square int matrix A: the sign of det A, and int rows F with
    each F_k a positive multiple of row k of A^-T, or None when det A = 0.

    If x A = c for a row vector x, then x_k = (row k of A^-T) . c, so
    F_k . c has the sign of x_k.  One fraction-free Gauss-Jordan
    elimination of [A^T | I] (Bareiss's division by the previous pivot,
    exact for the rows above the pivot as for those below) ends in
    [d I | d A^-T], d the last pivot, +-det A.  Columns left of the
    pivot are never read again and are not updated.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    work = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*rows))]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        top = work[k]
        akk = top[k]
        tail = top[k + 1 :]
        for i, row in enumerate(work):
            if i != k:
                aik = row[k]
                row[k + 1 :] = [(akk * x - aik * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = akk
    if prev < 0:
        return -sign, [[-x for x in row[n:]] for row in work]
    return sign, [row[n:] for row in work]


def span_basis(vectors: Iterable[Sequence]) -> Mat:
    """Canonical (rref) basis of the span of the given vectors."""
    return rref(list(vectors))[0]


def span_eq(vs: Iterable[Sequence], ws: Iterable[Sequence]) -> bool:
    return span_basis(vs) == span_basis(ws)

