"""Exact dense linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are tuples of row tuples.  It
serves the constant-coefficient case: ``rref`` diagonalizes a seminorm
composition and compares signed flags, and ``rank`` checks that a
signed flag's vectors form a basis.  ``inverse`` serves the test oracles
and the benchmark tracer; no module of the library calls it.
``int_det_sign`` gives the sign of the determinant that certifies the
leading term of a series determinant, and ``int_functionals`` also the
int functionals that certify the leading terms of the coordinates of a
vector in a series basis.

One fraction-free Gauss-Jordan loop, ``_gauss_jordan``, with Bareiss's
exact division, serves ``rref`` (on rows scaled to primitive ints by
``clear_denominators``, a positive factor that keeps every sign and the
row space), ``inverse`` (``rref`` of [A | I]) and ``int_functionals`` (on
[A^T | I], which ends in [d I | d A^-T]).  ``int_det_sign`` is Bareiss's
forward elimination; the certificates of ``puiseux`` call it on rows
they hold as ints.

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


def _gauss_jordan(work: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of int rows in place, with
    pivots sought in the first ``ncols`` columns.  Clearing column c with
    the pivot row ``top`` takes ``row = (pv * row - row[c] * top) // prev``
    for every other row, prev the previous pivot (1 at first); every entry
    is a minor of the input (Sylvester's identity), so the division is
    exact.  While every column so far holds a pivot, that leading block is
    not updated; it is written at the end, d at each pivot and zero
    elsewhere.  Returns the pivot columns, the sign of the row swaps and
    the last pivot d; the pivot rows come first and end as d times the
    reduced rows."""
    pivots: list[int] = []
    sign, prev, lo = 1, 1, 0
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        if lo == c:
            lo += 1
        top = work[r]
        pv = top[c]
        tail = top[lo:]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                row[lo:] = [(pv * x - f * y) // prev for x, y in zip(row[lo:], tail)]
        pivots.append(c)
        prev = pv
        if r + 1 == len(work):
            break
    block = [0] * lo
    for i, row in enumerate(work):
        row[:lo] = block
        if i < lo:
            row[i] = prev
    return pivots, sign, prev


def rref(rows: Iterable[Sequence]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (zero rows dropped): the
    rows scaled to primitive ints and eliminated by ``_gauss_jordan``, each
    pivot row over the last pivot, which is the unique reduced form."""
    work = [clear_denominators(vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    pivots, _, d = _gauss_jordan(work, ncols)
    return (
        tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in work[: len(pivots)]),
        tuple(pivots),
    )


def rank(rows) -> int:
    return len(rref(rows)[0])


def inverse(rows) -> Mat:
    rows = mat(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    aug = [rows[i] + tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    R, pivots = rref(aug)
    if pivots != tuple(range(n)):
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
    F_k . c has the sign of x_k.  ``_gauss_jordan`` on [A^T | I] ends in
    [d I | d A^-T], d the last pivot, +-det A; F is |det A| A^-T.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    work = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*rows))]
    pivots, sign, d = _gauss_jordan(work, n)
    if len(pivots) < n:
        return 0, None
    if d < 0:
        return -sign, [[-x for x in row[n:]] for row in work]
    return sign, [row[n:] for row in work]


