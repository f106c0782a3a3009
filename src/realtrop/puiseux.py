"""Exact arithmetic in the ordered valued ring of finite rational-exponent
polynomials in t with rational coefficients.

Elements are finite term lists with strictly increasing rational
exponents.  The order is determined by the lowest-exponent term: f > 0
exactly when its leading coefficient is positive, and the valuation of a
nonzero f is its leading exponent.  Constants double as trivially valued
scalars, so the same type serves both the trivially and non-trivially
valued regimes.

Division is deliberately absent: quotients only ever appear downstream
as (sign, valuation) pairs or leading-term pairs, both computable from
numerator and denominator separately.

Sums and products share one integer kernel: a sum of signed products
sum(+-a*b) is reduced by scaling every exponent to one common
denominator and the coefficients of each side to one common denominator,
adding int numerators keyed by int exponent, and building one normalized
``Fraction`` pair per surviving term.  ``*``, ``+``, ``-``, ``dot`` and
``from_terms`` are each one call to it.  ``IntegerVectors`` holds fixed
vectors in that integer form once, so a dot product with each of them
is one accumulation of the same kernel.

``det`` expands the determinant exactly, by division-free Laplace
expansion with subset memoization, which keeps every intermediate value
in the ring and costs O(n 2^n) series products; each expansion step,
sum(+-entry*minor) along a row, is one call to the kernel.  Callers that
need only its signed value use ``signed_det``, which certifies the
leading term instead: an optimal assignment on the leading exponents
(Hungarian method) gives the tropical determinant and dual potentials,
and the leading coefficients of the entries tight under those potentials
form a rational matrix whose determinant is the coefficient of that
power of t in det.  When that determinant is nonzero it gives the sign,
in O(n^3); when it vanishes the leading terms cancel, and ``signed_det``
falls back to the exact expansion.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hyperfields import INF, RT, RT_ZERO, Val, format_val
from .linalg import det_sign

DEFAULT_MAX_EXP_DENOMINATOR = 10**9
DET_SIZE_BOUND = 12  # the exact expansion is O(n 2^n)


class PuiseuxParseError(ValueError):
    """Syntax or bound violation, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.total_ordering
@dataclass(frozen=True)
class PuiseuxSeries:
    """Canonical term list: ((coeff, exponent), ...), exponents increasing."""

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[tuple]) -> "PuiseuxSeries":
        """The canonical series of (coefficient, exponent) pairs in any
        order; repeated exponents add up and zero terms drop out."""
        terms = tuple((_rational(c), _rational(q)) for c, q in pairs)
        return _sum_of_products([(1, terms, _ONE.terms)])

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return _ZERO

    @staticmethod
    def one() -> "PuiseuxSeries":
        return _ONE

    @staticmethod
    def constant(c) -> "PuiseuxSeries":
        c = _rational(c)
        return PuiseuxSeries(((c, Fraction(0)),)) if c else _ZERO

    @staticmethod
    def t_power(q, coeff=1) -> "PuiseuxSeries":
        coeff, q = _rational(coeff), _rational(q)
        return PuiseuxSeries(((coeff, q),)) if coeff else _ZERO

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][1] == 0)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.terms[0][0] if self.terms else Fraction(0)

    def leading(self) -> tuple[Fraction, Fraction] | None:
        """(coefficient, exponent) of the lowest-exponent term, or None."""
        return self.terms[0] if self.terms else None

    @property
    def valuation(self) -> Val:
        return self.terms[0][1] if self.terms else INF

    @property
    def sign(self) -> int:
        if not self.terms:
            return 0
        return 1 if self.terms[0][0] > 0 else -1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self.terms, _ONE.terms), (1, other.terms, _ONE.terms)])

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(tuple((-c, q) for c, q in self.terms))

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self.terms, _ONE.terms), (-1, other.terms, _ONE.terms)])

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self.terms, other.terms)])

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            raise ValueError("negative powers leave the ring")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    # -- order --------------------------------------------------------------

    def __lt__(self, other: "PuiseuxSeries") -> bool:
        return (self - other).sign < 0

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"PuiseuxSeries({format_series(self)!r})"


_ZERO = PuiseuxSeries(())
_ONE = PuiseuxSeries(((Fraction(1), Fraction(0)),))


def _rational(x) -> Fraction:
    """An int, Fraction or str as a Fraction; bools and floats are not
    scalars of the ring."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"cannot use {x!r} as a rational number")
    return Fraction(x)


def _sum_of_products(products) -> PuiseuxSeries:
    """The canonical series sum(s * a * b) over the (s, a, b) triples.

    s is 1 or -1, and a and b are term tuples in any order, repeats and
    zero coefficients allowed.  Exponents are scaled to the lcm of every
    exponent denominator, and coefficients on the a side (the b side) to
    the lcm of that side's denominators, so each product of terms is an
    int added to a dict keyed by its int exponent (``_accumulate``).
    Only the surviving terms become Fractions, one normalized pair each.
    """
    ratios = [
        (
            s,
            [c.as_integer_ratio() + q.as_integer_ratio() for c, q in a],
            [c.as_integer_ratio() + q.as_integer_ratio() for c, q in b],
        )
        for s, a, b in products
        if a and b
    ]
    if not ratios:
        return _ZERO
    qden = math.lcm(*[r[3] for _, ra, rb in ratios for side in (ra, rb) for r in side])
    aden = math.lcm(*[r[1] for _, ra, _ in ratios for r in ra])
    bden = math.lcm(*[r[1] for _, _, rb in ratios for r in rb])
    scaled = [
        ([(s * cn * (aden // cd), qn * (qden // qd)) for cn, cd, qn, qd in ra], rb)
        for s, ra, rb in ratios
    ]
    return _accumulate(scaled, aden * bden, bden, qden)


def _accumulate(products, den: int, bden: int, qden: int) -> PuiseuxSeries:
    """The canonical series sum(a * b) over the (a, b) pairs of one sum.

    a is a list of int terms (n, k); b lists (cn, cd, qn, qd), the
    ``as_integer_ratio`` pairs of its terms, which are scaled here to
    (cn * bden / cd, qn * qden / qd).  A product of int terms (n, k) then
    stands for n/den * t^(k/qden).
    """
    acc: dict[int, int] = {}
    get = acc.get
    for ints, rb in products:
        for cn, cd, qn, qd in rb:
            cb = cn * (bden // cd)
            kb = qn * (qden // qd)
            for ca, ka in ints:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return PuiseuxSeries(
        tuple((Fraction(n, den), Fraction(k, qden)) for k, n in sorted(acc.items()) if n)
    )


class IntegerVectors:
    """Fixed series vectors read once in integer form, for dot products
    with many vectors.

    Every coefficient is held as an int over one common positive
    denominator and every exponent as an int over another.  ``dots(x)``
    reads the terms of x once, and sums each vector's products with x in
    one ``_accumulate``, the accumulation ``_sum_of_products`` runs; the
    results equal ``tuple(dot(v, x) for v in vectors)``.
    """

    __slots__ = ("_ints", "_cden", "_qden")

    def __init__(self, vectors: Sequence[Sequence[PuiseuxSeries]]):
        ratios = [
            [[c.as_integer_ratio() + q.as_integer_ratio() for c, q in f.terms] for f in v]
            for v in vectors
        ]
        terms = [r for v in ratios for entry in v for r in entry]
        cden = self._cden = math.lcm(*[r[1] for r in terms])
        qden = self._qden = math.lcm(*[r[3] for r in terms])
        self._ints = [
            [[(cn * (cden // cd), qn * (qden // qd)) for cn, cd, qn, qd in entry] for entry in v]
            for v in ratios
        ]

    def dots(self, x: Sequence[PuiseuxSeries]) -> tuple[PuiseuxSeries, ...]:
        """The dot product of every vector with the series vector x."""
        if any(len(v) != len(x) for v in self._ints):
            raise ValueError("dot product length mismatch")
        rx = [[c.as_integer_ratio() + q.as_integer_ratio() for c, q in f.terms] for f in x]
        xden = math.lcm(*[r[1] for entry in rx for r in entry])
        qden = math.lcm(self._qden, *[r[3] for entry in rx for r in entry])
        ints = self._ints
        if qden != self._qden:
            factor = qden // self._qden
            ints = [[[(n, k * factor) for n, k in entry] for entry in v] for v in ints]
        den = self._cden * xden
        return tuple(_accumulate(zip(v, rx), den, xden, qden) for v in ints)


def as_series(x) -> PuiseuxSeries:
    """Coerce strings (literals), ints and Fractions into the ring; bools
    and floats are rejected."""
    if isinstance(x, PuiseuxSeries):
        return x
    if isinstance(x, str):
        return parse_puiseux(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return PuiseuxSeries.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a Puiseux series")


def constant_values(xs) -> list | None:
    """The rational values of ints, Fractions and constant series, read in
    one pass over the terms; None at the first other entry.  Bools are
    not ints here."""
    values = []
    for x in xs:
        if type(x) is PuiseuxSeries:
            terms = x.terms
            if len(terms) > 1 or (terms and terms[0][1]):
                return None
            values.append(terms[0][0] if terms else 0)
        elif type(x) is int or type(x) is Fraction:
            values.append(x)
        else:
            return None
    return values


def compare(f: PuiseuxSeries, g: PuiseuxSeries) -> int:
    """-1, 0 or +1; f exceeds g exactly when f - g has positive leading coefficient."""
    return (f - g).sign


def signed_value(f: PuiseuxSeries) -> RT:
    """Sign of the leading coefficient together with the leading exponent."""
    lead = f.leading()
    if lead is None:
        return RT_ZERO
    c, q = lead
    return RT(1 if c > 0 else -1, q)


@dataclass(frozen=True)
class FineValue:
    """Leading coefficient and valuation of a series; (None, INF) for zero."""

    coeff: Fraction | None
    val: Val

    def __post_init__(self):
        if (self.coeff is None) != (self.val == INF):
            raise ValueError("zero fine value must be (None, inf)")

    @property
    def is_zero(self) -> bool:
        return self.coeff is None

    def __mul__(self, other: "FineValue") -> "FineValue":
        if self.is_zero or other.is_zero:
            return FINE_ZERO
        return FineValue(self.coeff * other.coeff, self.val + other.val)

    def __repr__(self):
        if self.is_zero:
            return "FineValue(0)"
        return f"FineValue({self.coeff}, {format_val(self.val)})"


FINE_ZERO = FineValue(None, INF)


def fval(f: PuiseuxSeries) -> FineValue:
    lead = f.leading()
    if lead is None:
        return FINE_ZERO
    return FineValue(lead[0], lead[1])


# ---------------------------------------------------------------------------
# Parsing and printing
#
# series := term (("+"|"-") term)* ; term := coeff | coeff "*" mono | mono ;
# mono := "t" | "t^" exp ; coeff := int | int "/" int ;
# exp := int | "(" int "/" int ")" | "(-" int "/" int ")" | "-" int.
# Whitespace is ignored.  The parser also accepts "(-3)" style integer
# exponents, which the canonical printer emits.

_INT_RE = re.compile(r"[+-]?\d+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise PuiseuxParseError(f"expected {ch!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise PuiseuxParseError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def fraction(self) -> Fraction:
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                raise PuiseuxParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)


def parse_puiseux(
    text: str, max_exp_denominator: int = DEFAULT_MAX_EXP_DENOMINATOR
) -> PuiseuxSeries:
    """Parse a series literal into canonical form.

    Raises PuiseuxParseError on malformed input or when an exponent
    denominator exceeds the configured bound.
    """
    sc = _Scanner(text)
    terms: list[tuple[Fraction, Fraction]] = []
    first = True
    while True:
        sc.skip_ws()
        if first and not sc.peek():
            raise PuiseuxParseError("empty literal", sc.pos)
        negate = False
        if first:
            # a leading sign may precede a bare monomial, e.g. "-t"
            if sc.take("-"):
                negate = True
            else:
                sc.take("+")
        else:
            if not sc.peek():
                break
            if sc.take("+"):
                pass
            elif sc.take("-"):
                negate = True
            else:
                raise PuiseuxParseError("expected '+' or '-'", sc.pos)
        first = False
        coeff, expo = _parse_term(sc, max_exp_denominator)
        terms.append((-coeff if negate else coeff, expo))
    if sc.peek():
        raise PuiseuxParseError("trailing input", sc.pos)
    return PuiseuxSeries.from_terms(terms)


def _parse_term(sc: _Scanner, max_den: int) -> tuple[Fraction, Fraction]:
    if sc.peek() == "t":
        return Fraction(1), _parse_mono(sc, max_den)
    coeff = sc.fraction()
    if sc.take("*"):
        return coeff, _parse_mono(sc, max_den)
    if sc.peek() == "t":
        raise PuiseuxParseError("missing '*' before 't'", sc.pos)
    return coeff, Fraction(0)


def _parse_mono(sc: _Scanner, max_den: int) -> Fraction:
    sc.expect("t")
    if not sc.take("^"):
        return Fraction(1)
    if sc.take("("):
        expo = sc.fraction()
        sc.expect(")")
    else:
        expo = Fraction(sc.integer())
    if expo.denominator > max_den:
        raise PuiseuxParseError(
            f"exponent denominator {expo.denominator} exceeds bound {max_den}", sc.pos
        )
    return expo


def _format_exponent(q: Fraction) -> str:
    if q.denominator == 1 and q >= 0:
        return str(q)
    return f"({q})"


def format_series(f: PuiseuxSeries) -> str:
    """Canonical printing: increasing exponents, explicit '*', fractional
    and negative exponents parenthesized.  parse(format(f)) == f."""
    if not f.terms:
        return "0"
    chunks: list[str] = []
    for i, (c, q) in enumerate(f.terms):
        mag = abs(c)
        if q == 0:
            body = str(mag)
        else:
            mono = "t" if q == 1 else f"t^{_format_exponent(q)}"
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Determinants and column independence in the ring

Matrix = Sequence[Sequence[PuiseuxSeries]]


def coerce_matrix(rows) -> tuple[tuple[PuiseuxSeries, ...], ...]:
    out = tuple(tuple(as_series(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def _square_matrix(rows: Matrix) -> tuple[tuple[PuiseuxSeries, ...], ...]:
    """The coerced rows, once they form a square matrix of size at most
    ``DET_SIZE_BOUND``."""
    rows = coerce_matrix(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n > DET_SIZE_BOUND:
        raise ValueError(f"matrix size {n} exceeds bound {DET_SIZE_BOUND}")
    return rows


def det(rows: Matrix) -> PuiseuxSeries:
    """Determinant by division-free expansion with subset memoization."""
    rows = _square_matrix(rows)
    n = len(rows)
    if n == 0:
        return _ONE

    cache: dict[tuple[int, ...], PuiseuxSeries] = {}

    def minor(cols: tuple[int, ...]) -> PuiseuxSeries:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = cache.get(cols)
        if got is not None:
            return got
        row = rows[n - len(cols)]
        got = cache[cols] = _sum_of_products(
            [
                (-1 if j % 2 else 1, row[c].terms, minor(cols[:j] + cols[j + 1 :]).terms)
                for j, c in enumerate(cols)
                if row[c].terms
            ]
        )
        return got

    return minor(tuple(range(n)))


def signed_det(rows: Matrix) -> RT:
    """``signed_value(det(rows))``, from the leading terms when they decide it.

    A constant matrix, the empty one included, has valuation 0 and the
    sign of its rational determinant.  Otherwise an optimal assignment on
    the leading exponents q_ij gives the tropical determinant
    sum(u) + sum(v) and potentials with u_i + v_j <= q_ij; every term of
    det has valuation at least that, and the coefficient of
    t^(sum(u) + sum(v)) in det is det L, where L keeps the leading
    coefficients of the tight entries (q_ij == u_i + v_j) and zeros the
    rest.  Only when det L vanishes is det expanded exactly, at any size.
    Input is checked as in ``det``, against the same ``DET_SIZE_BOUND``,
    before any work.  Transposing changes neither det, nor the optimal
    assignment, nor det L, so the result, and whether the exact fallback
    runs, are the same for a matrix and its transpose: callers may pass
    columns as rows.
    """
    rows = _square_matrix(rows)
    values = []
    for row in rows:
        row_values = constant_values(row)
        if row_values is None:
            break
        values.append(row_values)
    else:
        sign = det_sign(values)
        return RT(sign, Fraction(0)) if sign else RT_ZERO
    leads = [[x.terms[0] if x.terms else None for x in row] for row in rows]
    scale = math.lcm(*(t[1].denominator for row in leads for t in row if t))
    cost = [
        [t[1].numerator * (scale // t[1].denominator) if t else None for t in row]
        for row in leads
    ]
    potentials = _assignment_potentials(cost)
    if potentials is None:
        return RT_ZERO
    u, v = potentials
    tight = [
        [t[0] if t and c == ui + vj else 0 for t, c, vj in zip(lrow, crow, v)]
        for lrow, crow, ui in zip(leads, cost, u)
    ]
    sign = det_sign(tight)
    if sign == 0:
        return signed_value(det(rows))
    return RT(sign, Fraction(sum(u) + sum(v), scale))


def _assignment_potentials(cost) -> tuple[list[int], list[int]] | None:
    """Dual potentials of a min-cost perfect matching (Hungarian method).

    ``cost`` is a square table of ints, None where no edge exists.  The
    rows are matched one at a time along shortest augmenting paths
    (Kuhn 1955, in the O(n^3) form with potentials), which keeps
    u_i + v_j <= cost_ij on every edge, with equality on the matching.
    Returns (u, v), or None when there is no perfect matching.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: row (1-based) matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        slack = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta, j1 = INF, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - ui0 - v[j]
                    if cur < slack[j]:
                        slack[j] = cur
                        way[j] = j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            if not j1:
                return None
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return u[1:], v[1:]


def dot(u: Sequence[PuiseuxSeries], v: Sequence[PuiseuxSeries]) -> PuiseuxSeries:
    if len(u) != len(v):
        raise ValueError("dot product length mismatch")
    return _sum_of_products([(1, a.terms, b.terms) for a, b in zip(u, v)])


def columns_independent(cols: Sequence[Sequence[PuiseuxSeries]]) -> bool:
    """True when the column vectors are linearly independent.

    A k-subset of columns is independent exactly when some k x k
    row-submatrix has nonzero determinant; heights here are small enough
    for direct enumeration.
    """
    cols = [tuple(as_series(x) for x in c) for c in cols]
    k = len(cols)
    if k == 0:
        return True
    height = len(cols[0])
    if k > height:
        return False
    for rowsel in itertools.combinations(range(height), k):
        sub = [[cols[j][i] for j in range(k)] for i in rowsel]
        if signed_det(sub).sign != 0:
            return True
    return False


def column_rank(cols: Sequence[Sequence[PuiseuxSeries]]) -> int:
    """Greedy matroid rank of a list of column vectors."""
    basis: list = []
    for c in cols:
        if columns_independent(basis + [c]):
            basis.append(c)
    return len(basis)
