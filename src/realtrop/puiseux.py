"""Exact arithmetic in the ordered valued ring of finite rational-exponent
polynomials in t with rational coefficients.

Elements are finite term lists with strictly increasing rational
exponents.  The order is determined by the lowest-exponent term: f > 0
exactly when its leading coefficient is positive, and the valuation of a
nonzero f is its leading exponent.  Constants double as trivially valued
scalars, so the same type serves both the trivially and non-trivially
valued regimes.  Division is deliberately absent: quotients only ever
appear downstream as (sign, valuation) or leading-term pairs, both
computable from numerator and denominator separately.

Each series is stored once in integer form: int coefficient numerators
over one positive denominator and int exponent numerators over another,
both the least that work, so the form is unique.  Equality, hashing,
sign, valuation and every computation here read those ints; ``terms``,
the Fraction pairs that printing, JSON and ``leading`` use, is a view
built on first read; ``leading_sign_exponent`` gives other modules the
leading term as ints.  Sums and products share one integer kernel: a sum
of signed products sum(+-a*b) brings every exponent to one common
denominator and each side's coefficients to one, adds int numerators
keyed by int exponent, and reduces the survivors by gcd.  ``*``, ``+``,
``-`` and ``dot`` are one call to it.  ``det`` is one exact
fraction-free elimination (Bareiss), O(n^3) ring operations.

``signed_det`` certifies the leading term of det instead: an optimal
assignment on the leading exponents (Hungarian method) gives the
tropical determinant and dual potentials, and the leading coefficients
of the entries tight under them, each row scaled to ints, form a matrix
whose determinant, the coefficient of that power of t in det, is one int
Bareiss (``linalg.int_det_sign``) in O(n^3).  Only when it vanishes do
the leading terms cancel and ``det`` run.  The certificate is an int
pair (sign, k), the valuation being k/scale for the lcm scale of the
exponent denominators.  ``maximal_minors`` reads the leading terms of
fixed columns once and gets every maximal minor as such a pair from one
Laplace expansion of the leading terms over column subsets.
``column_rank`` certifies full rank the same way: the assignment matches
every line of the shorter side, and a nonzero det L on the matched lines
gives rank min(h, m); only otherwise does the elimination count pivots.
``BasisCertificate`` keeps that certificate for a basis: one
fraction-free Gauss-Jordan elimination of L (``linalg.int_functionals``)
gives sign det L and int functionals, and the leading term of each
coordinate of a vector in the basis is then one int dot product with a
functional, unless the leading terms cancel.  Entries that are series
already pass through ``coerce_matrix`` as they are.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .hyperfields import INF, RT, RT_ZERO, Val, format_val, unchecked_rt
from .linalg import int_det_sign, int_functionals, rational

DEFAULT_MAX_EXP_DENOMINATOR = 10**9
DET_SIZE_BOUND = 12  # exact elimination entries grow to n x n minors


class PuiseuxParseError(ValueError):
    """Syntax or bound violation, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.total_ordering
class PuiseuxSeries:
    """A series in canonical integer form.

    ``_ints`` holds (n, k) int pairs, k strictly increasing and n nonzero,
    standing for the terms n/_cden * t^(k/_qden).  Both denominators are
    positive and the least that work, so the form is unique and equality
    compares it field by field.  ``terms`` is the same list as
    ((coefficient, exponent), ...) Fraction pairs, built on first read.
    Instances are immutable.
    """

    __slots__ = ("_ints", "_cden", "_qden", "_terms")

    def __new__(cls, terms: Iterable[tuple] = ()) -> "PuiseuxSeries":
        """The canonical series of (coefficient, exponent) pairs in any
        order, each an int, Fraction or rational string; repeated exponents
        add up and zero terms drop out."""
        ratios = [
            rational(c).as_integer_ratio() + rational(q).as_integer_ratio() for c, q in terms
        ]
        cden = math.lcm(*[r[1] for r in ratios])
        qden = math.lcm(*[r[3] for r in ratios])
        acc: dict[int, int] = {}
        for cn, cd, qn, qd in ratios:
            k = qn * (qden // qd)
            acc[k] = acc.get(k, 0) + cn * (cden // cd)
        return _collect(acc, cden, qden)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PuiseuxSeries, (self.terms,)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """((coefficient, exponent), ...) as Fractions, exponents increasing."""
        try:
            return self._terms
        except AttributeError:
            cden, qden = self._cden, self._qden
            _set_terms(self, tuple((Fraction(n, cden), Fraction(k, qden)) for n, k in self._ints))
            return self._terms

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[tuple]) -> "PuiseuxSeries":
        """``PuiseuxSeries(pairs)``."""
        return PuiseuxSeries(pairs)

    @staticmethod
    def zero() -> "PuiseuxSeries":
        return _ZERO

    @staticmethod
    def constant(c) -> "PuiseuxSeries":
        return PuiseuxSeries.t_power(_FRACTION_ZERO, c)

    @staticmethod
    def t_power(q, coeff=1) -> "PuiseuxSeries":
        coeff, q = rational(coeff), rational(q)
        if not coeff:
            return _ZERO
        n, cden = coeff.as_integer_ratio()
        k, qden = q.as_integer_ratio()
        f = _make(((n, k),), cden, qden)
        _set_terms(f, ((coeff, q),))
        return f

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_constant(self) -> bool:
        ints = self._ints
        return not ints or (len(ints) == 1 and not ints[0][1])

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.terms[0][0] if self._ints else Fraction(0)

    def leading(self) -> tuple[Fraction, Fraction] | None:
        """(coefficient, exponent) of the lowest-exponent term, or None."""
        return self.terms[0] if self._ints else None

    @property
    def valuation(self) -> Val:
        return Fraction(self._ints[0][1], self._qden) if self._ints else INF

    @property
    def sign(self) -> int:
        return (1 if self._ints[0][0] > 0 else -1) if self._ints else 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self, _ONE), (1, other, _ONE)])

    def __neg__(self) -> "PuiseuxSeries":
        return _make(tuple((-n, k) for n, k in self._ints), self._cden, self._qden)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self, _ONE), (-1, other, _ONE)])

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return _sum_of_products([(1, self, other)])

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            raise ValueError("negative powers leave the ring")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    # -- equality and order ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not PuiseuxSeries:
            return NotImplemented
        return (self._ints, self._cden, self._qden) == (other._ints, other._cden, other._qden)

    def __hash__(self) -> int:
        return hash((self._ints, self._cden, self._qden))

    def __lt__(self, other: "PuiseuxSeries") -> bool:
        return (self - other).sign < 0

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"PuiseuxSeries({format_series(self)!r})"


# the slot setters, which assignment on an instance cannot reach
_set_ints, _set_cden, _set_qden, _set_terms = (
    vars(PuiseuxSeries)[name].__set__ for name in PuiseuxSeries.__slots__
)


def _make(ints: tuple, cden: int, qden: int) -> PuiseuxSeries:
    """The series with these fields, taken as canonical."""
    f = object.__new__(PuiseuxSeries)
    _set_ints(f, ints)
    _set_cden(f, cden)
    _set_qden(f, qden)
    return f


_FRACTION_ZERO = Fraction(0)
_ZERO = _make((), 1, 1)
_ONE = _make(((1, 0),), 1, 1)


def _collect(acc: dict[int, int], cden: int, qden: int) -> PuiseuxSeries:
    """The canonical series sum(n/cden * t^(k/qden)) over the items k: n
    of acc: zero terms drop out and both denominators are reduced by the
    gcd they share with their numerators."""
    ints = [(n, k) for k, n in sorted(acc.items()) if n]
    if not ints:
        return _ZERO
    g = math.gcd(cden, *[n for n, _ in ints])
    h = math.gcd(qden, *[k for _, k in ints])
    if g != 1 or h != 1:
        ints = [(n // g, k // h) for n, k in ints]
    return _make(tuple(ints), cden // g, qden // h)


def _sum_of_products(products) -> PuiseuxSeries:
    """The canonical series sum(s * a * b) over the (s, a, b) triples.

    s is 1 or -1, and a and b are series.  Exponents are brought to the
    lcm of every exponent denominator, and coefficients on the a side
    (the b side) to the lcm of that side's denominators, so each product
    of terms is an int added to a dict keyed by its int exponent, and
    ``_collect`` reduces the sum.  Each lcm grows only when a denominator
    does not divide it, and each term of b is scaled once per product, with
    the a side's coefficient factor folded in.
    """
    live = []
    qden = aden = bden = 1
    for p in products:
        _, a, b = p
        if a._ints and b._ints:
            live.append(p)
            if qden % a._qden:
                qden = math.lcm(qden, a._qden)
            if qden % b._qden:
                qden = math.lcm(qden, b._qden)
            if aden % a._cden:
                aden = math.lcm(aden, a._cden)
            if bden % b._cden:
                bden = math.lcm(bden, b._cden)
    if not live:
        return _ZERO
    acc: dict[int, int] = {}
    get = acc.get
    for s, a, b in live:
        fab, ea = s * (aden // a._cden) * (bden // b._cden), qden // a._qden
        eb = qden // b._qden
        for nb, kb in b._ints:
            nb, kb = nb * fab, kb * eb
            for na, ka in a._ints:
                k = ka * ea + kb
                acc[k] = get(k, 0) + na * nb
    return _collect(acc, aden * bden, qden)


def as_series(x) -> PuiseuxSeries:
    """Coerce strings (literals), ints and Fractions into the ring; bools
    and floats are rejected."""
    if isinstance(x, PuiseuxSeries):
        return x
    if type(x) is int:
        return _make(((x, 0),), 1, 1) if x else _ZERO
    if isinstance(x, str):
        return parse_puiseux(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return PuiseuxSeries.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a Puiseux series")


def compare(f: PuiseuxSeries, g: PuiseuxSeries) -> int:
    """-1, 0 or +1; f exceeds g exactly when f - g has positive leading coefficient."""
    return (f - g).sign


def leading_sign_exponent(f: PuiseuxSeries) -> tuple[int, int, int]:
    """(sign, k, q) for the leading term of f, whose exponent is k/q in the
    series' own exponent denominator q; (0, 0, 1) for zero."""
    ints = f._ints
    if not ints:
        return 0, 0, 1
    n, k = ints[0]
    return (1 if n > 0 else -1), k, f._qden


def signed_value(f: PuiseuxSeries) -> RT:
    """Sign of the leading coefficient together with the leading exponent."""
    sign, k, q = leading_sign_exponent(f)
    return unchecked_rt(sign, Fraction(k, q)) if sign else RT_ZERO


@dataclass(frozen=True)
class FineValue:
    """Leading coefficient and valuation of a series; (None, INF) for zero."""

    coeff: Fraction | None
    val: Val

    def __post_init__(self):
        if (self.coeff is None) != (self.val is INF):
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
# Determinants and ranks in the ring

Matrix = Sequence[Sequence[PuiseuxSeries]]


def coerce_matrix(rows) -> tuple[tuple[PuiseuxSeries, ...], ...]:
    """The rows as tuples of series; entries that are series already are
    kept as they are, the others go through ``as_series``."""
    out = tuple(
        tuple(x if type(x) is PuiseuxSeries else as_series(x) for x in row) for row in rows
    )
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def check_det_size(n: int) -> None:
    """Reject square matrices larger than ``DET_SIZE_BOUND``."""
    if n > DET_SIZE_BOUND:
        raise ValueError(f"matrix size {n} exceeds bound {DET_SIZE_BOUND}")


def _square_matrix(rows: Matrix) -> tuple[tuple[PuiseuxSeries, ...], ...]:
    """The coerced rows, once they form a square matrix within ``DET_SIZE_BOUND``."""
    rows = coerce_matrix(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    check_det_size(n)
    return rows


def det(rows: Matrix) -> PuiseuxSeries:
    """Determinant: the last pivot of ``_eliminate``, or zero below full rank."""
    rows = _square_matrix(rows)
    rank, sign, last, cden, qden = _eliminate(rows)
    if rank < len(rows):
        return _ZERO
    return _collect({k: sign * n for k, n in last.items()}, cden ** len(rows), qden)


def column_rank(cols: Sequence[Sequence[PuiseuxSeries]]) -> int:
    """Rank of column vectors, from the leading terms when they decide it.

    The shorter side's lines are read once (``_integer_leads``) and every
    one of them is matched to a line of the other side by an optimal
    assignment on the leading exponents.  The matched lines form a square
    submatrix for which the potentials are optimal, so when its tight
    coefficient matrix L has det L != 0, that submatrix has a nonzero
    determinant and the rank is full, min(h, m).  Otherwise, with no such
    matching or det L = 0, the rank is the pivot count of ``_eliminate``
    on the columns as rows.
    """
    cols = coerce_matrix(cols)
    height = len(cols[0]) if cols else 0
    lines = cols if len(cols) <= height else tuple(zip(*cols))
    if not lines or not lines[0]:
        return 0
    cost, coeffs, _ = _integer_leads(lines)
    found = _assignment_potentials(cost)
    if found is not None:
        u, v, match = found
        if int_det_sign(_tight(coeffs, cost, u, v, sorted(match))):
            return len(lines)
    return _eliminate(cols)[0]


def _eliminate(rows) -> tuple[int, int, dict[int, int], int, int]:
    """Fraction-free elimination (Bareiss 1968) of a matrix of series to
    row echelon form: the rank, the sign of the row swaps, the last pivot
    and the lcms cden and qden of the entries' two denominators.

    The entries are read once as int Laurent polynomials in t^(1/qden)
    over cden, {exponent: coefficient} dicts.  An entry updated below a
    pivot is the minor on the pivot rows and columns and its own (Sylvester's
    identity), so its division by the previous pivot is exact.  At full
    rank the last pivot of a square matrix, times the sign, is cden^n det.
    """
    qden = math.lcm(*[x._qden for row in rows for x in row])
    cden = math.lcm(*[x._cden for row in rows for x in row])
    work = [
        [{k * (qden // x._qden): n * (cden // x._cden) for n, k in x._ints} for x in row]
        for row in rows
    ]
    rank, sign, prev = 0, 1, {0: 1}
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        for row in work[rank + 1 :]:
            for j in range(col + 1, len(top)):
                # (top[col] * row[j] - row[col] * top[j]) / prev
                acc: dict[int, int] = {}
                for s, a, b in ((1, top[col], row[j]), (-1, row[col], top[j])):
                    for ka, na in a.items():
                        for kb, nb in b.items():
                            acc[ka + kb] = acc.get(ka + kb, 0) + s * na * nb
                row[j] = _exact_quotient({k: n for k, n in acc.items() if n}, prev)
        prev = top[col]
        rank += 1
    return rank, sign, prev, cden, qden


def _exact_quotient(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a / b, b dividing a, by long division from the lowest term; a is consumed."""
    low, quotient = min(b), {}
    while a:
        k = min(a)
        n = quotient[k - low] = a[k] // b[low]
        for kb, nb in b.items():
            e = kb + k - low
            a[e] = a.get(e, 0) - n * nb
            if not a[e]:
                del a[e]
    return quotient


def signed_det(rows: Matrix) -> RT:
    """``signed_value(det(rows))``, from the leading terms when they decide it.

    A constant matrix, the empty one included, has valuation 0 and the
    sign of its rational determinant.  Otherwise an optimal assignment on
    the leading exponents q_ij gives the tropical determinant
    sum(u) + sum(v) and potentials with u_i + v_j <= q_ij; every term of
    det has valuation at least that, and the coefficient of
    t^(sum(u) + sum(v)) in det is det L, where L keeps the leading
    coefficients of the tight entries (q_ij == u_i + v_j) and zeros the
    rest.  Only when det L vanishes is the exact ``det`` taken, at any size.
    Input is checked as in ``det``, against the same ``DET_SIZE_BOUND``,
    before any work.  Transposing changes neither det, nor the optimal
    assignment, nor det L, so the result, and whether the exact fallback
    runs, are the same for a matrix and its transpose: callers may pass
    columns as rows.  ``maximal_minors`` gives the same values for the
    maximal minors of fixed columns.
    """
    rows = _square_matrix(rows)
    constant = all(x.is_constant for row in rows for x in row)
    cost, coeffs, scale = _integer_leads(rows)
    sign, k = _certified(cost, coeffs, scale, rows, constant)
    return unchecked_rt(sign, Fraction(k, scale)) if sign else RT_ZERO


def _integer_leads(lines) -> tuple[list[list], list[list[int]], int]:
    """The leading terms of each line of series in integer form: the
    exponents as ints over one common denominator (None for a zero
    entry), the coefficients as ints, each line brought to the lcm of
    its coefficient denominators (a positive factor), and that exponent
    denominator."""
    scale = math.lcm(*[x._qden for line in lines for x in line if x._ints])
    cost = [
        [x._ints[0][1] * (scale // x._qden) if x._ints else None for x in line]
        for line in lines
    ]
    coeffs = []
    for line in lines:
        den = math.lcm(*[x._cden for x in line if x._ints])
        coeffs.append([x._ints[0][0] * (den // x._cden) if x._ints else 0 for x in line])
    return cost, coeffs, scale


def _certified(cost, coeffs, scale: int, rows, constant: bool) -> tuple[int, int]:
    """The sign of det(rows) and its valuation times ``scale``, from the
    leading terms of its entries, read by ``_integer_leads``; (0, 0)
    when det(rows) is zero.

    Scaling a row of coefficients by a positive factor keeps the sign of
    det L.  A constant matrix is its own L.  Otherwise the tight entries
    form L, whose sign is one int Bareiss; only when det L vanishes is
    the exact det(rows) taken; its exponents are multiples of 1/scale,
    as sums of the entries' exponents.
    """
    if constant:
        return int_det_sign([list(row) for row in coeffs]), 0
    potentials = _assignment_potentials(cost)
    if potentials is None:
        return 0, 0
    u, v, _ = potentials
    sign = int_det_sign(_tight(coeffs, cost, u, v, range(len(v))))
    if sign:
        return sign, sum(u) + sum(v)
    f = det(rows)
    return (f.sign, f._ints[0][1] * (scale // f._qden)) if f._ints else (0, 0)


def _tight(coeffs, cost, u, v, columns) -> list[list[int]]:
    """L on the given columns: the leading coefficient of each entry that
    is tight under the potentials (cost_ij == u_i + v_j), zero elsewhere."""
    return [
        [crow[j] if qrow[j] == ui + v[j] else 0 for j in columns]
        for crow, qrow, ui in zip(coeffs, cost, u)
    ]


def maximal_minors(columns: Matrix) -> tuple[dict[tuple[int, ...], tuple[int, int]], int]:
    """The (sign, k) pair of ``signed_det([columns[j] for j in tup])``,
    valued RT(sign, k/scale), for every increasing tuple, and ``scale``.

    From the leading terms (``_integer_leads``), Laplace along coordinate
    i over the column sets T of size i + 1 gives the least exponent sum
    m_T = min(q_ji + m_(T-j)) over j in T, and its coefficient c_T, the
    sum of (-1)^(pos of j in T + i) c_ji c_(T-j) over the j attaining it.
    A permutation is optimal exactly when its entries are all tight, so
    c_T is det L of ``_certified``, which runs only where c_T = 0 or T has
    no bijection.  When sum(k C(w, k)) over k <= h exceeds h^2 C(w, h), as
    on tall near-square columns, every minor is ``_certified`` instead.
    """
    columns = coerce_matrix(columns)
    h, w = len(columns[0]) if columns else 0, len(columns)
    check_det_size(h)
    cost, coeffs, scale = _integer_leads(columns)
    constant = [all(x.is_constant for x in col) for col in columns]
    expand = sum(k * math.comb(w, k) for k in range(1, h + 1)) <= h * h * math.comb(w, h)
    level = {(): (0, 1)}  # (m_T, c_T) per column set T with a bijection
    for i in range(h if expand else 0):
        below, level = level, {}
        for T in itertools.combinations(range(w), i + 1):
            least, c = None, 0
            for p, j in enumerate(T):
                sub = below.get(T[:p] + T[p + 1 :])
                if sub is None or cost[j][i] is None:
                    continue
                m, term = cost[j][i] + sub[0], (-1) ** (p + i) * coeffs[j][i] * sub[1]
                if least is None or m < least:
                    least, c = m, term
                elif m == least:
                    c += term
            if least is not None:
                level[T] = least, c
    table = {}
    for tup in itertools.combinations(range(w), h):
        m, c = level.get(tup, (0, 0))
        if c:
            table[tup] = (1 if c > 0 else -1), m
        else:  # cancelling leading terms, no bijection, or no expansion
            cs, ls, rows = ([line[j] for j in tup] for line in (cost, coeffs, columns))
            table[tup] = _certified(cs, ls, scale, rows, all(constant[j] for j in tup))
    return table, scale


class BasisCertificate:
    """The leading-term certificate of a square matrix whose rows b_k are
    a basis, for the signed values of the coordinates x_k of vectors
    f = sum(x_k b_k), and for the signed value of its determinant.

    It is built once: the leading terms read as ints (``_integer_leads``),
    potentials (u, v) of an optimal assignment on the leading exponents
    (u_k for row k, v_i for entry i; both zero for a constant matrix,
    which is its own L), the tight int matrix L of ``_tight``, and one
    fraction-free Gauss-Jordan elimination of L (``linalg.int_functionals``),
    which gives sign det L and the int ``functionals`` F = |det L| L^-T
    (None when det L = 0; then the exact ``det`` decides it).  ``det`` is
    RT(sign det L, (sum(u) + sum(v))/scale), as in ``signed_det``.  On a
    constant matrix L is each row b_k scaled by a positive factor, so F_k
    is a positive multiple of g_k, row k of the inverse basis, and as
    g_k . b_k = 1, g_k = F_k / (F_k . b_k).

    With the matrix written t^u (L' + higher terms) t^v, L' = L up to
    positive row factors, the coordinates are y = t^u x with
    (L'^T + higher terms) y = t^-v f.  So if f_i has leading exponent
    q_i and m = min(q_i - v_i), and c holds the leading coefficients of
    the f_i that attain m, then no term of x_k lies below t^(m - u_k),
    and its coefficient there is a positive multiple of F_k . c: when
    that is nonzero it gives the sign of x_k and the valuation
    (m - u_k)/scale, and otherwise val x_k > (m - u_k)/scale.  ``solve``
    reads that from f.
    """

    __slots__ = ("constant", "det", "scale", "functionals", "_u", "_v")

    def __init__(self, rows: Matrix):
        rows = _square_matrix(rows)
        n = len(rows)
        self.constant = all(x.is_constant for row in rows for x in row)
        cost, coeffs, self.scale = _integer_leads(rows)
        if self.constant:
            potentials = [0] * n, [0] * n, None
        else:
            potentials = _assignment_potentials(cost)
        if potentials is None:
            self._u = self._v = [0] * n
            self.functionals = None
            self.det = RT_ZERO
            return
        u, v, _ = potentials
        self._u, self._v = u, v
        tight = coeffs if self.constant else _tight(coeffs, cost, u, v, range(n))
        sign, self.functionals = int_functionals(tight)
        if sign:
            self.det = unchecked_rt(sign, Fraction(sum(u) + sum(v), self.scale))
        else:
            self.det = signed_value(det(rows))

    def solve(self, f: Sequence) -> tuple[Iterable[int], list[int], int, bool] | None:
        """The leading terms of the coordinates of f, one entry per row,
        each an int, Fraction or series (other entries go through
        ``as_series``); None when f is zero.

        Returns (y, e, den, exact): x_k has the sign of y_k and the
        valuation e_k/den whenever y_k != 0, den being the lcm of ``scale``
        and the exponent denominators of f.  A zero y_k leaves x_k open:
        its leading terms cancel, so val x_k > e_k/den, or x_k is zero; but
        when ``exact``, the matrix and f are constant, L is the matrix
        itself, every e_k is 0 and y_k = 0 means x_k = 0.  y is computed
        lazily, one int dot product per coordinate.  With no functionals
        (det L = 0) nothing is certified, not even a bound, and y and e
        are None.
        """
        dim = len(self._u)
        if len(f) != dim:
            raise ValueError("vector has the wrong dimension")
        leads = []
        constant = True
        den = self.scale
        for i, x in enumerate(f):
            kind = type(x)
            if kind is int:
                if x:
                    leads.append((i, x, 1, 0, 1))
                continue
            if kind is Fraction:
                n, cden = x.as_integer_ratio()
                if n:
                    leads.append((i, n, cden, 0, 1))
                continue
            if kind is not PuiseuxSeries:
                x = as_series(x)
            ints = x._ints
            if ints:
                n, k = ints[0]
                qden = x._qden
                if k or len(ints) > 1:
                    constant = False
                    if den % qden:
                        den = math.lcm(den, qden)
                leads.append((i, n, x._cden, k, qden))
        if not leads:
            return None
        funcs = self.functionals
        if funcs is None:
            return None, None, den, False
        exact = constant and self.constant
        if exact:
            exps = [0] * dim
        else:
            r = den // self.scale
            v = self._v
            levels = [k * (den // qden) - v[i] * r for i, _, _, k, qden in leads]
            m = min(levels)
            leads = [lead for lead, e in zip(leads, levels) if e == m]
            exps = [m - uk * r for uk in self._u]
        common = math.lcm(*[cden for _, _, cden, _, _ in leads])
        c = [0] * dim
        for i, n, cden, _, _ in leads:
            c[i] = n * (common // cden)
        return (sum(map(mul, row, c)) for row in funcs), exps, den, exact


def _assignment_potentials(cost) -> tuple[list[int], list[int], list[int]] | None:
    """Dual potentials of a min-cost matching of every row (Hungarian method).

    ``cost`` is an n x m table of ints, n <= m, None where no edge exists.
    The rows are matched one at a time along shortest augmenting paths
    (Kuhn 1955, in the O(n^2 m) form with potentials), which keeps
    u_i + v_j <= cost_ij on every edge, with equality on the matching.
    Returns (u, v, match), match[i] the column of row i, or None when no
    matching covers every row.  On the square table that the matching
    makes of the matched columns, (u, v) are optimal potentials and
    sum(u) + sum(v over them) is its tropical determinant.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    match = [0] * (m + 1)  # match[j]: row (1-based) matched to column j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        slack = [None] * (m + 1)  # None: no edge to column j reached yet
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta, j1 = None, 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                s = slack[j]
                if c is not None:
                    cur = c - ui0 - v[j]
                    if s is None or cur < s:
                        slack[j] = s = cur
                        way[j] = j0
                if s is not None and (delta is None or s < delta):
                    delta, j1 = s, j
            if not j1:
                return None
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                elif slack[j] is not None:
                    slack[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    rows = [0] * n
    for j in range(1, m + 1):
        if match[j]:
            rows[match[j] - 1] = j - 1
    return u[1:], v[1:], rows


def dot(u: Sequence[PuiseuxSeries], v: Sequence[PuiseuxSeries]) -> PuiseuxSeries:
    if len(u) != len(v):
        raise ValueError("dot product length mismatch")
    return _sum_of_products([(1, a, b) for a, b in zip(u, v)])
