"""Elements and multivalued addition for four hyperfields: the Krasner
hyperfield K, the sign hyperfield S, the tropical hyperfield T, and the
real tropical hyperfield RT.

Magnitudes are stored additively, as valuations: a nonzero element of
magnitude m corresponds to the valuation v = -log m, so a *larger*
magnitude means a *smaller* valuation.  Valuations are exact rationals,
with ``INF`` standing in for the valuation of zero.  Every comparison in
the multiplicative language is translated once, here, into the valuation
convention; the rest of the package never converts back to floats.

Sign-hyperfield elements are plain ints in {-1, 0, +1}; tropical and
Krasner elements are the wrapper types ``TV`` and ``KV``.  T, S and K are
the images of RT under ``abs``, ``sgn`` and ``to-krasner``, so every
element reads as an RT pair (``sign_val``) and every pair maps back into
a field (``from_sign_val``).  Products, quotients, negation, hypersums,
hyperset membership and the homomorphisms are each the one RT rule on
pairs, and ``admits_zero`` is the one rule for a hypersum containing zero.
This module is algebra and text only; the JSON forms of these values
live in ``jsonio``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

INF = float("inf")

#: A rational valuation, or INF for the valuation of zero.
Val = Union[Fraction, float]


def as_val(x) -> Val:
    """Coerce ints/strings/Fractions to a valuation value; every infinite
    input becomes the module's ``INF`` object."""
    if type(x) is Fraction:
        return x
    if x == INF:
        return INF
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_val(x)
    raise TypeError(f"cannot interpret {x!r} as a valuation")


_VAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")  # the denominator is nonzero


def parse_val(text: str) -> Val:
    """A valuation from text: an optional sign, an int and an optional
    "/" and nonzero int ("p/q"), or inf spelled "inf", "Inf", "INF" or
    "oo"; surrounding whitespace is ignored.  Anything else, floats,
    exponents and underscores included, raises ValueError."""
    body = text.strip()
    if body in ("inf", "Inf", "INF", "oo"):
        return INF
    if not _VAL_RE.fullmatch(body):
        raise ValueError(f"bad valuation {text!r}")
    return Fraction(body)


def format_val(v: Val) -> str:
    return "inf" if v == INF else str(v)


# ---------------------------------------------------------------------------
# Element types


@dataclass(frozen=True)
class RT:
    """Element of the real tropical hyperfield: a sign and a valuation.

    The hyperfield zero is ``RT(0, INF)``; every nonzero element has
    sign +-1 and a finite rational valuation.
    """

    sign: int
    val: Val

    def __post_init__(self):
        sign = self.sign
        if sign not in (-1, 0, 1) or sign is True or sign is False:
            raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
        object.__setattr__(self, "val", as_val(self.val))
        if (sign == 0) != (self.val is INF):
            raise ValueError("sign 0 must pair with valuation inf, and conversely")

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "RT":
        return RT(-self.sign, self.val)

    def __repr__(self):
        if self.sign == 0:
            return "RT(0)"
        s = "+" if self.sign > 0 else "-"
        return f"RT({s}, {format_val(self.val)})"


RT_ZERO = RT(0, INF)
RT_ONE = RT(1, 0)


def rt(sign: int, val=0) -> RT:
    """Shorthand constructor; ``rt(0)`` is the zero element."""
    return from_sign_val("RT", sign, val)


@dataclass(frozen=True)
class TV:
    """Element of the tropical hyperfield, stored as a valuation."""

    val: Val

    def __post_init__(self):
        object.__setattr__(self, "val", as_val(self.val))

    @property
    def is_zero(self) -> bool:
        return self.val == INF

    def __repr__(self):
        return f"TV({format_val(self.val)})"


TV_ZERO = TV(INF)


@dataclass(frozen=True)
class KV:
    """Element of the Krasner hyperfield, 0 or 1."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("Krasner elements are 0 or 1")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self):
        return f"KV({self.value})"


KV_ZERO = KV(0)
KV_ONE = KV(1)

#: Any hyperfield element.  Sign elements are bare ints in {-1, 0, +1}.
Elem = Union[RT, TV, KV, int]


def field_of(x: Elem) -> str:
    if isinstance(x, RT):
        return "RT"
    if isinstance(x, TV):
        return "T"
    if isinstance(x, KV):
        return "K"
    if type(x) is int and x in (-1, 0, 1):
        return "S"
    raise TypeError(f"not a hyperfield element: {x!r}")


def zero_of(field: str) -> Elem:
    return {"RT": RT_ZERO, "T": TV_ZERO, "K": KV_ZERO, "S": 0}[field]


def sign_val(x: Elem) -> tuple[int, Val]:
    """Read any element as an RT pair (sign, valuation).

    T, S and K are the images of RT under ``abs``, ``sgn`` and
    ``to-krasner``, so each element reads as the pair it keeps: RT as is,
    T as (1, v), S as (s, 0) and K as (1, 0); zero is (0, INF).
    """
    field = field_of(x)
    if field == "RT":
        return x.sign, x.val
    if field == "S":
        return (x, Fraction(0)) if x else (0, INF)
    if x.is_zero:
        return 0, INF
    return 1, (x.val if field == "T" else Fraction(0))


def from_sign_val(field: str, sign: int, val: Val) -> Elem:
    """The element of ``field`` read as (sign, val): the image of that RT
    pair, which keeps only what the field keeps."""
    zero = zero_of(field)
    if sign == 0:
        return zero
    if field == "RT":
        return RT(sign, val)
    if field == "T":
        return TV(val)
    return sign if field == "S" else KV_ONE


def is_zero(x: Elem) -> bool:
    return sign_val(x)[0] == 0


# ---------------------------------------------------------------------------
# Multiplication, negation, division: the RT rule on pairs


def hyper_mul(a: Elem, b: Elem) -> Elem:
    """Hyperfield product.  Zero is absorbing; signs multiply, valuations add."""
    (s, v), (t, w) = sign_val(a), sign_val(b)
    field = field_of(a)
    if field_of(b) != field:
        raise TypeError(f"mixed hyperfield product: {a!r} * {b!r}")
    return from_sign_val(field, s * t, v + w)


def hyper_neg(x: Elem) -> Elem:
    """Additive inverse.  In T and K, -x = x."""
    s, v = sign_val(x)
    return from_sign_val(field_of(x), -s, v)


def hyper_div(a: Elem, b: Elem) -> Elem:
    """Quotient a/b for nonzero b (signs divide, valuations subtract)."""
    (s, v), (t, w) = sign_val(a), sign_val(b)
    if t == 0:
        raise ZeroDivisionError("hyperfield division by zero")
    field = field_of(a)
    if field_of(b) != field:
        raise TypeError(f"mixed hyperfield quotient: {a!r} / {b!r}")
    return from_sign_val(field, s * t, v - w)


# ---------------------------------------------------------------------------
# Hypersums


@dataclass(frozen=True)
class HyperSet:
    """Result of a hypersum: either a single element or a "ball".

    For RT the ball with threshold v is {0} union {x : val(x) >= v, any
    sign}; for T it is {x : val(x) >= v}; for S and K (trivially valued)
    the ball is the whole hyperfield and the threshold is 0.  Folding
    pairwise hypersums over any of the four hyperfields never leaves
    this two-case representation.
    """

    kind: str  # "singleton" | "ball"
    field: str
    element: Elem | None = None
    threshold: Val | None = None

    def __post_init__(self):
        if self.kind not in ("singleton", "ball"):
            raise ValueError(f"bad HyperSet kind {self.kind!r}")
        if self.kind == "singleton":
            if self.element is None or field_of(self.element) != self.field:
                raise ValueError("singleton element/field mismatch")
        else:
            if self.threshold is None:
                raise ValueError("ball needs a threshold")
            object.__setattr__(self, "threshold", as_val(self.threshold))

    def __repr__(self):
        if self.kind == "singleton":
            return f"{{{self.element!r}}}"
        return f"Ball({self.field}, val>={format_val(self.threshold)})"


def singleton(x: Elem) -> HyperSet:
    return HyperSet("singleton", field_of(x), element=x)


def ball(field: str, threshold: Val = 0) -> HyperSet:
    if field in ("S", "K"):
        threshold = Fraction(0)
    return HyperSet("ball", field, threshold=threshold)


def contains_zero(s: HyperSet) -> bool:
    """Zero lies in every ball and in the zero singleton."""
    return s.kind == "ball" or is_zero(s.element)


def hyperset_contains(s: HyperSet, x: Elem) -> bool:
    if field_of(x) != s.field:
        raise TypeError("element from a different hyperfield")
    if s.kind == "singleton":
        return x == s.element
    sign, val = sign_val(x)
    return sign == 0 or val >= s.threshold


def admits_zero(terms, signed: bool) -> bool:
    """Whether the hypersum of nonzero (sign, valuation) terms contains
    zero: there are none, or the least valuation is reached with both
    signs (signed) or by two terms (unsigned)."""
    if not terms:
        return True
    vstar = min(v for _, v in terms)
    at_min = [s for s, v in terms if v == vstar]
    return len(set(at_min)) == 2 if signed else len(at_min) > 1


def hyper_sum(xs: Sequence[Elem]) -> HyperSet:
    """Iterated hypersum of a nonempty list of same-hyperfield elements.

    With v* the least valuation among the nonzero terms, read as RT
    pairs, the sum is the zero singleton if there are no nonzero terms,
    the ball at v* if those terms admit zero (both signs at v* in RT and
    S, two terms at v* in T and K), and otherwise the one term at v*.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("hypersum of an empty list is not defined")
    field = field_of(xs[0])
    if any(field_of(x) != field for x in xs[1:]):
        raise TypeError("hypersum over mixed hyperfields")
    terms = [p for p in map(sign_val, xs) if p[0]]
    if not terms:
        return singleton(zero_of(field))
    sign, vstar = min(terms, key=lambda p: p[1])
    if admits_zero(terms, field in ("RT", "S")):
        return ball(field, vstar)
    return singleton(from_sign_val(field, sign, vstar))


def hyper_add(a: Elem, b: Elem) -> HyperSet:
    """Binary hypersum."""
    return hyper_sum([a, b])


def hyperset_add(A: HyperSet, B: HyperSet) -> HyperSet:
    """Elementwise sum of two hypersets (used to fold sums pairwise).

    The union over a in A, b in B of a + b again has the singleton/ball
    form; this closure is what makes iterated hypersums well defined
    independently of association order.
    """
    if A.field != B.field:
        raise TypeError("hypersets over different hyperfields")
    if A.kind == "singleton" and B.kind == "singleton":
        return hyper_add(A.element, B.element)
    if A.kind == "singleton":
        A, B = B, A
    # A is a ball.
    if B.kind == "ball":
        return ball(A.field, min(A.threshold, B.threshold))
    return A if hyperset_contains(A, B.element) else B


# ---------------------------------------------------------------------------
# Homomorphisms between the four hyperfields

_TARGETS = {"abs": "T", "sgn": "S", "to-krasner": "K"}


def pushmap(name: str, x: Elem) -> Elem:
    """Apply a named hyperfield homomorphism to an element.

    ``abs``: RT -> T drops the sign; ``sgn``: RT -> S drops the
    valuation; ``to-krasner``: any hyperfield -> K sends every nonzero
    element to 1.  Each maps the RT pair of x into its target.
    """
    if name not in _TARGETS:
        raise ValueError(f"unknown homomorphism {name!r}")
    if name != "to-krasner" and not isinstance(x, RT):
        raise TypeError(f"{name} expects an RT element")
    return from_sign_val(_TARGETS[name], *sign_val(x))


def pushmap_target(name: str) -> str:
    return _TARGETS[name]


def pushmap_set(name: str, s: HyperSet) -> HyperSet:
    """Image of a hyperset under a named homomorphism."""
    if s.kind == "singleton":
        return singleton(pushmap(name, s.element))
    return ball(pushmap_target(name), s.threshold)


# ---------------------------------------------------------------------------
# Orders and display


def rt_cmp(a: RT, b: RT) -> int:
    """Total order of RT in the signed multiplicative reading.

    All negatives < 0 < all positives; among positives a smaller
    valuation is the larger element, among negatives the smaller
    valuation is the more negative one.
    """
    if a.sign != b.sign:
        return -1 if a.sign < b.sign else 1
    if a.sign == 0:
        return 0
    if a.val == b.val:
        return 0
    bigger_mag = a.val < b.val
    if a.sign > 0:
        return 1 if bigger_mag else -1
    return -1 if bigger_mag else 1


SIGN_CHARS = {1: "+", 0: "0", -1: "-"}
CHAR_SIGNS = {"+": 1, "0": 0, "-": -1}


def display_rt(x: RT, convention: str = "mult") -> str:
    """Render an RT value; ``mult`` gives the symbolic form +-e^{-v}."""
    if x.sign == 0:
        return "0"
    if convention == "val":
        return f"{SIGN_CHARS[x.sign]}:{format_val(x.val)}"
    s = SIGN_CHARS[x.sign]
    if x.val == 0:
        return f"{s}1"
    return f"{s}e^{{{-x.val}}}"

