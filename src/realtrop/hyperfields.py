"""Elements and multivalued addition for four hyperfields: the Krasner
hyperfield K, the sign hyperfield S, the tropical hyperfield T, and the
real tropical hyperfield RT.

Magnitudes are stored additively, as valuations: a nonzero element of
magnitude m corresponds to the valuation v = -log m, so a *larger*
magnitude means a *smaller* valuation.  Valuations are exact rationals,
with ``INF`` standing in for the valuation of zero.  Every comparison in
the multiplicative language is translated once, here, into the valuation
convention; the rest of the package never converts back to floats.

Sign-hyperfield elements are plain ints in {-1, 0, +1}.  Tropical and
Krasner elements are tiny wrapper types so that the generic operations
can dispatch on the element type.
"""

from __future__ import annotations

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


def parse_val(text: str) -> Val:
    text = text.strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    return Fraction(text)


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
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        object.__setattr__(self, "val", as_val(self.val))
        if (self.sign == 0) != (self.val is INF):
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
    if sign == 0:
        return RT_ZERO
    return RT(sign, val)


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
    if isinstance(x, int) and x in (-1, 0, 1):
        return "S"
    raise TypeError(f"not a hyperfield element: {x!r}")


def zero_of(field: str) -> Elem:
    return {"RT": RT_ZERO, "T": TV_ZERO, "K": KV_ZERO, "S": 0}[field]


def is_zero(x: Elem) -> bool:
    return x == 0 if isinstance(x, int) else x.is_zero


# ---------------------------------------------------------------------------
# Multiplication, negation, division


def hyper_mul(a: Elem, b: Elem) -> Elem:
    """Hyperfield product.  Zero is absorbing; signs multiply, valuations add."""
    if isinstance(a, RT) and isinstance(b, RT):
        if a.sign == 0 or b.sign == 0:
            return RT_ZERO
        return RT(a.sign * b.sign, a.val + b.val)
    if isinstance(a, TV) and isinstance(b, TV):
        return TV(a.val + b.val) if not (a.is_zero or b.is_zero) else TV_ZERO
    if isinstance(a, KV) and isinstance(b, KV):
        return KV(a.value * b.value)
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    raise TypeError(f"mixed hyperfield product: {a!r} * {b!r}")


def hyper_neg(x: Elem) -> Elem:
    """Additive inverse.  In T and K, -x = x."""
    if isinstance(x, RT):
        return -x
    if isinstance(x, int):
        return -x
    return x


def hyper_div(a: Elem, b: Elem) -> Elem:
    """Quotient a/b for nonzero b (signs divide, valuations subtract)."""
    if is_zero(b):
        raise ZeroDivisionError("hyperfield division by zero")
    if isinstance(a, RT) and isinstance(b, RT):
        if a.sign == 0:
            return RT_ZERO
        return RT(a.sign * b.sign, a.val - b.val)
    if isinstance(a, TV) and isinstance(b, TV):
        return TV_ZERO if a.is_zero else TV(a.val - b.val)
    if isinstance(a, KV) and isinstance(b, KV):
        return a
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    raise TypeError(f"mixed hyperfield quotient: {a!r} / {b!r}")


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
    if s.kind == "ball":
        return True
    return is_zero(s.element)


def hyperset_contains(s: HyperSet, x: Elem) -> bool:
    if field_of(x) != s.field:
        raise TypeError("element from a different hyperfield")
    if s.kind == "singleton":
        return x == s.element
    if s.field in ("S", "K"):
        return True
    if is_zero(x):
        return True
    v = x.val if isinstance(x, (RT, TV)) else None
    return v >= s.threshold


def hyper_sum(xs: Sequence[Elem]) -> HyperSet:
    """Iterated hypersum of a nonempty list of same-hyperfield elements.

    For RT: with v* the least valuation among nonzero terms, the sum is
    the zero singleton if there are no nonzero terms, the singleton
    (s, v*) if every valuation-v* term has sign s, and the ball at v*
    otherwise.  T is the sign-free analogue; S and K are the trivially
    valued cases.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("hypersum of an empty list is not defined")
    field = field_of(xs[0])
    for x in xs[1:]:
        if field_of(x) != field:
            raise TypeError("hypersum over mixed hyperfields")

    if field == "RT":
        vstar: Val = INF
        signs: set[int] = set()
        for x in xs:
            if x.sign == 0:
                continue
            if x.val < vstar:
                vstar, signs = x.val, {x.sign}
            elif x.val == vstar:
                signs.add(x.sign)
        if not signs:
            return singleton(RT_ZERO)
        if len(signs) == 1:
            return singleton(RT(signs.pop(), vstar))
        return ball("RT", vstar)

    if field == "T":
        vstar = INF
        count = 0
        for x in xs:
            if x.is_zero:
                continue
            if x.val < vstar:
                vstar, count = x.val, 1
            elif x.val == vstar:
                count += 1
        if count == 0:
            return singleton(TV_ZERO)
        if count == 1:
            return singleton(TV(vstar))
        return ball("T", vstar)

    if field == "S":
        signs = {x for x in xs if x != 0}
        if not signs:
            return singleton(0)
        if len(signs) == 1:
            return singleton(signs.pop())
        return ball("S")

    ones = sum(1 for x in xs if x.value == 1)
    if ones == 0:
        return singleton(KV_ZERO)
    if ones == 1:
        return singleton(KV_ONE)
    return ball("K")


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
        if A.field in ("S", "K"):
            return A
        return ball(A.field, min(A.threshold, B.threshold))
    x = B.element
    if A.field in ("S", "K"):
        return A
    if is_zero(x) or x.val >= A.threshold:
        return A
    return singleton(x)


# ---------------------------------------------------------------------------
# Homomorphisms between the four hyperfields

def pushmap(name: str, x: Elem) -> Elem:
    """Apply a named hyperfield homomorphism to an element.

    ``abs``: RT -> T drops the sign; ``sgn``: RT -> S drops the
    valuation; ``to-krasner``: any hyperfield -> K sends every nonzero
    element to 1.
    """
    if name == "abs":
        if not isinstance(x, RT):
            raise TypeError("abs expects an RT element")
        return TV(x.val)
    if name == "sgn":
        if not isinstance(x, RT):
            raise TypeError("sgn expects an RT element")
        return x.sign
    if name == "to-krasner":
        field_of(x)
        return KV_ZERO if is_zero(x) else KV_ONE
    raise ValueError(f"unknown homomorphism {name!r}")


def pushmap_target(name: str) -> str:
    return {"abs": "T", "sgn": "S", "to-krasner": "K"}[name]


def pushmap_set(name: str, s: HyperSet) -> HyperSet:
    """Image of a hyperset under a named homomorphism."""
    if s.kind == "singleton":
        return singleton(pushmap(name, s.element))
    if name == "abs":
        return ball("T", s.threshold)
    return ball(pushmap_target(name))


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


def rt_to_json(x: RT) -> dict:
    return {"sign": SIGN_CHARS[x.sign], "val": format_val(x.val)}


def rt_from_json(obj) -> RT:
    if isinstance(obj, dict):
        sign, val = obj["sign"], obj["val"]
    elif isinstance(obj, (list, tuple)) and len(obj) == 2:
        sign, val = obj
    else:
        raise ValueError(f"cannot read RT value from {obj!r}")
    s = CHAR_SIGNS[sign] if isinstance(sign, str) else int(sign)
    return RT_ZERO if s == 0 else RT(s, parse_val(val) if isinstance(val, str) else val)


def hyperset_to_json(s: HyperSet) -> dict:
    if s.kind == "ball":
        return {"kind": "ball", "field": s.field, "val": format_val(s.threshold)}
    out = {"kind": "singleton", "field": s.field}
    x = s.element
    if s.field == "RT":
        out["value"] = rt_to_json(x)
    elif s.field == "T":
        out["value"] = format_val(x.val)
    elif s.field == "S":
        out["value"] = SIGN_CHARS[x]
    else:
        out["value"] = x.value
    return out
