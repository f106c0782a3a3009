"""Grassmann-Plucker functions over hyperfields, their axiom checkers,
circuits of realizable matroids, cocircuits, and covector posets.

A ground set is the list of columns of a matrix, indexed 0..m-1; a linear
embedding (``tropical.LinearEmbedding``) is a ground set whose columns
span.  The table of signed valuations of the maximal minors, cached on the
ground set, is the one source for a realizable matroid: its
Grassmann-Plucker function, its bases, and its signed valuated circuits,
which are read off the table one (rank+1)-subset at a time.

The axiom checkers build no hyperfield values.  ``check_gp_relations``
reads every value once as an RT pair (``hyperfields.sign_val``), the
valuations scaled to ints by the lcm of their denominators, and compares
ints with ``hyperfields.admits_zero``.
``check_circuit_axioms`` holds each circuit the same way
(``scaled_rt_vectors``, which also serves
``tropical.linear_space_member``) plus a support bitmask, and finds
elimination candidates as ANDs of per-coordinate bitsets over circuit
positions.

Covectors are stored as (plus, minus) pairs of int bitmasks, and sets of
them as int bitsets over positions.  A ``CovectorPoset`` holds only its
vectors and indexes them once, on first use, as masks, per-coordinate
position bitsets and strictly-above bitsets; its covers, chains,
membership, axiom check and maximal chains all read that one index.
Sign-vector tuples are made only for the public API.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .hyperfields import (
    RT,
    RT_ZERO,
    CHAR_SIGNS,
    SIGN_CHARS,
    Elem,
    admits_zero,
    field_of,
    from_sign_val,
    hyper_neg,
    is_zero,
    pushmap,
    pushmap_target,
    sign_val,
    zero_of,
)
from .puiseux import PuiseuxSeries, as_series, signed_det

SignVector = tuple[int, ...]

DEFAULT_PAIR_CAP = 200_000
DEFAULT_CLOSURE_CAP = 20_000


class EnumerationCapError(RuntimeError):
    """An enumeration stage would take more steps than its cap allows."""

    def __init__(self, required: int, cap: int, stage: str):
        super().__init__(f"{stage} needs {required} steps, cap is {cap}")
        self.required = required
        self.cap = cap
        self.stage = stage


class RankDeficientError(ValueError):
    pass


@dataclass(frozen=True)
class Report:
    """Outcome of an axiom check; violations are JSON-friendly dicts."""

    ok: bool
    violations: tuple[dict, ...] = ()
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Ground sets


@dataclass(frozen=True)
class GroundSet:
    """The columns of a matrix as the ground elements 0..m-1."""

    columns: tuple[tuple[PuiseuxSeries, ...], ...]

    def __post_init__(self):
        cols = tuple(tuple(as_series(x) for x in c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        heights = {len(c) for c in cols}
        if len(heights) > 1:
            raise ValueError("columns of unequal height")

    @classmethod
    def from_matrix(cls, rows):
        """Interpret a row-major matrix as its list of columns."""
        rows = [tuple(as_series(x) for x in row) for row in rows]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        return cls(tuple(zip(*rows)))

    def __len__(self):
        return len(self.columns)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(range(len(self.columns)))

    @property
    def height(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @cached_property
    def minor_table(self) -> dict[tuple[int, ...], RT]:
        """Signed value of every maximal minor, keyed by increasing column
        tuple; computed once per ground set.  Callers check their caps
        before the first read."""
        cols = self.columns
        return {
            tup: signed_det([cols[j] for j in tup])
            for tup in itertools.combinations(range(len(cols)), self.height)
        }


def ground_from_matrix(rows) -> GroundSet:
    """Interpret a row-major matrix as a ground set of column vectors."""
    return GroundSet.from_matrix(rows)


# ---------------------------------------------------------------------------
# Grassmann-Plucker functions


def _perm_sign_and_sorted(tup: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    if len(set(tup)) != len(tup):
        return 0, tup
    inversions = sum(
        1
        for i in range(len(tup))
        for j in range(i + 1, len(tup))
        if tup[i] > tup[j]
    )
    return (-1) ** inversions, tuple(sorted(tup))


@dataclass(frozen=True)
class GrassmannPlucker:
    """Alternating rank-tuple function with values in one hyperfield.

    ``values`` maps strictly increasing index tuples to elements; values
    on arbitrary tuples follow from the alternating rule.
    """

    rank: int
    labels: tuple
    hyperfield: str
    values: dict

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        zero = zero_of(self.hyperfield)
        vals = {}
        nonzero = False
        for tup, v in self.values.items():
            tup = tuple(tup)
            if tuple(sorted(tup)) != tup or len(set(tup)) != len(tup):
                raise ValueError(f"value keys must be strictly increasing, got {tup}")
            if len(tup) != self.rank:
                raise ValueError("tuple length must equal rank")
            if tup[0] < 0 or tup[-1] >= len(self.labels):
                raise ValueError(f"value key {tup} is outside the ground set")
            if field_of(v) != self.hyperfield:
                raise ValueError("value from the wrong hyperfield")
            vals[tup] = v
            nonzero = nonzero or not is_zero(v)
        for tup in itertools.combinations(range(len(self.labels)), self.rank):
            vals.setdefault(tup, zero)
        if not nonzero:
            raise ValueError("Grassmann-Plucker function must not be identically zero")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.labels)

    def value_on(self, tup) -> Elem:
        """Value on an arbitrary tuple via the alternating rule."""
        sgn, key = _perm_sign_and_sorted(tuple(tup))
        if sgn == 0:
            return zero_of(self.hyperfield)
        v = self.values[key]
        return v if sgn > 0 else hyper_neg(v)

    def bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t for t, v in sorted(self.values.items()) if not is_zero(v))


def gp_from_matrix(
    ground: GroundSet, target: str = "RT", tuple_cap: int = DEFAULT_PAIR_CAP
) -> GrassmannPlucker:
    """Signed valuations of maximal minors, pushed into the target hyperfield."""
    values = _spanning_minor_table(ground, tuple_cap)
    if target != "RT":
        values = {tup: from_sign_val(target, *sign_val(sv)) for tup, sv in values.items()}
    return GrassmannPlucker(ground.height, ground.labels, target, values)


def _spanning_minor_table(ground: GroundSet, tuple_cap: int) -> dict:
    """The ground set's minor table, after the rank and cap checks that
    come before any minor is taken."""
    r, m = ground.height, len(ground)
    if r > m:
        raise RankDeficientError("fewer columns than rows, matroid cannot have full rank")
    count = _ncr(m, r)
    if count > tuple_cap:
        raise EnumerationCapError(count, tuple_cap, "minor enumeration")
    table = ground.minor_table
    if all(sv.sign == 0 for sv in table.values()):
        raise RankDeficientError("columns do not span, matroid is rank deficient")
    return table


def _ncr(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def check_gp_relations(
    gp: GrassmannPlucker, pair_cap: int = DEFAULT_PAIR_CAP
) -> Report:
    """Exhaustively verify the three-term exchange relations.

    For every (rank+1)-subset x and (rank-1)-subset y the alternating sum
    of products phi(x minus x_k) * phi(x_k, y) must admit zero: the terms
    are all zero, or the least valuation is reached with both signs (RT
    and S) or by two terms (T and K).  The first failing (x, y), in
    lexicographic order, is reported.

    Each value is read once as a (sign, int) pair (``_scaled_values``).
    The left factors are taken once per x.  The right factor phi(x_k, y)
    is phi at y with x_k inserted at its sorted position p, times (-1)^p,
    and is tabulated once per y and element.
    """
    m, r = len(gp), gp.rank
    npairs = _ncr(m, r + 1) * _ncr(m, r - 1)
    if npairs > pair_cap:
        raise EnumerationCapError(npairs, pair_cap, "relation enumeration")
    table = _scaled_values(gp)
    signed = gp.hyperfield in ("RT", "S")
    ys = list(itertools.combinations(range(m), r - 1))
    rights = []
    for y in ys:
        row = []
        for z in range(m):
            p = bisect.bisect_left(y, z)
            if p < len(y) and y[p] == z:
                row.append((0, 0))
                continue
            s, v = table[y[:p] + (z,) + y[p:]]
            row.append((-s if signed and p % 2 else s, v))
        rights.append(row)
    for x in itertools.combinations(range(m), r + 1):
        lefts = []
        for k, xk in enumerate(x):
            s, v = table[x[:k] + x[k + 1 :]]
            if s:
                lefts.append((xk, -s if signed and k % 2 else s, v))
        for y, row in zip(ys, rights):
            terms = [(s * row[xk][0], v + row[xk][1]) for xk, s, v in lefts if row[xk][0]]
            if not admits_zero(terms, signed):
                return Report(
                    ok=False,
                    violations=({"relation": {"x": list(x), "y": list(y)}},),
                )
    return Report(ok=True, info={"pairs_checked": npairs})


def _scaled_values(gp: GrassmannPlucker) -> dict[tuple[int, ...], tuple[int, int]]:
    """Every value of gp read as an RT pair (``sign_val``), the valuations
    scaled to ints by the lcm of their denominators; zero is (0, 0)."""
    pairs = {t: sign_val(v) for t, v in gp.values.items()}
    scale = math.lcm(1, *(v.denominator for s, v in pairs.values() if s))
    return {t: (s, _scaled(v, scale)) if s else (0, 0) for t, (s, v) in pairs.items()}


def _scaled(val: Fraction, scale: int) -> int:
    return val.numerator * (scale // val.denominator)


def pushforward_gp(
    gp: GrassmannPlucker, hom: str, pair_cap: int = DEFAULT_PAIR_CAP
) -> GrassmannPlucker:
    """Apply a hyperfield homomorphism pointwise to the value table, and
    check the exchange relations of the result."""
    target = pushmap_target(hom)
    values = {t: pushmap(hom, v) for t, v in gp.values.items()}
    out = GrassmannPlucker(gp.rank, gp.labels, target, values)
    rep = check_gp_relations(out, pair_cap=pair_cap)
    if not rep.ok:
        raise ValueError(f"pushforward is not a Grassmann-Plucker function: {rep.violations}")
    return out


# ---------------------------------------------------------------------------
# Signed valuated circuits


def normalize_rt_vector(entries) -> tuple[RT, ...]:
    """Scale so the smallest-index nonzero entry becomes (+, 0)."""
    entries = tuple(entries)
    lead = next((x for x in entries if x.sign != 0), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    return tuple(
        RT_ZERO if x.sign == 0 else RT(x.sign * lead.sign, x.val - lead.val)
        for x in entries
    )


@dataclass(frozen=True)
class SignedCircuit:
    """Normalized representative of a scaling class of RT vectors."""

    entries: tuple[RT, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", normalize_rt_vector(self.entries))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.entries) if x.sign != 0)

    def sign_vector(self) -> SignVector:
        return tuple(x.sign for x in self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"SignedCircuit({list(self.entries)!r})"


def circuits_from_matrix(
    ground: GroundSet, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignedCircuit, ...]:
    """One normalized circuit per minimal dependent set of columns.

    The circuits are read off the maximal-minor table phi.  For an
    (r+1)-subset tau of the columns, Cramer's rule says the vector putting
    (-1)^k phi(tau minus tau_k) at tau_k is a linear dependence among the
    columns in tau.  When tau contains a basis the vector is nonzero and
    supported on the unique circuit inside tau; every circuit arises this
    way, from any basis completed by one of its elements.  Circuits come
    sorted by support size, then support.  ``cap`` bounds both the
    (r+1)-subsets and the minors, and is checked before either is taken.
    """
    m, r = len(ground), ground.height
    count = _ncr(m, r + 1)
    if count > cap:
        raise EnumerationCapError(count, cap, "circuit enumeration")
    try:
        phi = _spanning_minor_table(ground, cap)
    except RankDeficientError:
        raise RankDeficientError("columns do not span") from None
    by_support = {}
    for tau in itertools.combinations(range(m), r + 1):
        entries = [RT_ZERO] * m
        for k, e in enumerate(tau):
            v = phi[tau[:k] + tau[k + 1 :]]
            entries[e] = hyper_neg(v) if k % 2 else v
        if any(x.sign != 0 for x in entries):
            c = SignedCircuit(tuple(entries))
            by_support.setdefault(c.support, c)
    return tuple(by_support[s] for s in sorted(by_support, key=lambda s: (len(s), s)))


def check_circuit_axioms(circuits) -> Report:
    """Verify the circuit description of an RT-matroid on a finite set.

    Checks: no zero vector (C0); normalization of every representative
    (C1; the scaling axiom is then structural); incomparable supports
    between distinct classes (C2); valuated elimination between every
    matched rescaling pair (C3); and reports the largest subset containing
    no circuit support, which is the rank witness for the finite-rank
    axiom.

    Each circuit is held as a sign list, a list of valuations scaled to
    ints by the lcm of all denominators, and a support bitmask; sets of
    circuits are int bitsets over list positions, nonzero_at[g] holding
    the circuits nonzero at g.  C3 takes each ordered pair (A, C) and
    shared element e, rescales C to C' with C'_e = -A_e, and tabulates
    A_g + C'_g once per coordinate: its least valuation, and the sign when
    it is a singleton.  For each f with val A_f < val C'_f the candidates
    D are zero at e and nonzero at f; D rescaled to agree with A at f must
    lie in A_g + C'_g at every g, which only needs a test on the support
    of D.
    """
    circuits = tuple(circuits)
    if not circuits:
        return Report(ok=True, info={"max_independent": None})
    m = len(circuits[0])
    if any(len(c) != m for c in circuits):
        raise ValueError("circuits of unequal length")
    signs, vals, _ = scaled_rt_vectors(c.entries for c in circuits)
    supports = [sum(1 << g for g, s in enumerate(sg) if s) for sg in signs]
    nonzero_at = [0] * m
    for i, mask in enumerate(supports):
        for g in _bits(mask):
            nonzero_at[g] |= 1 << i
    violations: list[dict] = []

    for i, mask in enumerate(supports):
        if not mask:
            violations.append({"axiom": "C0", "circuit": i})
            continue
        lead = (mask & -mask).bit_length() - 1
        if (signs[i][lead], vals[i][lead]) != (1, 0):
            violations.append({"axiom": "C1", "circuit": i})

    for i, j in itertools.combinations(range(len(circuits)), 2):
        both = supports[i] & supports[j]
        if both in (supports[i], supports[j]):
            if signs[i] != signs[j] or vals[i] != vals[j]:
                violations.append({"axiom": "C2", "pair": [i, j]})

    for i, j in itertools.permutations(range(len(circuits)), 2):
        sa, va, ma = signs[i], vals[i], supports[i]
        sc, vc, mc = signs[j], vals[j], supports[j]
        outside = ~(ma | mc)
        for e in _bits(ma & mc):
            beta_sign, beta_val = -sa[e] * sc[e], va[e] - vc[e]
            # C'_g = (beta_sign * sc[g], vc[g] + beta_val) on the support of C
            thr, sgn = list(va), list(sa)
            for g in _bits(mc):
                cs, cv = beta_sign * sc[g], vc[g] + beta_val
                if not sa[g] or cv < va[g]:
                    thr[g], sgn[g] = cv, cs
                elif cv == va[g] and cs != sa[g]:
                    sgn[g] = 0
            for f in _bits(ma):
                if mc >> f & 1 and va[f] >= vc[f] + beta_val:
                    continue
                if not any(
                    _eliminates(signs[d], vals[d], supports[d], sa[f], va[f], f, thr, sgn)
                    for d in _bits(nonzero_at[f] & ~nonzero_at[e])
                    if not supports[d] & outside
                ):
                    violations.append({"axiom": "C3", "pair": [i, j], "e": e, "f": f})

    max_ind = _max_independent(m, supports, exhaustive=bool(violations))
    return Report(
        ok=not violations,
        violations=tuple(violations),
        info={"max_independent": max_ind},
    )


def scaled_rt_vectors(vectors) -> tuple[list[list[int]], list[list[int]], int]:
    """RT vectors as sign lists and int valuation lists, with their scale.

    Every finite valuation is scaled to an int by one lcm of all their
    denominators, the third value returned; a zero entry reads (0, 0).
    Comparing and adding the ints is comparing and adding the valuations.
    """
    vectors = [tuple(v) for v in vectors]
    scale = math.lcm(1, *(x.val.denominator for v in vectors for x in v if x.sign))
    signs = [[x.sign for x in v] for v in vectors]
    vals = [[_scaled(x.val, scale) if x.sign else 0 for x in v] for v in vectors]
    return signs, vals, scale


def _eliminates(sd, vd, md: int, af_sign: int, af_val: int, f: int, thr, sgn) -> bool:
    """Whether D, rescaled to equal A at f, lies in A_g + C'_g at every g of
    its support; thr and sgn tabulate that sum (sign 0 for a ball)."""
    gamma_sign, shift = af_sign * sd[f], af_val - vd[f]
    for g in _bits(md):
        v, t = vd[g] + shift, thr[g]
        if v < t or v == t and sgn[g] and gamma_sign * sd[g] != sgn[g]:
            return False
    return True


def _max_independent(m: int, masks, exhaustive: bool) -> int:
    """Size of a largest subset of 0..m-1 containing no mask.

    When the circuit axioms hold, the masks are the circuits of a matroid,
    so the greedy independent set is a basis and has the largest size.
    Otherwise every subset is tried, within DEFAULT_PAIR_CAP subsets.
    """
    if not exhaustive:
        chosen = 0
        for e in range(m):
            trial = chosen | 1 << e
            if all(mask & trial != mask for mask in masks):
                chosen = trial
        return chosen.bit_count()
    if 1 << m > DEFAULT_PAIR_CAP:
        raise EnumerationCapError(1 << m, DEFAULT_PAIR_CAP, "independent-set search")
    best = 0
    for subset in range(1 << m):
        size = subset.bit_count()
        if size <= best:
            continue
        if all(mask & subset != mask for mask in masks):
            best = size
    return best


# ---------------------------------------------------------------------------
# Cocircuits


def cocircuits_from_gp(
    gp: GrassmannPlucker, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignVector, ...]:
    """Sign vectors e -> sgn phi(mu, e) over all (rank-1)-subsets mu,
    closed under negation, with zero vectors removed."""
    if gp.hyperfield not in ("S", "RT"):
        raise ValueError("cocircuits need a sign or real tropical chirotope")
    m, r = len(gp), gp.rank
    count = _ncr(m, r - 1)
    if count > cap:
        raise EnumerationCapError(count, cap, "cocircuit enumeration")
    seen: set[SignVector] = set()
    for mu in itertools.combinations(range(m), r - 1):
        X = tuple(sign_val(gp.value_on(mu + (e,)))[0] for e in range(m))
        if any(X):
            seen.add(X)
            seen.add(tuple(-x for x in X))
    return tuple(sorted(seen))


def rt_cocircuits_from_gp(
    gp: GrassmannPlucker, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignedCircuit, ...]:
    """Normalized RT cocircuit vectors of a real tropical chirotope."""
    if gp.hyperfield != "RT":
        raise ValueError("expected a real tropical chirotope")
    m, r = len(gp), gp.rank
    count = _ncr(m, r - 1)
    if count > cap:
        raise EnumerationCapError(count, cap, "cocircuit enumeration")
    seen = {}
    for mu in itertools.combinations(range(m), r - 1):
        entries = tuple(gp.value_on(mu + (e,)) for e in range(m))
        if any(x.sign != 0 for x in entries):
            c = SignedCircuit(entries)
            seen[c.entries] = c
    return tuple(seen[k] for k in sorted(seen, key=_rt_vec_key))


def _rt_vec_key(entries):
    return tuple((x.sign, x.val) for x in entries)


# ---------------------------------------------------------------------------
# Covectors
#
# Inside this section a sign vector is a pair of int bitmasks (plus, minus),
# bit e set where entry e is +1 or -1, so X o Y is
# (p1 | p2 & ~m1, m1 | m2 & ~p1) and the separation set is
# p1 & m2 | m1 & p2.  A set of vectors from a list is an int bitset over
# their positions; the vectors above X are those with the sign of X at
# every coordinate of its support, an AND of per-coordinate bitsets.
# Tuples appear only at the API edge.


def compose_sv(X: SignVector, Y: SignVector) -> SignVector:
    return tuple(x if x != 0 else y for x, y in zip(X, Y))


def leq_sv(X: SignVector, Y: SignVector) -> bool:
    """X below Y: Y keeps every sign of X and may fill in zeros."""
    return all(x == 0 or x == y for x, y in zip(X, Y))


def separation_set(X: SignVector, Y: SignVector) -> tuple[int, ...]:
    return tuple(e for e, (x, y) in enumerate(zip(X, Y)) if x != 0 and x == -y)


def _masks(X: SignVector) -> tuple[int, int]:
    plus = minus = 0
    for e, x in enumerate(X):
        if x == 1:
            plus |= 1 << e
        elif x == -1:
            minus |= 1 << e
        elif x != 0:
            raise ValueError(f"sign vector entries must be -1, 0 or 1, got {x!r}")
    return plus, minus


def _mask_pairs(vectors) -> tuple[int, list[tuple[int, int]]]:
    """Common length and (plus, minus) masks of a list of sign vectors."""
    width = len(vectors[0]) if vectors else 0
    if any(len(v) != width for v in vectors):
        raise ValueError("sign vectors of unequal length")
    return width, [_masks(v) for v in vectors]


def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _positions(masks, width: int) -> tuple[list[int], list[int], list[int]]:
    """Per coordinate, the bitsets of the positions of the vectors that are
    +, - and 0 there."""
    plus_at = [0] * width
    minus_at = [0] * width
    for i, (p, m) in enumerate(masks):
        for e in _bits(p):
            plus_at[e] |= 1 << i
        for e in _bits(m):
            minus_at[e] |= 1 << i
    every = (1 << len(masks)) - 1
    zero_at = [every & ~(plus_at[e] | minus_at[e]) for e in range(width)]
    return plus_at, minus_at, zero_at


def _agreeing(at, among: int, plus: int, minus: int) -> int:
    """The positions in among whose vectors are + on plus and - on minus;
    at is the result of _positions."""
    plus_at, minus_at, _ = at
    for e in _bits(plus):
        among &= plus_at[e]
    for e in _bits(minus):
        among &= minus_at[e]
    return among


@dataclass(frozen=True)
class CovectorPoset:
    """Equally long sign vectors, ordered by ``leq_sv``, repeats allowed.
    All else is derived from the vectors once and cached; a vector is
    never strictly above its copies."""

    vectors: tuple[SignVector, ...]

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, X: SignVector) -> bool:
        return X in self._index

    @property
    def width(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    @cached_property
    def _index(self) -> dict[SignVector, int]:
        return {v: i for i, v in enumerate(self.vectors)}

    @cached_property
    def _pairs(self) -> list[tuple[int, int]]:
        return _mask_pairs(self.vectors)[1]

    @cached_property
    def _copies(self) -> dict[tuple[int, int], int]:
        """Per (plus, minus) pair, the bitset of the positions holding it."""
        copies: dict[tuple[int, int], int] = {}
        for i, pm in enumerate(self._pairs):
            copies[pm] = copies.get(pm, 0) | 1 << i
        return copies

    @cached_property
    def _at(self) -> tuple[list[int], list[int], list[int]]:
        return _positions(self._pairs, self.width)

    @cached_property
    def _above(self) -> list[int]:
        """Per position, the bitset of the positions whose vectors lie
        strictly above its vector."""
        every = (1 << len(self.vectors)) - 1
        return [_agreeing(self._at, every & ~self._copies[pm], *pm) for pm in self._pairs]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j), in increasing order, where vectors[j] covers
        vectors[i]: j is above i but above no other position above i."""
        up = self._above
        covers = []
        for i, above in enumerate(up):
            beyond = 0
            for k in _bits(above):
                beyond |= up[k]
            covers.extend((i, j) for j in _bits(above & ~beyond))
        return tuple(covers)

    def chains(self) -> tuple[tuple[int, ...], ...]:
        """Every nonempty chain of nonzero covectors, as index tuples,
        ordered by length and then lexicographically.

        The chains of one length are extended in order, each by the
        positions above its last element in increasing order, so every
        level comes out sorted.
        """
        above = [list(_bits(up)) for up in self._above]
        out: list[tuple[int, ...]] = []
        level = [(i,) for i, (p, m) in enumerate(self._pairs) if p | m]
        while level:
            out.extend(level)
            level = [c + (j,) for c in level for j in above[c[-1]]]
        return tuple(out)

    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains()), default=0)

    def maximal_chains(self, chains) -> tuple[tuple[int, ...], ...]:
        """The given chains, increasing index tuples of nonzero vectors, that
        no other nonzero vector extends below the first element, above the
        last or between two neighbours.  above[i] is the strictly-above
        bitset plus the copies of vector i, below is its transpose; a chain
        is strictly increasing, so its own positions never qualify."""
        copies = self._copies
        above = [
            up | copies[pm] & ~(1 << i)
            for i, (up, pm) in enumerate(zip(self._above, self._pairs))
        ]
        below = [0] * len(above)
        for i, up in enumerate(above):
            for j in _bits(up):
                below[j] |= 1 << i
        nonzero = sum(1 << i for i, (p, m) in enumerate(self._pairs) if p | m)

        def extendable(chain):
            if below[chain[0]] & nonzero or above[chain[-1]]:
                return True
            return any(above[a] & below[b] for a, b in zip(chain, chain[1:]))

        return tuple(c for c in chains if not extendable(c))


def covector_closure(
    cocircuits, cap: int = DEFAULT_CLOSURE_CAP
) -> CovectorPoset:
    """Smallest composition-closed set containing zero and the cocircuits.

    Composition is associative and the zero vector is its identity, so
    every element of the composition-closed set generated by the cocircuits
    is a finite composition g1 o g2 o ... o gk of cocircuits (Bjorner, Las
    Vergnas, Sturmfels, White and Ziegler, Oriented Matroids, 3.7).  Read
    left to right, each step of such a product composes a vector already
    found with one generator.  So the breadth-first search composes each
    new vector X only with the generators, as X o g, never with the other
    vectors found.  The cap is checked each time a vector is added.  Any
    list of equally long sign vectors may serve as the generators.
    """
    width, gens = _mask_pairs([tuple(c) for c in cocircuits])
    gens = list(dict.fromkeys(gens))
    current = {(0, 0), *gens}
    frontier = gens
    while frontier:
        fresh = []
        for p1, m1 in frontier:
            for p2, m2 in gens:
                Z = (p1 | p2 & ~m1, m1 | m2 & ~p1)
                if Z not in current:
                    current.add(Z)
                    fresh.append(Z)
                    if len(current) > cap:
                        raise EnumerationCapError(len(current), cap, "covector closure")
        frontier = fresh
    vectors = tuple(
        sorted(
            tuple(1 if p >> e & 1 else -1 if m >> e & 1 else 0 for e in range(width))
            for p, m in current
        )
    )
    return CovectorPoset(vectors)


def check_covector_axioms(poset) -> Report:
    """Symmetry, composition closure, and elimination for a covector set.

    Takes a poset or any list of equally long sign vectors, repeats
    allowed; violations are reported in the order of that list.  The work
    on a valid set is per support class, not per pair of vectors.

    Composition (Cov3): X o Y is X plus Y restricted to the zero set z of
    X, so X passes iff X + r is a vector for every distinct restriction r
    of the vectors to z.  The restrictions are built once per distinct z,
    and only the X that fail are scanned pair by pair.

    Elimination (Cov4): for each e separating X and Y, some vector is 0 at
    e and agrees with T = X o Y off the separation set S = S(X, Y).  The
    outcome depends only on the key (T off S, S).  When Cov3 holds, these
    keys are exactly the keys (U off S(U, V), S(U, V)) of the pairs of
    distinct vectors U, V with equal support:
    - for X, Y with S nonempty, U = X o Y and V = Y o X are vectors by
      Cov3.  Both have support supp X | supp Y, and U and V are opposite
      on S and equal off it, so S(U, V) = S and U off S = T off S;
    - two distinct vectors U, V with equal support differ only by opposite
      signs, so S(U, V) is nonempty, U o V = U and V o U = V, and U and V
      agree off S(U, V): their pair has the key (U off S(U, V), S(U, V)),
      whichever of them comes first in the list.
    So if Cov3 holds and every equal-support key passes, Cov4 holds.
    Otherwise the loop over the pairs of the list decides, and it alone
    writes Cov4 violations.
    """
    if not isinstance(poset, CovectorPoset):
        poset = CovectorPoset(tuple(poset))
    if not poset.vectors:
        return Report(ok=False, violations=({"axiom": "Cov1"},))
    masks, vecset = poset._pairs, poset._copies
    unsymmetric = [i for i, (p, m) in enumerate(masks) if (m, p) not in vecset]
    uncomposable = _uncomposable(vecset, (1 << poset.width) - 1)
    certified = not uncomposable and _eliminations_certified(poset)
    if (0, 0) in vecset and not unsymmetric and certified:
        return Report(ok=True)
    names = [sign_vector_str(X) for X in poset.vectors]
    violations: list[dict] = []
    if (0, 0) not in vecset:
        violations.append({"axiom": "Cov1"})
    violations.extend({"axiom": "Cov2", "vector": names[i]} for i in unsymmetric)
    for (p1, m1), xname in zip(masks, names):
        if (p1, m1) not in uncomposable:
            continue
        for (p2, m2), yname in zip(masks, names):
            if (p1 | p2 & ~m1, m1 | m2 & ~p1) not in vecset:
                violations.append({"axiom": "Cov3", "pair": [xname, yname]})
    if not certified:
        violations.extend(_elimination_violations(poset, names))
    return Report(ok=not violations, violations=tuple(violations))


def _uncomposable(pairs, full: int) -> set[tuple[int, int]]:
    """The (plus, minus) pairs X among pairs for which some X o Y, Y among
    pairs, is not among pairs; full is the mask of every coordinate."""
    restrictions: dict[int, set[tuple[int, int]]] = {}
    failing = set()
    for p1, m1 in pairs:
        zero = full & ~(p1 | m1)
        found = restrictions.get(zero)
        if found is None:
            found = restrictions[zero] = {(p2 & zero, m2 & zero) for p2, m2 in pairs}
        for p2, m2 in found:
            if (p1 | p2, m1 | m2) not in pairs:
                failing.add((p1, m1))
                break
    return failing


def _eliminations_certified(poset) -> bool:
    """Whether every elimination key of a pair of distinct vectors with
    equal support passes; each distinct key is evaluated once."""
    by_support: dict[int, list[tuple[int, int]]] = {}
    for p, m in poset._copies:
        by_support.setdefault(p | m, []).append((p, m))
    at, every, width = poset._at, (1 << len(poset)) - 1, poset.width
    seen = set()
    for group in by_support.values():
        for i, (p1, m1) in enumerate(group):
            for p2, m2 in group[i + 1 :]:
                sep = p1 & m2 | m1 & p2
                key = (p1 & ~sep, m1 & ~sep, sep)
                if key in seen:
                    continue
                seen.add(key)
                if _elimination_gaps(at, every, width, *key):
                    return False
    return True


def _elimination_violations(poset, names) -> list[dict]:
    """Cov4 violations, pair by pair in list order.  T = X o Y agrees with
    Y o X off S, so unordered pairs suffice, and the outcome depends only on
    the key (T off S, S), which many pairs share."""
    masks, at = poset._pairs, poset._at
    every, width = (1 << len(masks)) - 1, poset.width
    unmet: dict[tuple[int, int, int], list[int]] = {}
    violations = []
    for xi, (p1, m1) in enumerate(masks):
        for yi in range(xi + 1, len(masks)):
            p2, m2 = masks[yi]
            sep = p1 & m2 | m1 & p2
            if not sep:
                continue
            key = ((p1 | p2 & ~m1) & ~sep, (m1 | m2 & ~p1) & ~sep, sep)
            missing = unmet.get(key)
            if missing is None:
                missing = unmet[key] = _elimination_gaps(at, every, width, *key)
            for e in missing:
                violations.append({"axiom": "Cov4", "pair": [names[xi], names[yi]], "e": e})
    return violations


def _elimination_gaps(at, every: int, width: int, plus: int, minus: int, sep: int) -> list[int]:
    """The e in sep for which no vector is 0 at e and + on plus, - on minus
    and 0 off plus, minus and sep; at is the result of _positions and every
    the bitset of all positions."""
    plus_at, minus_at, zero_at = at
    agree = every
    separated = []
    for g in range(width):
        if sep >> g & 1:
            separated.append(g)
        elif plus >> g & 1:
            agree &= plus_at[g]
        elif minus >> g & 1:
            agree &= minus_at[g]
        else:
            agree &= zero_at[g]
    return [e for e in separated if not agree & zero_at[e]]


def covector_zero_flat(X: SignVector, gp: GrassmannPlucker) -> tuple[int, ...]:
    """Zero set of a covector, certified to be a flat of the matroid whose
    bases are the support of gp: no other element keeps its rank."""
    if len(X) != len(gp):
        raise ValueError("covector and ground set have different lengths")
    zset = {e for e, x in enumerate(X) if x == 0}
    bases = [set(b) for b in gp.bases()]

    def rank(s: set) -> int:
        return max(len(s & b) for b in bases)

    r = rank(zset)
    closure = {e for e in range(len(gp)) if e in zset or rank(zset | {e}) == r}
    if closure != zset:
        raise ValueError(f"zero set {tuple(sorted(zset))} is not a flat; not a covector")
    return tuple(sorted(zset))


def sign_vector_str(X: SignVector) -> str:
    return "".join(SIGN_CHARS[x] for x in X)


def parse_sign_vector(s: str) -> SignVector:
    try:
        return tuple(CHAR_SIGNS[ch] for ch in s.strip())
    except KeyError as exc:
        raise ValueError(f"bad sign vector {s!r}") from exc
