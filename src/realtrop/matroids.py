"""Grassmann-Plucker functions over hyperfields, their axiom checkers,
circuits of realizable matroids, cocircuits, and covector posets.

A linear embedding (``LinearEmbedding``) is the columns of a matrix, the
ground elements 0..m-1, and they must span.  Construction checks that
once: equal heights, at least one column, at most
``puiseux.DET_SIZE_BOUND`` rows (as the minors need), and then the rank
(``puiseux.column_rank``: one assignment on the leading terms, and one
elimination only when that leaves the rank open), which must be the
height, or else it raises ``RankDeficientError``.  ``apply``
evaluates each functional as one ``puiseux.dot``.
Value tables are held in one scaled form: (sign, k) int pairs,
valuation k/scale and zero (0, 0), keyed by increasing tuples, with their
scale.  The minor table of an embedding, certified in that form from the
leading terms of its columns (``puiseux.maximal_minors``) and cached,
is the one source for a realizable matroid; a ``GrassmannPlucker`` reads
its values into that form once (``scaled_table``).  Circuits and
cocircuits are the two row families of a table (``_circuit_rows``, and
``cocircuit_rows``, cached on the function), the only loops over
(rank+-1)-subsets here; ``check_gp_relations`` is their orthogonality,
and the supports of the cocircuit rows decide the flats of
``covector_zero_flat``.
Vectors are normalized, deduplicated and sorted as int pairs, and RT
values are made only for the distinct vectors returned.  The axiom
checkers build no hyperfield values.  A ``GrassmannPlucker`` made by
``gp_from_matrix`` is handed the minor table's pairs as its
``scaled_table`` and never reads its values back.
``check_circuit_axioms`` holds each circuit as int pairs too
(``scaled_rt_vectors``, which also serves
``tropical.linear_space_member``), with its support as a tuple of
positions and a bitmask, and finds elimination candidates as ANDs of
per-coordinate bitsets over circuit positions.  Its C3 check builds one
sum table per unordered circuit pair and shared element, which decides
both orders and reports each violation under its ordered pair.

Covectors are stored as (plus, minus) pairs of int bitmasks, and sets of
them as int bitsets over positions.  A ``CovectorPoset`` holds only its
vectors and indexes them once, on first use: their masks (handed over by
``covector_closure``, which found them, and otherwise read from the
vectors), the positions of each distinct vector (``mask_index``),
per-coordinate position bitsets, per-vector coordinate lists, and the
strictly-above bitsets with their position lists.  Its covers, chains,
chain count, maximal chains, axiom check and ``tropical.bergman_member``
all read that one index.  Cov3 is decided by counting, per vector, the
distinct restrictions to its zero set against the distinct vectors above
it, and Cov4 at the single sign flips within each support class and at
the pairs no flip shortens.  Sign-vector tuples are made only for the
public API.
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
    SIGN_CHARS,
    admits_zero,
    field_of,
    from_sign_val,
    is_zero,
    kept_pair,
    pushmap,
    pushmap_target,
    sign_val,
    unchecked_rt,
    zero_of,
)
from .puiseux import (
    PuiseuxSeries,
    as_series,
    check_det_size,
    column_rank,
    dot,
    maximal_minors,
)

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
# Linear embeddings


@dataclass(frozen=True)
class LinearEmbedding:
    """The columns of a matrix, the functionals of a linear embedding, as
    the ground elements 0..m-1.  They span the dual space, so the maximal
    minors they cache (``minor_table``) give a realizable matroid."""

    columns: tuple[tuple[PuiseuxSeries, ...], ...]

    def __post_init__(self):
        cols = tuple(tuple(as_series(x) for x in c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        if len({len(c) for c in cols}) > 1:
            raise ValueError("columns of unequal height")
        if not cols:
            raise ValueError("embedding needs at least one column")
        check_det_size(self.height)
        if column_rank(cols) != self.height:
            raise RankDeficientError("columns do not span")

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
        return len(self.columns[0])

    def ground(self) -> LinearEmbedding:
        """The embedding itself.  Kept because ``bench/workloads.py`` calls
        ``gp_from_matrix(emb.ground())``; it goes once the benchmark passes
        the embedding."""
        return self

    @cached_property
    def minor_table(self) -> tuple[dict[tuple[int, ...], tuple[int, int]], int]:
        """Every maximal minor as a (sign, k) pair, its valuation k/scale,
        keyed by increasing column tuple, and that scale, computed once
        (``puiseux.maximal_minors``).  Callers check caps before reading."""
        return maximal_minors(self.columns)

    @cached_property
    def circuits(self) -> tuple[SignedCircuit, ...]:
        return circuits_from_matrix(self)

    def enumerate_circuits(self, cap: int) -> tuple[SignedCircuit, ...]:
        """``circuits``, enumerated within ``cap`` (``circuits_from_matrix``)
        and kept as ``circuits``, so membership reads these and enumerates
        nothing again."""
        circuits = circuits_from_matrix(self, cap=cap)
        object.__setattr__(self, "circuits", circuits)
        return circuits

    @cached_property
    def _scaled_circuits(self) -> tuple[int, list[tuple[tuple[int, int, int], ...]]]:
        """The circuits' scale and, per circuit, its support as
        (element, sign, scaled valuation) triples (``scaled_rt_vectors``)."""
        signs, vals, scale = scaled_rt_vectors(c.entries for c in self.circuits)
        supports = [
            tuple((e, s, v) for e, (s, v) in enumerate(zip(sg, vs)) if s)
            for sg, vs in zip(signs, vals)
        ]
        return scale, supports

    def apply(self, x) -> tuple[PuiseuxSeries, ...]:
        """Evaluate every functional at the coordinate vector x."""
        x = tuple(as_series(v) for v in x)
        if len(x) != self.height:
            raise ValueError("point has the wrong dimension")
        return tuple(dot(col, x) for col in self.columns)


def ground_from_matrix(rows) -> LinearEmbedding:
    """Interpret a row-major matrix as the embedding of its columns."""
    return LinearEmbedding.from_matrix(rows)


# ---------------------------------------------------------------------------
# Grassmann-Plucker functions


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
        if type(self.rank) is not int:
            raise ValueError(f"rank must be an int, got {self.rank!r}")
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

    @cached_property
    def scaled_table(self) -> tuple[dict[tuple[int, ...], tuple[int, int]], int]:
        """The values as RT pairs with each valuation scaled to an int over
        one common denominator, and that denominator; zero is (0, 0).  The
        values are read once (``sign_val``) over the lcm of their
        denominators, unless ``gp_from_matrix`` handed over the minor
        table's pairs and scale, which may be a larger common denominator.
        The exchange relations and cocircuits read this."""
        pairs = {t: sign_val(v) for t, v in self.values.items()}
        scale = math.lcm(1, *(v.denominator for s, v in pairs.values() if s))
        table = {t: (s, _scaled(v, scale)) if s else (0, 0) for t, (s, v) in pairs.items()}
        return table, scale

    @cached_property
    def cocircuit_rows(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
        """Per (rank-1)-subset mu, in lexicographic order, mu and the scaled
        pairs of e -> phi(mu + (e,)) from ``scaled_table``: phi at mu with e
        inserted at its sorted position p, times (-1)^(rank-1-p).  Tuples,
        built once and shared by the exchange relations and both readers."""
        table, _ = self.scaled_table
        m, r = len(self.labels), self.rank
        rows = []
        for mu in itertools.combinations(range(m), r - 1):
            row = []
            for e in range(m):
                p = bisect.bisect_left(mu, e)
                if p < len(mu) and mu[p] == e:
                    row.append((0, 0))
                    continue
                s, v = table[mu[:p] + (e,) + mu[p:]]
                row.append((-s if (r - 1 - p) % 2 else s, v))
            rows.append((mu, tuple(row)))
        return tuple(rows)


def gp_from_matrix(
    ground: LinearEmbedding, target: str = "RT", tuple_cap: int = DEFAULT_PAIR_CAP
) -> GrassmannPlucker:
    """Signed valuations of maximal minors, pushed into the target hyperfield.

    The minor table's pairs, pushed the same way, become the function's
    ``scaled_table``, so its values are never read back into pairs.
    """
    table, scale = _spanning_minor_table(ground, tuple_cap)
    values, pairs = {}, {}
    for t, (s, k) in table.items():
        values[t] = from_sign_val(target, s, Fraction(k, scale))
        pairs[t] = kept_pair(target, s, k)
    gp = GrassmannPlucker(ground.height, ground.labels, target, values)
    object.__setattr__(gp, "scaled_table", (pairs, scale))  # fills the cached property
    return gp


def _spanning_minor_table(ground: LinearEmbedding, tuple_cap: int) -> tuple[dict, int]:
    """The embedding's minor table and scale, after the cap check that
    comes before any minor is taken."""
    count = math.comb(len(ground), ground.height)
    if count > tuple_cap:
        raise EnumerationCapError(count, tuple_cap, "minor enumeration")
    return ground.minor_table


def check_gp_relations(
    gp: GrassmannPlucker, pair_cap: int = DEFAULT_PAIR_CAP
) -> Report:
    """Exhaustively verify the three-term exchange relations.

    For every (rank+1)-subset x and (rank-1)-subset y the alternating sum
    of products phi(x minus x_k) * phi(x_k, y) must admit zero: the terms
    are all zero, or the least valuation is reached with both signs (RT
    and S) or by two terms (T and K).  The first failing (x, y), in
    lexicographic order, is reported.

    The sum is the orthogonality of the circuit row of x and the
    cocircuit row of y, read from ``gp.scaled_table``.  The cocircuit row
    at e is phi(y + (e,)) = (-1)^(rank-1) phi(e, y), one sign for every
    term, which does not change whether the sum admits zero.
    """
    m, r = len(gp), gp.rank
    npairs = math.comb(m, r + 1) * math.comb(m, r - 1)
    if npairs > pair_cap:
        raise EnumerationCapError(npairs, pair_cap, "relation enumeration")
    table, _ = gp.scaled_table
    signed = gp.hyperfield in ("RT", "S")
    for x, row in _circuit_rows(table, m, r):
        support = [(e, s, v) for e, (s, v) in enumerate(row) if s]
        for y, co in gp.cocircuit_rows:
            terms = ((s * co[e][0], v + co[e][1]) for e, s, v in support if co[e][0])
            if not admits_zero(terms, signed):
                return Report(
                    ok=False,
                    violations=({"relation": {"x": list(x), "y": list(y)}},),
                )
    return Report(ok=True, info={"pairs_checked": npairs})


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
    """Scale so the smallest-index nonzero entry becomes (+, 0).  A tuple
    of RT values that is already normalized is returned as it is.  Only
    entries that are all RT, and so checked, are scaled without a check."""
    entries = tuple(entries)
    lead = next((x for x in entries if x.sign != 0), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    checked = all(type(x) is RT for x in entries)
    if checked and lead.sign == 1 and lead.val == 0:
        return entries
    make = unchecked_rt if checked else RT
    return tuple(
        RT_ZERO if x.sign == 0 else make(x.sign * lead.sign, x.val - lead.val) for x in entries
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

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"SignedCircuit({list(self.entries)!r})"


def circuits_from_matrix(
    ground: LinearEmbedding, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignedCircuit, ...]:
    """One normalized circuit per minimal dependent set of columns.

    The circuits are read off the maximal-minor table phi.  For an
    (r+1)-subset tau of the columns, Cramer's rule says the vector putting
    (-1)^k phi(tau minus tau_k) at tau_k is a linear dependence among the
    columns in tau.  When tau contains a basis the vector is nonzero and
    supported on the unique circuit inside tau; every circuit arises this
    way, from any basis completed by one of its elements.  The first
    vector found on a support is kept.  Circuits come sorted by support
    size, then support.  ``cap`` bounds both the (r+1)-subsets and the
    minors, and is checked before either is taken.

    The rows of ``_circuit_rows`` over the minor table are normalized as
    int pairs; only the kept ones become RT values.
    """
    m, r = len(ground), ground.height
    count = math.comb(m, r + 1)
    if count > cap:
        raise EnumerationCapError(count, cap, "circuit enumeration")
    table, scale = _spanning_minor_table(ground, cap)
    by_support = {}
    for tau, row in _circuit_rows(table, m, r):
        normal = _normalized(row)
        if normal is not None:
            by_support.setdefault(tuple(e for e in tau if normal[e][0]), normal)
    return tuple(
        SignedCircuit(_rt_vector(by_support[s], scale))
        for s in sorted(by_support, key=lambda s: (len(s), s))
    )


def _circuit_rows(table, m: int, r: int):
    """Per (r+1)-subset tau, in lexicographic order, tau and the scaled
    pairs of e -> (-1)^k phi(tau minus tau_k) at e = tau_k, zero off tau;
    by Cramer's rule a linear dependence of the columns in tau."""
    for tau in itertools.combinations(range(m), r + 1):
        row = [(0, 0)] * m
        for k, e in enumerate(tau):
            s, v = table[tau[:k] + tau[k + 1 :]]
            row[e] = (-s if k % 2 else s, v)
        yield tau, row


def _normalized(pairs) -> tuple[tuple[int, int], ...] | None:
    """Scaled (sign, val) pairs rescaled so the first nonzero one is
    (1, 0), as ``normalize_rt_vector`` does; None for the zero vector."""
    lead = next((p for p in pairs if p[0]), None)
    if lead is None:
        return None
    ls, lv = lead
    return tuple((s * ls, v - lv) if s else (0, 0) for s, v in pairs)


def _rt_vector(pairs, scale: int) -> tuple[RT, ...]:
    """The RT values of scaled (sign, val) pairs."""
    return tuple(unchecked_rt(s, Fraction(v, scale)) if s else RT_ZERO for s, v in pairs)


def check_circuit_axioms(circuits) -> Report:
    """Verify the circuit description of an RT-matroid on a finite set.

    Checks: no zero vector (C0); normalization of every representative
    (C1; the scaling axiom is then structural); incomparable supports
    between distinct classes (C2); valuated elimination between every
    matched rescaling pair (C3).  When they all hold, ``max_independent``
    is the size of a greedy subset containing no circuit support, a basis
    and so the rank witness for the finite-rank axiom; it is None when an
    axiom fails, as for an empty list.

    Each circuit is held as a sign list, a list of valuations scaled to
    ints by the lcm of all denominators, and its support, both as a tuple
    of positions, computed once, and as a bitmask; sets of circuits are
    int bitsets over list positions, nonzero_at[g] holding the circuits
    nonzero at g.  C3 rescales C to C' with C'_e = -A_e for each pair
    (A, C) and shared element e, and tabulates A_g + C'_g once per
    coordinate: its least valuation, and the sign when it is a singleton.
    For each f with val A_f < val C'_f the candidates D are zero at e and
    nonzero at f; D rescaled to agree with A at f must lie in A_g + C'_g at
    every g, which only needs a test on the support of D.  One table per
    unordered pair decides both orders (``_elimination_failures``).
    """
    circuits = tuple(circuits)
    if not circuits:
        return Report(ok=True, info={"max_independent": None})
    m = len(circuits[0])
    if any(len(c) != m for c in circuits):
        raise ValueError("circuits of unequal length")
    signs, vals, _ = scaled_rt_vectors(c.entries for c in circuits)
    positions = [tuple(g for g, s in enumerate(sg) if s) for sg in signs]
    supports = [sum(1 << g for g in pos) for pos in positions]
    nonzero_at = [0] * m
    for i, pos in enumerate(positions):
        for g in pos:
            nonzero_at[g] |= 1 << i
    violations: list[dict] = []

    for i, pos in enumerate(positions):
        if not pos:
            violations.append({"axiom": "C0", "circuit": i})
        elif (signs[i][pos[0]], vals[i][pos[0]]) != (1, 0):
            violations.append({"axiom": "C1", "circuit": i})

    for i, j in itertools.combinations(range(len(circuits)), 2):
        both = supports[i] & supports[j]
        if both in (supports[i], supports[j]):
            if signs[i] != signs[j] or vals[i] != vals[j]:
                violations.append({"axiom": "C2", "pair": [i, j]})

    violations.extend(_elimination_failures(signs, vals, positions, supports, nonzero_at))

    max_ind = None if violations else _max_independent(m, supports)
    return Report(
        ok=not violations,
        violations=tuple(violations),
        info={"max_independent": max_ind},
    )


def _elimination_failures(signs, vals, positions, supports, nonzero_at) -> list[dict]:
    """The C3 violations, in the order of ordered pair (A, C), shared
    element e and f.

    For (A, C) and e, C' = beta C with C'_e = -A_e, and every f with val
    A_f < val C'_f needs a circuit D, zero at e, nonzero at f and supported
    in supp A | supp C, that lies in A + C' once rescaled to agree with A
    at f.  The sum table of (C, A) at e is beta^-1 (A + C'), and its f are
    those with val C'_f < val A_f; scaling by beta keeps every comparison.
    So one table per unordered pair {A, C} and e decides both orders: at
    each f where A + C' is a singleton reached strictly by one side, D is
    rescaled to that singleton, and a failure belongs to the order that
    side comes first in.
    """
    width = len(nonzero_at)
    failures = []
    for i, (sa, va, ma) in enumerate(zip(signs, vals, supports)):
        for j in range(i + 1, len(signs)):
            sc, vc, mc = signs[j], vals[j], supports[j]
            if not ma & mc:
                continue
            union = [g for g in range(width) if (ma | mc) >> g & 1]
            inside = _supported_in(ma | mc, nonzero_at)
            for e in _bits(ma & mc):
                thr, sgn, shift = _sum_table(sa, va, sc, vc, positions[j], e)
                among = inside & ~nonzero_at[e]
                for f in union:
                    if sa[f] and sc[f] and va[f] == vc[f] + shift:
                        continue  # both sides reach the least valuation
                    candidates = nonzero_at[f] & among
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        d = low.bit_length() - 1
                        if _eliminates(
                            signs[d], vals[d], positions[d], sgn[f], thr[f], f, thr, sgn
                        ):
                            break
                    else:
                        a_first = sa[f] and (not sc[f] or va[f] < vc[f] + shift)
                        pair = [i, j] if a_first else [j, i]
                        failures.append({"axiom": "C3", "pair": pair, "e": e, "f": f})
    failures.sort(key=lambda v: (*v["pair"], v["e"], v["f"]))
    return failures


def _supported_in(mask: int, nonzero_at) -> int:
    """The bitset of the circuits that are zero at every g outside mask."""
    blocked = 0
    for g, at in enumerate(nonzero_at):
        if not mask >> g & 1:
            blocked |= at
    return ~blocked


def _sum_table(sa, va, sc, vc, c_positions, e: int) -> tuple[list[int], list[int], int]:
    """A + C' for C' = beta C with C'_e = -A_e, per coordinate: its least
    valuation and its sign, 0 for a ball; and the shift, val C'_g =
    val C_g + shift.  c_positions is the support of C."""
    beta_sign, shift = -sa[e] * sc[e], va[e] - vc[e]
    thr, sgn = list(va), list(sa)
    for g in c_positions:
        cs, cv = beta_sign * sc[g], vc[g] + shift
        if not sa[g] or cv < va[g]:
            thr[g], sgn[g] = cv, cs
        elif cv == va[g] and cs != sa[g]:
            sgn[g] = 0
    return thr, sgn, shift


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


def _eliminates(sd, vd, support, af_sign: int, af_val: int, f: int, thr, sgn) -> bool:
    """Whether D, rescaled to equal A at f, lies in A_g + C'_g at every g of
    its support, a tuple of positions; thr and sgn tabulate that sum (sign
    0 for a ball)."""
    gamma_sign, shift = af_sign * sd[f], af_val - vd[f]
    for g in support:
        v, t = vd[g] + shift, thr[g]
        if v < t or v == t and sgn[g] and gamma_sign * sd[g] != sgn[g]:
            return False
    return True


def _max_independent(m: int, masks) -> int:
    """Size of a greedy subset of 0..m-1 containing no mask.  When the
    masks are the circuits of a matroid, that subset is a basis, so its
    size is the rank."""
    chosen = 0
    for e in range(m):
        trial = chosen | 1 << e
        if all(mask & trial != mask for mask in masks):
            chosen = trial
    return chosen.bit_count()


# ---------------------------------------------------------------------------
# Cocircuits


def cocircuits_from_gp(
    gp: GrassmannPlucker, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignVector, ...]:
    """Sign vectors e -> sgn phi(mu, e) over all (rank-1)-subsets mu,
    closed under negation, with zero vectors removed."""
    if gp.hyperfield not in ("S", "RT"):
        raise ValueError("cocircuits need a sign or real tropical chirotope")
    _check_cocircuit_cap(gp, cap)
    seen: set[SignVector] = set()
    for _, row in gp.cocircuit_rows:
        X = tuple(s for s, _ in row)
        if any(X):
            seen.add(X)
            seen.add(tuple(-x for x in X))
    return tuple(sorted(seen))


def _check_cocircuit_cap(gp: GrassmannPlucker, cap: int) -> None:
    """Raise before ``gp.cocircuit_rows`` is read when its C(m, rank-1)
    rows exceed cap."""
    count = math.comb(len(gp), gp.rank - 1)
    if count > cap:
        raise EnumerationCapError(count, cap, "cocircuit enumeration")


def rt_cocircuits_from_gp(
    gp: GrassmannPlucker, cap: int = DEFAULT_PAIR_CAP
) -> tuple[SignedCircuit, ...]:
    """Normalized RT cocircuit vectors of a real tropical chirotope, one
    per distinct vector e -> phi(mu, e), sorted by their (sign, valuation)
    entries.  The vectors are normalized, deduplicated and sorted as
    scaled pairs; only the distinct ones become RT values."""
    if gp.hyperfield != "RT":
        raise ValueError("expected a real tropical chirotope")
    _check_cocircuit_cap(gp, cap)
    seen = {_normalized(row) for _, row in gp.cocircuit_rows}
    seen.discard(None)
    # a zero entry is (0, 0) here and (0, inf) as RT: it only ever ties
    # with another zero entry, so both orders agree
    return tuple(SignedCircuit(_rt_vector(v, gp.scaled_table[1])) for v in sorted(seen))


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


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    positions = []
    while x:
        low = x & -x
        positions.append(low.bit_length() - 1)
        x ^= low
    return positions


def _coordinate_index(masks, width: int):
    """Per coordinate, the bitsets of the positions of the vectors that are
    +, - and 0 there; per vector, the ascending lists of its + and of its -
    coordinates."""
    plus_at = [0] * width
    minus_at = [0] * width
    plus_of = []
    minus_of = []
    for i, (p, m) in enumerate(masks):
        bit = 1 << i
        plus = _bits(p)
        minus = _bits(m)
        for e in plus:
            plus_at[e] |= bit
        for e in minus:
            minus_at[e] |= bit
        plus_of.append(plus)
        minus_of.append(minus)
    every = (1 << len(masks)) - 1
    zero_at = [every & ~(plus_at[e] | minus_at[e]) for e in range(width)]
    return plus_at, minus_at, zero_at, plus_of, minus_of


@dataclass(frozen=True)
class CovectorPoset:
    """Equally long sign vectors, repeats allowed, ordered conformally: X
    is below Y when Y keeps every sign of X and may fill in zeros.
    All else is derived once and cached, from the vectors or from the
    masks that ``covector_closure`` hands over; a vector is never strictly
    above its copies."""

    vectors: tuple[SignVector, ...]

    @classmethod
    def _from_masks(cls, width: int, masks) -> CovectorPoset:
        """The poset of distinct (plus, minus) masks of the given width, its
        vectors sorted, holding the masks in the same order so that they
        are not read back from the vectors."""
        coords = range(width)
        rows = sorted(
            (tuple([(p >> e & 1) - (m >> e & 1) for e in coords]), (p, m)) for p, m in masks
        )
        poset = cls(tuple(v for v, _ in rows))
        poset.__dict__["_pairs"] = [pm for _, pm in rows]
        return poset

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, X: SignVector) -> bool:
        """By masks in ``mask_index``; a tuple of another length, or with
        an entry outside -1, 0 and 1, is no member and raises nothing."""
        index = self.mask_index
        try:
            return len(X) == self.width and _masks(X) in index
        except ValueError:
            return False

    @property
    def width(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    @cached_property
    def _pairs(self) -> list[tuple[int, int]]:
        return _mask_pairs(self.vectors)[1]

    @cached_property
    def mask_index(self) -> dict[tuple[int, int], int]:
        """Per distinct vector, as its (plus, minus) pair of bitmasks, the
        bitset of the positions holding it."""
        copies: dict[tuple[int, int], int] = {}
        for i, pm in enumerate(self._pairs):
            copies[pm] = copies.get(pm, 0) | 1 << i
        return copies

    @cached_property
    def _at(self):
        """The result of ``_coordinate_index`` on the vectors."""
        return _coordinate_index(self._pairs, self.width)

    @cached_property
    def _above(self) -> list[int]:
        """Per position, the bitset of the positions whose vectors lie
        strictly above its vector: + on its + coordinates, - on its -
        coordinates, and not a copy."""
        plus_at, minus_at, _, plus_of, minus_of = self._at
        copies = self.mask_index
        every = (1 << len(self.vectors)) - 1
        above = []
        for pm, plus, minus in zip(self._pairs, plus_of, minus_of):
            up = every & ~copies[pm]
            for e in plus:
                up &= plus_at[e]
            for e in minus:
                up &= minus_at[e]
            above.append(up)
        return above

    @cached_property
    def _above_lists(self) -> list[list[int]]:
        """Per position, the positions strictly above it, ascending."""
        return [_bits(up) for up in self._above]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j), in increasing order, where vectors[j] covers
        vectors[i]: j is above i but above no other position above i."""
        up = self._above
        covers = []
        for i, above in enumerate(self._above_lists):
            beyond = 0
            for k in above:
                beyond |= up[k]
            covers += [(i, j) for j in above if not beyond >> j & 1]
        return tuple(covers)

    def chains(self, cap: int = DEFAULT_PAIR_CAP) -> tuple[tuple[int, ...], ...]:
        """Every nonempty chain of nonzero covectors, as index tuples,
        ordered by length and then lexicographically, once their count
        (``chain_count``) is within ``cap``.

        The chains of one length are extended in order, each by the
        positions above its last element in increasing order, so every
        level comes out sorted.
        """
        count = self.chain_count()
        if count > cap:
            raise EnumerationCapError(count, cap, "chain enumeration")
        above = self._above_lists
        out: list[tuple[int, ...]] = []
        level = [(i,) for i, (p, m) in enumerate(self._pairs) if p | m]
        while level:
            out.extend(level)
            level = [c + (j,) for c in level for j in above[c[-1]]]
        return tuple(out)

    def chain_count(self) -> int:
        """``len(self.chains())``, counted once and kept."""
        return self._chain_count

    @cached_property
    def _chain_count(self) -> int:
        """The chains from i are i and the chains from each j above i, whose
        support is larger, so supports go largest first."""
        above, pairs = self._above_lists, self._pairs
        count, sizes = [0] * len(pairs), [(p | m).bit_count() for p, m in pairs]
        for i in sorted(range(len(pairs)), key=sizes.__getitem__, reverse=True):
            count[i] = 1 + sum(map(count.__getitem__, above[i]))
        return sum(n for n, (p, m) in zip(count, pairs) if p | m)

    def maximal_chains(self, chains) -> tuple[tuple[int, ...], ...]:
        """The given chains, increasing index tuples of nonzero vectors, that
        no other nonzero vector extends below the first element, above the
        last or between two neighbours.  above[i] is the strictly-above
        bitset plus the copies of vector i, below is its transpose; a chain
        is strictly increasing, so its own positions never qualify."""
        copies = self.mask_index
        others = [copies[pm] & ~(1 << i) for i, pm in enumerate(self._pairs)]
        above = [up | same for up, same in zip(self._above, others)]
        below = others[:]
        for i, js in enumerate(self._above_lists):
            for j in js:
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
    vectors found.  X o g is X plus g restricted to the zero set of X, so
    the distinct restrictions of the generators are taken once per zero
    set, and those that are zero are skipped: a g whose support lies
    inside that of X gives X o g = X.  The cap is checked each time a
    vector is added.  Any list of equally long sign vectors may serve as
    the generators.  The poset returned holds the masks found as its index.
    """
    width, gens = _mask_pairs([tuple(c) for c in cocircuits])
    gens = list(dict.fromkeys(gens))
    full = (1 << width) - 1
    current = {(0, 0), *gens}
    frontier = gens
    restrictions: dict[int, set[tuple[int, int]]] = {}
    while frontier:
        fresh = []
        for p1, m1 in frontier:
            zero = full & ~(p1 | m1)
            found = restrictions.get(zero)
            if found is None:
                found = restrictions[zero] = {(p2 & zero, m2 & zero) for p2, m2 in gens}
                found.discard((0, 0))
            for p2, m2 in found:
                Z = (p1 | p2, m1 | m2)
                if Z not in current:
                    current.add(Z)
                    fresh.append(Z)
                    if len(current) > cap:
                        raise EnumerationCapError(len(current), cap, "covector closure")
        frontier = fresh
    return CovectorPoset._from_masks(width, current)


def check_covector_axioms(poset) -> Report:
    """Symmetry, composition closure, and elimination for a covector set.

    Takes a poset or any list of equally long sign vectors, repeats
    allowed; violations are reported in the order of that list.  The work
    on a valid set is per vector and per coordinate, not per pair of
    vectors.

    Composition (Cov3): X o Y is X plus Y restricted to the zero set z of
    X, and X o Y is in the list for every Y exactly when the number of
    distinct restrictions of the vectors to z equals the number of
    distinct vectors V at or above X.  Every such V equals X o V, and
    V -> V restricted to z is injective on them, as V is X plus that
    restriction; so the restrictions reached this way are at most as many
    as all restrictions, and equally many iff every X + r, r a
    restriction, is a vector.  The count above X is one plus the distinct
    vectors in its strictly-above bitset, and the restrictions are counted
    once per distinct z.  Only the X that fail are scanned pair by pair.

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
    So if Cov3 holds, Cov4 holds iff it holds for every pair of distinct
    vectors with equal support.  Those pairs are not enumerated: by
    induction on |S(U, V)|, the single sign flips inside a support class
    (the edges of the tope graph, Bjorner, Las Vergnas, Sturmfels, White
    and Ziegler, Oriented Matroids, ch. 4) carry elimination from pair to
    pair, so it is checked at each flip and at the few pairs that no flip
    shortens (``_eliminations_certified``).  Otherwise the loop over the
    pairs of the list decides, and it alone writes Cov4 violations.
    """
    if not isinstance(poset, CovectorPoset):
        poset = CovectorPoset(tuple(poset))
    if not poset.vectors:
        return Report(ok=False, violations=({"axiom": "Cov1"},))
    masks, vecset = poset._pairs, poset.mask_index
    unsymmetric = [i for i, (p, m) in enumerate(masks) if (m, p) not in vecset]
    uncomposable = _uncomposable(poset)
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


def _uncomposable(poset) -> set[tuple[int, int]]:
    """The (plus, minus) pairs X of the poset's vectors for which some
    X o Y is not a vector: those where the distinct restrictions of the
    vectors to the zero set of X outnumber the distinct vectors at or above
    X (see ``check_covector_axioms``)."""
    width, copies, above = poset.width, poset.mask_index, poset._above
    keys = [p << width | m for p, m in copies]
    firsts = 0
    for c in copies.values():
        firsts |= c & -c
    full = (1 << width) - 1
    restrictions: dict[int, int] = {}
    failing = set()
    for (p, m), c in copies.items():
        zero = full & ~(p | m)
        count = restrictions.get(zero)
        if count is None:
            both = zero << width | zero
            count = restrictions[zero] = len({k & both for k in keys})
        if (above[(c & -c).bit_length() - 1] & firsts).bit_count() + 1 != count:
            failing.add((p, m))
    return failing


def _zero_off(zero_at, every: int, support: int) -> int:
    """The positions among every whose vectors are 0 off support."""
    for g, zero in enumerate(zero_at):
        if not support >> g & 1:
            every &= zero
    return every


def _eliminations_certified(poset) -> bool:
    """Whether elimination holds for every pair of distinct vectors U, V
    with equal support, checked per vector and per coordinate.

    Such U and V are opposite on S = S(U, V) and equal off it.  If a
    vector W of the same support has S(U, W) a nonempty proper subset of
    S, then S(W, V) = S minus S(U, W), and a Z eliminating e in S for
    (U, W) or for (W, V) agrees with U off S: elimination for (U, W) and
    (W, V) gives it for (U, V).  By induction on |S|, two checks suffice
    (the flips are the edges of the tope graph, Bjorner, Las Vergnas,
    Sturmfels, White and Ziegler, Oriented Matroids, ch. 4):
    - flip edges: where U with the sign at e flipped is a vector, S is
      {e}, and the only Z is U with e zeroed, which must be a vector;
    - the rest: a V that agrees with U at every flip coordinate e of U is
      reached by no flip, and its key (U & V, U ^ V) within the support
      class is checked directly, each distinct key once.
    Any other V is separated from U at some flip coordinate e, and W = U
    with e flipped shortens the path."""
    width, copies, masks = poset.width, poset.mask_index, poset._pairs
    at = poset._at
    plus_at, minus_at = at[0], at[1]
    # a vector as the int p << width | m: flipping e is key ^ both[e], and
    # zeroing e is key & ~both[e]
    keys = {p << width | m for p, m in copies}
    both = [(1 << width | 1) << e for e in range(width)]
    classes: dict[int, int] = {}
    for (p, m), c in copies.items():
        classes[p | m] = classes.get(p | m, 0) | c
    starts: dict[int, tuple[int, list[int]]] = {}
    checked = set()
    for (p, m), c in copies.items():
        support = p | m
        rest = classes[support] & ~c
        if not rest:
            continue
        key = p << width | m
        for e, b in enumerate(both):
            if support >> e & 1 and key ^ b in keys:
                if key & ~b not in keys:
                    return False
                rest &= plus_at[e] if p >> e & 1 else minus_at[e]
        while rest:
            q = masks[(rest & -rest).bit_length() - 1][0]
            rest &= ~copies[q, support & ~q]
            plus, sep = p & q, p ^ q
            if (support, plus, sep) in checked:
                continue
            checked.add((support, plus, sep))
            if support not in starts:
                starts[support] = _zero_off(at[2], (1 << len(masks)) - 1, support), _bits(support)
            if _elimination_gaps(at, *starts[support], plus, sep):
                return False
    return True


def _elimination_violations(poset, names) -> list[dict]:
    """Cov4 violations, pair by pair in list order.  T = X o Y agrees with
    Y o X off S, so unordered pairs suffice, and the outcome depends only on
    the key (T off S, S), which many pairs share."""
    masks, at = poset._pairs, poset._at
    every = (1 << len(masks)) - 1
    unmet: dict[tuple[int, int, int], list[int]] = {}
    violations = []
    for xi, (p1, m1) in enumerate(masks):
        for yi in range(xi + 1, len(masks)):
            p2, m2 = masks[yi]
            sep = p1 & m2 | m1 & p2
            if not sep:
                continue
            plus, minus = p1 | p2 & ~m1, m1 | m2 & ~p1
            key = (plus & ~sep, minus & ~sep, sep)
            missing = unmet.get(key)
            if missing is None:
                support = plus | minus
                start = _zero_off(at[2], every, support)
                missing = unmet[key] = _elimination_gaps(at, start, _bits(support), plus, sep)
            for e in missing:
                violations.append({"axiom": "Cov4", "pair": [names[xi], names[yi]], "e": e})
    return violations


def _elimination_gaps(at, agree: int, coords, plus: int, sep: int) -> list[int]:
    """The e in sep, ascending, for which no vector among the positions
    agree is 0 at e and, at each coordinate of coords outside sep, + where
    plus is set and - where it is not.  coords is the ascending list of a
    support that holds sep, agree the positions of the vectors that are 0
    off that support, and at the result of ``_coordinate_index``."""
    plus_at, minus_at, zero_at = at[0], at[1], at[2]
    separated = []
    for e in coords:
        if sep >> e & 1:
            separated.append(e)
        elif plus >> e & 1:
            agree &= plus_at[e]
        else:
            agree &= minus_at[e]
    gaps = []  # a plain loop: a comprehension would add a call per key
    for e in separated:
        if not agree & zero_at[e]:
            gaps.append(e)
    return gaps


def covector_zero_flat(X: SignVector, gp: GrassmannPlucker) -> tuple[int, ...]:
    """Zero set Z of a covector, certified to be a flat of the matroid
    whose bases are the support of gp: the closure of Z is the ground set
    minus the support of every row of ``gp.cocircuit_rows`` that misses Z,
    and their count is checked against ``DEFAULT_PAIR_CAP`` first."""
    if len(X) != len(gp):
        raise ValueError("covector and ground set have different lengths")
    _check_cocircuit_cap(gp, DEFAULT_PAIR_CAP)
    zeros = sum(1 << e for e, x in enumerate(X) if x == 0)
    closure = (1 << len(gp)) - 1
    for _, row in gp.cocircuit_rows:
        support = sum(1 << e for e, (s, _) in enumerate(row) if s)
        if not support & zeros:
            closure &= ~support
    zset = tuple(_bits(zeros))
    if closure != zeros:
        raise ValueError(f"zero set {zset} is not a flat; not a covector")
    return zset


def sign_vector_str(X: SignVector) -> str:
    return "".join(SIGN_CHARS[x] for x in X)

