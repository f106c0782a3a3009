"""Exhaustive reference algorithms that the library's faster paths are
tested against.

``circuits_by_subset_search`` is the textbook construction of the signed
valuated circuits of a column set: enumerate the bases by testing every
rank-sized subset for independence, search the subsets up to rank+1 for
the minimal dependent ones, and take the coefficients of each dependence
from Cramer's rule.  It is slow (many more determinants than the
maximal-minor table needs) but shares no code with
``realtrop.matroids.circuits_from_matrix`` beyond the determinant.

``circuits_by_rt_vectors``, ``cocircuits_by_value_on`` and
``rt_cocircuits_by_value_on`` are the loops the library ran before it
built circuits and cocircuits on scaled int pairs: one RT vector per
subset, from ``hyper_neg`` or ``value_on``, normalized
by ``normalize_by_fractions`` (one Fraction subtraction per entry) and
deduplicated as RT tuples.

``value_on`` reads a GP function on any tuple by the alternating rule.
The covector functions work on sign vectors as int tuples with the
helpers ``compose_sv``, ``leq_sv`` and ``separation_set``:
``closure_by_all_pairs`` composes every new vector with every vector found
so far, ``covers_by_triples`` tests every triple for an element strictly
between, ``chains_by_recursion`` grows chains depth first, and
``covector_axioms_by_tuples`` checks elimination with Python sets.  The
library does the same on (plus, minus) bitmask pairs.
``uncomposable_by_restrictions`` is the composition test the library ran
before it counted: it builds the distinct restrictions of the vectors to
each zero set and composes X with every one of them.
``bergman_member_by_levels`` builds the sign vector revealed at each
valuation level as a tuple and looks it up in the poset; the library
sorts the coordinates once and looks up (plus, minus) masks.

``diagonalize_by_span_tests`` inverts every leaf afresh, orders the
functionals by a stable sort on weight, keeps each one whose rank test
against the kept ones succeeds and completes them with unit vectors one
rank test at a time; the library picks the same vectors as the pivots of
one elimination.  ``flags_equivalent_by_chains`` compares every subspace
prefix of the two flags (``subspace_at``, a ``span_basis``) with
``span_eq``, then ``solve``s each signed G
step against the signed F step and the F subspace below it; the library
reads G's vectors in F's basis from one elimination.  ``nullspace`` is
the rational kernel of a matrix, by back substitution from the reduced
row echelon form.  ``rref_by_fractions`` is Gauss-Jordan elimination in
Fraction arithmetic, dividing each pivot row by its pivot; the library
eliminates fraction free on integer rows.  ``const_coordinates_by_fractions``
evaluates a constant leaf by Fraction dot products with the rows of the
inverse basis; the library takes the sign of int dot products with
integer-scaled rows.  ``cramer_coordinates`` takes one ``signed_det`` per
coordinate of any leaf, and ``value_by_levels`` applies the leaf's level
rule to them in Fractions; the library reads the coordinates from one
leading-term certificate per leaf and compares levels as ints.

The ``*_by_cases`` hyperfield operations branch on the element type, one
case per hyperfield; the library reads every element as an RT pair and
applies the one RT rule.  ``admits_zero_by_lists`` decides whether a
hypersum of (sign, valuation) terms contains zero from a ``min``, a list
and a set; the library folds the terms in one pass.  ``circuit_axioms_by_hypersums`` and
``gp_relations_by_hypersums`` check the circuit axioms and the exchange
relations with those per-field operations, building every rescaled vector
and every hypersum; the library compares (sign, int) pairs and bitmasks
with ``admits_zero`` instead.
The ``*_by_terms`` Puiseux-series operations and
``det_by_fraction_laplace`` are the ring arithmetic the library had before
its integer kernel: every product of two terms is a pair of Fractions,
summed in a dict keyed by Fraction exponent (``from_terms_by_fractions``),
and the Laplace expansion adds one signed product at a time.  They share
no arithmetic with the library beyond negation.  The library's ``det``
and ``column_rank`` are one fraction-free elimination; the rank it took
before is ``column_rank_by_greedy_minors``, a greedy search that keeps a
column when ``columns_independent`` finds a nonzero ``signed_det`` among
the row subsets of the kept columns and it.
``assignment_potentials_by_infinite_slack`` is the Hungarian loop of
``signed_det`` as it ran with ``math.inf`` marking a column no edge has
reached; the library marks it with None.
``max_independent_by_subsets`` tries every subset, largest first, for
the greedy rank witness of the library.  ``maximal_cones_by_scan`` tests
every vector of the poset against every cone with ``leq_sv``; the library
uses position bitsets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from realtrop import (
    INF,
    KV,
    RT,
    RT_ZERO,
    TV,
    CovectorPoset,
    DiagonalSeminorm,
    EnumerationCapError,
    RankDeficientError,
    Report,
    SignedCircuit,
    ball,
    hyper_neg,
    linalg,
    singleton,
)
from realtrop.hyperfields import (
    KV_ONE,
    KV_ZERO,
    TV_ZERO,
    Elem,
    HyperSet,
    Val,
    field_of,
    pushmap_target,
    sign_val,
    zero_of,
)
from realtrop.matroids import DEFAULT_CLOSURE_CAP, DEFAULT_PAIR_CAP, SignVector, sign_vector_str
from realtrop.puiseux import PuiseuxSeries, as_series, det, signed_det, signed_value


def compose_sv(X: SignVector, Y: SignVector) -> SignVector:
    return tuple(x if x != 0 else y for x, y in zip(X, Y))


def leq_sv(X: SignVector, Y: SignVector) -> bool:
    """X below Y: Y keeps every sign of X and may fill in zeros."""
    return all(x == 0 or x == y for x, y in zip(X, Y))


def separation_set(X: SignVector, Y: SignVector) -> tuple[int, ...]:
    return tuple(e for e, (x, y) in enumerate(zip(X, Y)) if x != 0 and x == -y)


def bases_by_subset_search(cols) -> tuple[tuple[int, ...], ...]:
    """Every independent subset of len(cols[0]) columns, lexicographically.

    Independence is tested with the exact ``det``, not the library's
    ``signed_det``, so the oracle does not share its certificate path.
    """
    height = len(cols[0])
    return tuple(
        tup
        for tup in itertools.combinations(range(len(cols)), height)
        if not det([[cols[j][i] for j in tup] for i in range(height)]).is_zero
    )


def minimal_dependent_sets(size: int, bases) -> tuple[tuple[int, ...], ...]:
    """Minimal subsets lying in no basis, ascending by size then
    lexicographically."""
    rank = len(bases[0])
    basis_sets = [set(b) for b in bases]
    found: list[tuple[int, ...]] = []
    for k in range(1, rank + 2):
        for tup in itertools.combinations(range(size), k):
            st = set(tup)
            if any(set(c) <= st for c in found):
                continue
            if not any(st <= b for b in basis_sets):
                found.append(tup)
    return tuple(found)


def cramer_dependence(sup_cols, height: int) -> list[RT]:
    """Signed valuations of the coefficients of the one linear dependence
    among the columns of a minimal dependent set."""
    k = len(sup_cols) - 1
    if k == 0:
        return [RT(1, 0)]
    for rowsel in itertools.combinations(range(height), k):
        minors = [
            det([[sup_cols[j][i] for j in range(k + 1) if j != drop] for i in rowsel])
            for drop in range(k + 1)
        ]
        if all(d.is_zero for d in minors):
            continue
        lam = [
            hyper_neg(signed_value(d)) if j % 2 else signed_value(d)
            for j, d in enumerate(minors)
        ]
        if all(x.sign != 0 for x in lam):
            return lam
    raise ValueError("support is not a minimal dependence")


def circuits_by_subset_search(ground) -> tuple[SignedCircuit, ...]:
    """One normalized circuit per minimal dependent set of columns, in the
    order of ``minimal_dependent_sets``."""
    cols = ground.columns
    bases = bases_by_subset_search(cols)
    if not bases:
        raise RankDeficientError("columns do not span")
    out = []
    for support in minimal_dependent_sets(len(cols), bases):
        lam = cramer_dependence([cols[j] for j in support], ground.height)
        entries = [RT_ZERO] * len(cols)
        for pos, e in enumerate(support):
            entries[e] = lam[pos]
        out.append(SignedCircuit(tuple(entries)))
    return tuple(out)


def normalize_by_fractions(entries) -> tuple[RT, ...]:
    """Every entry of a nonzero RT vector scaled by the first nonzero one,
    one Fraction subtraction and one RT per entry."""
    lead = next(x for x in entries if x.sign != 0)
    return tuple(
        RT_ZERO if x.sign == 0 else RT(x.sign * lead.sign, x.val - lead.val) for x in entries
    )


def circuits_by_rt_vectors(ground) -> tuple[SignedCircuit, ...]:
    """The circuits of the maximal-minor table, each (r+1)-subset tau
    giving the RT vector (-1)^k phi(tau minus tau_k) at tau_k; the first
    vector found on a support is kept, and circuits are sorted by support
    size, then support.  The minors come from ``signed_det``."""
    cols, m, r = ground.columns, len(ground), ground.height
    phi = {
        tup: signed_det([cols[j] for j in tup])
        for tup in itertools.combinations(range(m), r)
    }
    if all(v.sign == 0 for v in phi.values()):
        raise RankDeficientError("columns do not span")
    by_support = {}
    for tau in itertools.combinations(range(m), r + 1):
        entries = [RT_ZERO] * m
        for k, e in enumerate(tau):
            v = phi[tau[:k] + tau[k + 1 :]]
            entries[e] = hyper_neg(v) if k % 2 else v
        if any(x.sign != 0 for x in entries):
            c = SignedCircuit(normalize_by_fractions(entries))
            by_support.setdefault(c.support, c)
    return tuple(by_support[s] for s in sorted(by_support, key=lambda s: (len(s), s)))


def _perm_sign_and_sorted(tup: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    if len(set(tup)) != len(tup):
        return 0, tup
    inversions = sum(a > b for a, b in itertools.combinations(tup, 2))
    return (-1) ** inversions, tuple(sorted(tup))


def value_on(gp, tup) -> Elem:
    """Value on an arbitrary tuple via the alternating rule."""
    sgn, key = _perm_sign_and_sorted(tuple(tup))
    if sgn == 0:
        return zero_of(gp.hyperfield)
    v = gp.values[key]
    return v if sgn > 0 else hyper_neg(v)


def cocircuits_by_value_on(gp) -> tuple[tuple[int, ...], ...]:
    """Sign vectors e -> sgn phi(mu, e), each value taken by
    ``value_on``, closed under negation, zero vectors removed, sorted."""
    m = len(gp)
    seen = set()
    for mu in itertools.combinations(range(m), gp.rank - 1):
        X = tuple(sign_val(value_on(gp, mu + (e,)))[0] for e in range(m))
        if any(X):
            seen.add(X)
            seen.add(tuple(-x for x in X))
    return tuple(sorted(seen))


def rt_cocircuits_by_value_on(gp) -> tuple[SignedCircuit, ...]:
    """Normalized RT vectors e -> phi(mu, e), each value taken by
    ``value_on``, one per distinct vector, sorted by (sign, valuation)
    entries."""
    m = len(gp)
    seen = {}
    for mu in itertools.combinations(range(m), gp.rank - 1):
        entries = tuple(value_on(gp, mu + (e,)) for e in range(m))
        if any(x.sign != 0 for x in entries):
            c = SignedCircuit(normalize_by_fractions(entries))
            seen[c.entries] = c
    return tuple(seen[k] for k in sorted(seen, key=lambda v: tuple((x.sign, x.val) for x in v)))


def closure_by_all_pairs(cocircuits, cap: int = DEFAULT_CLOSURE_CAP) -> CovectorPoset:
    """Smallest composition-closed set containing zero and the cocircuits."""
    cocircuits = [tuple(c) for c in cocircuits]
    zero = (0,) * len(cocircuits[0]) if cocircuits else ()
    current = {zero} | set(cocircuits)
    frontier = list(current)
    while frontier:
        fresh = []
        for X in frontier:
            for Y in list(current):
                for Z in (compose_sv(X, Y), compose_sv(Y, X)):
                    if Z not in current:
                        current.add(Z)
                        fresh.append(Z)
                        if len(current) > cap:
                            raise EnumerationCapError(len(current), cap, "covector closure")
        frontier = fresh
    vectors = tuple(sorted(current))
    return CovectorPoset(vectors)


def covers_by_triples(vectors) -> tuple[tuple[int, int], ...]:
    n = len(vectors)
    less = [
        [i != j and vectors[i] != vectors[j] and leq_sv(vectors[i], vectors[j]) for j in range(n)]
        for i in range(n)
    ]
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n))
    )


def chains_by_recursion(vectors) -> tuple[tuple[int, ...], ...]:
    """Every nonempty chain of nonzero vectors, as index tuples."""
    nz = [i for i, v in enumerate(vectors) if any(v)]
    above = {i: [j for j in nz if j != i and leq_sv(vectors[i], vectors[j])] for i in nz}
    out: list[tuple[int, ...]] = []

    def grow(chain: tuple[int, ...]):
        out.append(chain)
        for j in above[chain[-1]]:
            grow(chain + (j,))

    for i in nz:
        grow((i,))
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def covector_axioms_by_tuples(vectors) -> Report:
    """Symmetry, composition closure and elimination, violations in the
    order of the input list."""
    vectors = tuple(vectors)
    if not vectors:
        return Report(ok=False, violations=({"axiom": "Cov1"},))
    vecset = set(vectors)
    violations: list[dict] = []
    width = len(vectors[0])
    if (0,) * width not in vecset:
        violations.append({"axiom": "Cov1"})
    for X in vectors:
        if tuple(-x for x in X) not in vecset:
            violations.append({"axiom": "Cov2", "vector": sign_vector_str(X)})
    for X in vectors:
        for Y in vectors:
            if compose_sv(X, Y) not in vecset:
                violations.append(
                    {"axiom": "Cov3", "pair": [sign_vector_str(X), sign_vector_str(Y)]}
                )
    by_val: dict[tuple[int, int], set[int]] = {}
    for i, v in enumerate(vectors):
        for g, x in enumerate(v):
            by_val.setdefault((g, x), set()).add(i)
    for xi, X in enumerate(vectors):
        for Y in vectors[xi + 1 :]:
            sep = separation_set(X, Y)
            T = compose_sv(X, Y)
            agree = set(range(len(vectors)))
            for g in range(width):
                if g not in sep:
                    agree &= by_val.get((g, T[g]), set())
            for e in sep:
                if not agree & by_val.get((e, 0), set()):
                    violations.append(
                        {"axiom": "Cov4", "pair": [sign_vector_str(X), sign_vector_str(Y)], "e": e}
                    )
    return Report(ok=not violations, violations=tuple(violations))


def uncomposable_by_restrictions(pairs, full: int) -> set[tuple[int, int]]:
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


def bergman_member_by_levels(y, fan) -> bool:
    """At each finite valuation v of the point, the signs of the
    coordinates of valuation at most v form a vector of the fan's poset."""
    if len(y) != fan.poset.width:
        raise ValueError("point and fan have different lengths")
    for v in sorted({x.val for x in y.coords if x.val != INF}):
        revealed = tuple(x.sign if x.val <= v else 0 for x in y.coords)
        if revealed not in fan.poset:
            return False
    return True


def nullspace(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {x : A x = 0} where the input rows are the equations."""
    rows = linalg.mat(rows)
    if not rows:
        return ()
    ncols = len(rows[0])
    R, pivots = linalg.rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -R[r][fc]
        basis.append(tuple(x))
    return tuple(basis)


def rref_by_fractions(rows) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, zero rows dropped."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        pv = top[c]
        for j in range(ncols):
            top[j] /= pv
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                for j in range(ncols):
                    row[j] -= f * top[j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def const_coordinates_by_fractions(leaf, f) -> tuple[RT, ...]:
    """Signed coordinates of f on a constant leaf: (+-1, 0) or zero, one
    Fraction dot product with a row of the inverse basis each."""
    d = leaf.dim
    basis = [[leaf.basis[j][i].constant_value() for j in range(d)] for i in range(d)]
    unit = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    R, _ = rref_by_fractions([row + e for row, e in zip(basis, unit)])
    values = [as_series(x).constant_value() for x in f]
    out = []
    for row in R:
        lam = sum((a * b for a, b in zip(row[d:], values)), Fraction(0))
        out.append(RT_ZERO if lam == 0 else RT(1 if lam > 0 else -1, 0))
    return tuple(out)


def cramer_coordinates(leaf, f) -> tuple[RT, ...]:
    """Signed coordinates of f in the leaf's basis by Cramer's rule: one
    ``signed_det`` per coordinate, with f in place of that basis vector,
    over the ``signed_det`` of the basis."""
    f = tuple(as_series(x) for x in f)
    basis = leaf.basis
    den = signed_det(basis)
    out = []
    for j in range(len(basis)):
        num = signed_det([f if k == j else basis[k] for k in range(len(basis))])
        out.append(RT_ZERO if num.sign == 0 else RT(num.sign * den.sign, num.val - den.val))
    return tuple(out)


def value_by_levels(leaf, coordinates) -> RT:
    """The seminorm's rule on given coordinates: among those nonzero with a
    finite weight, the first of least level val + weight, in Fractions."""
    levels = [
        (x.val + w, j, x.sign)
        for j, (x, w) in enumerate(zip(coordinates, leaf.weights))
        if x.sign and w != INF
    ]
    if not levels:
        return RT_ZERO
    level, _, sign = min(levels)
    return RT(sign, level)


def _functionals_by_sort(expr) -> list:
    """(functional, weight) pairs of the finite weights in evaluation order:
    a stable sort of left + right by weight puts the left branch first on
    ties, as the composition rule does."""
    if isinstance(expr, DiagonalSeminorm):
        d = expr.dim
        inv = linalg.inverse(
            [[expr.basis[j][i].constant_value() for j in range(d)] for i in range(d)]
        )
        return [(inv[j], w) for j, w in enumerate(expr.weights) if w != INF]
    both = _functionals_by_sort(expr.left) + _functionals_by_sort(expr.right)
    return sorted(both, key=lambda pair: pair[1])


def diagonalize_by_span_tests(expr) -> DiagonalSeminorm:
    """Diagonal form of a constant-coefficient composition, one rank test
    per functional and per completing unit vector."""
    d = expr.dim
    rows: list = []
    weights: list = []
    for phi, w in _functionals_by_sort(expr):
        if linalg.rank(rows + [phi]) > len(rows):
            rows.append(phi)
            weights.append(w)
    for i in range(d):
        e = tuple(Fraction(1 if j == i else 0) for j in range(d))
        if len(rows) < d and linalg.rank(rows + [e]) > len(rows):
            rows.append(e)
            weights.append(INF)
    dual = linalg.inverse(rows)
    cols = tuple(
        tuple(PuiseuxSeries.constant(dual[i][j]) for i in range(d)) for j in range(d)
    )
    return DiagonalSeminorm(cols, tuple(weights))


def solve(rows, b) -> tuple[Fraction, ...] | None:
    """One solution of A x = b, or None when inconsistent."""
    rows = linalg.mat(rows)
    R, pivots = linalg.rref([r + (bb,) for r, bb in zip(rows, linalg.vec(b))])
    ncols = len(rows[0]) if rows else 0
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = R[r][-1]
    return tuple(x)


def span_basis(vectors) -> linalg.Mat:
    """Canonical (rref) basis of the span of the given vectors."""
    return linalg.rref(list(vectors))[0]


def span_eq(vs, ws) -> bool:
    return span_basis(vs) == span_basis(ws)


def subspace_at(flag, level: int) -> linalg.Mat:
    """Canonical basis of the subspace after the first `level` steps."""
    vecs = list(flag.kernel) + [s.vector for s in flag.steps[:level]]
    return span_basis(vecs)


def flags_equivalent_by_chains(F, G) -> bool:
    """Same kernel, same subspace after every step, same weights, and every
    signed G step a positive (or every one a negative) multiple of the
    signed F step modulo the subspace below."""
    if F.dim != G.dim or len(F.steps) != len(G.steps):
        return False
    if not span_eq(F.kernel, G.kernel):
        return False
    for i in range(1, len(F.steps) + 1):
        if subspace_at(F, i) != subspace_at(G, i):
            return False
    if any(a.weight != b.weight for a, b in zip(F.steps, G.steps)):
        return False
    flips = set()
    for i, (fs, gs) in enumerate(zip(F.steps, G.steps)):
        below = list(F.kernel) + [s.vector for s in F.steps[:i]]
        cols = [linalg.vec_scale(fs.region, fs.vector)] + below
        rows = tuple(tuple(col[r] for col in cols) for r in range(F.dim))
        sol = solve(rows, linalg.vec_scale(gs.region, gs.vector))
        if sol is None or sol[0] == 0:
            return False
        flips.add(1 if sol[0] > 0 else -1)
    return len(flips) == 1


def gp_relations_by_hypersums(gp, pair_cap: int = DEFAULT_PAIR_CAP) -> Report:
    """The three-term exchange relations, each alternating sum folded with
    ``hyper_sum_by_cases`` from ``value_on`` products; stops at the first
    failure."""
    m, r = len(gp), gp.rank
    npairs = math.comb(m, r + 1) * math.comb(m, r - 1)
    if npairs > pair_cap:
        raise EnumerationCapError(npairs, pair_cap, "relation enumeration")
    for x in itertools.combinations(range(m), r + 1):
        for y in itertools.combinations(range(m), r - 1):
            terms = []
            for k, xk in enumerate(x):
                left = value_on(gp, x[:k] + x[k + 1 :])
                right = value_on(gp, (xk,) + y)
                t = hyper_mul_by_cases(left, right)
                terms.append(hyper_neg_by_cases(t) if k % 2 else t)
            if not contains_zero_by_cases(hyper_sum_by_cases(terms)):
                return Report(
                    ok=False,
                    violations=({"relation": {"x": list(x), "y": list(y)}},),
                )
    return Report(ok=True, info={"pairs_checked": npairs})


def circuit_axioms_by_hypersums(circuits) -> Report:
    """C0-C3 with RT values: every rescaled circuit is built with
    ``hyper_div_by_cases``/``hyper_mul_by_cases`` and every entry tested
    against their hypersum; the rank witness by
    ``max_independent_by_subsets``."""
    circuits = tuple(circuits)
    violations: list[dict] = []
    if not circuits:
        return Report(ok=True, info={"max_independent": None})
    m = len(circuits[0])

    for i, c in enumerate(circuits):
        if not c.support:
            violations.append({"axiom": "C0", "circuit": i})
        lead = c.entries[c.support[0]] if c.support else None
        if lead is not None and lead != RT(1, 0):
            violations.append({"axiom": "C1", "circuit": i})

    for i, j in itertools.combinations(range(len(circuits)), 2):
        si, sj = set(circuits[i].support), set(circuits[j].support)
        if si <= sj or sj <= si:
            if circuits[i].entries != circuits[j].entries:
                violations.append({"axiom": "C2", "pair": [i, j]})

    for i, j in itertools.permutations(range(len(circuits)), 2):
        a, b = circuits[i], circuits[j]
        for e in sorted(set(a.support) & set(b.support)):
            beta = hyper_div_by_cases(hyper_neg_by_cases(a.entries[e]), b.entries[e])
            cprime = _scaled_by(beta, b.entries)
            for f in range(m):
                if a.entries[f].val < cprime[f].val:
                    if not _eliminate(circuits, a.entries, cprime, e, f):
                        violations.append({"axiom": "C3", "pair": [i, j], "e": e, "f": f})

    max_ind = max_independent_by_subsets(m, [c.support for c in circuits])
    return Report(ok=not violations, violations=tuple(violations), info={"max_independent": max_ind})


def _scaled_by(alpha, entries):
    return tuple(hyper_mul_by_cases(alpha, x) for x in entries)


def _eliminate(circuits, A, Cp, e: int, f: int) -> bool:
    for d in circuits:
        if d.entries[e].sign != 0 or d.entries[f].sign == 0:
            continue
        cand = _scaled_by(hyper_div_by_cases(A[f], d.entries[f]), d.entries)
        if all(_elim_entry_ok(cand[g], A[g], Cp[g]) for g in range(len(A))):
            return True
    return False


def _elim_entry_ok(cg, ag, bg) -> bool:
    comp = ag if ag.val <= bg.val else bg
    if cg.val > comp.val:
        return True
    return hyperset_contains_by_cases(hyper_sum_by_cases([ag, bg]), cg)


def max_independent_by_subsets(m: int, supports) -> int:
    """Size of a largest subset of range(m) containing no support, by
    trying the subsets from the largest size down."""
    sets = [set(s) for s in supports]
    for size in range(m, -1, -1):
        for subset in itertools.combinations(range(m), size):
            if not any(s <= set(subset) for s in sets):
                return size
    return 0


def maximal_cones_by_scan(fan) -> tuple[tuple[int, ...], ...]:
    """The cones no nonzero vector outside the chain can be inserted into:
    below its first element, above its last, or between two neighbours."""
    vectors = fan.poset.vectors

    def extendable(chain):
        lower, upper = vectors[chain[0]], vectors[chain[-1]]
        for i, v in enumerate(vectors):
            if not any(v) or i in chain:
                continue
            if leq_sv(v, lower) or leq_sv(upper, v):
                return True
            for a, b in zip(chain, chain[1:]):
                if leq_sv(vectors[a], v) and leq_sv(v, vectors[b]):
                    return True
        return False

    return tuple(c for c in fan.cones if not extendable(c))


# ---------------------------------------------------------------------------
# Hyperfield operations, one case per hyperfield


def admits_zero_by_lists(terms, signed: bool) -> bool:
    """Whether the hypersum of nonzero (sign, valuation) terms contains
    zero, read off lists: the least valuation by ``min``, the signs that
    reach it as a list and then a set."""
    terms = list(terms)
    if not terms:
        return True
    vstar = min(v for _, v in terms)
    at_min = [s for s, v in terms if v == vstar]
    return len(set(at_min)) == 2 if signed else len(at_min) > 1


def is_zero_by_cases(x: Elem) -> bool:
    return x == 0 if isinstance(x, int) else x.is_zero


def contains_zero_by_cases(s: HyperSet) -> bool:
    """Zero lies in every ball and in the zero singleton."""
    if s.kind == "ball":
        return True
    return is_zero_by_cases(s.element)


def hyper_mul_by_cases(a: Elem, b: Elem) -> Elem:
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


def hyper_neg_by_cases(x: Elem) -> Elem:
    """Additive inverse.  In T and K, -x = x."""
    if isinstance(x, RT):
        return -x
    if isinstance(x, int):
        return -x
    return x


def hyper_div_by_cases(a: Elem, b: Elem) -> Elem:
    """Quotient a/b for nonzero b (signs divide, valuations subtract)."""
    if is_zero_by_cases(b):
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


def hyperset_contains_by_cases(s: HyperSet, x: Elem) -> bool:
    if field_of(x) != s.field:
        raise TypeError("element from a different hyperfield")
    if s.kind == "singleton":
        return x == s.element
    if s.field in ("S", "K"):
        return True
    if is_zero_by_cases(x):
        return True
    v = x.val if isinstance(x, (RT, TV)) else None
    return v >= s.threshold


def hyper_sum_by_cases(xs) -> HyperSet:
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


def hyperset_add_by_cases(A: HyperSet, B: HyperSet) -> HyperSet:
    """Elementwise sum of two hypersets (used to fold sums pairwise).

    The union over a in A, b in B of a + b again has the singleton/ball
    form; this closure is what makes iterated hypersums well defined
    independently of association order.
    """
    if A.field != B.field:
        raise TypeError("hypersets over different hyperfields")
    if A.kind == "singleton" and B.kind == "singleton":
        return hyper_sum_by_cases([A.element, B.element])
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
    if is_zero_by_cases(x) or x.val >= A.threshold:
        return A
    return singleton(x)


def pushmap_by_cases(name: str, x: Elem) -> Elem:
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
        return KV_ZERO if is_zero_by_cases(x) else KV_ONE
    raise ValueError(f"unknown homomorphism {name!r}")


def pushmap_set_by_cases(name: str, s: HyperSet) -> HyperSet:
    """Image of a hyperset under a named homomorphism."""
    if s.kind == "singleton":
        return singleton(pushmap_by_cases(name, s.element))
    if name == "abs":
        return ball("T", s.threshold)
    return ball(pushmap_target(name))


# -- Puiseux-series arithmetic by per-term Fractions --------------------------


def from_terms_by_fractions(pairs) -> PuiseuxSeries:
    acc: dict[Fraction, Fraction] = {}
    for c, q in pairs:
        c, q = Fraction(c), Fraction(q)
        acc[q] = acc.get(q, Fraction(0)) + c
    terms = tuple((c, q) for q, c in sorted(acc.items()) if c != 0)
    return PuiseuxSeries(terms)


def add_by_terms(f: PuiseuxSeries, g: PuiseuxSeries) -> PuiseuxSeries:
    return from_terms_by_fractions(f.terms + g.terms)


def sub_by_terms(f: PuiseuxSeries, g: PuiseuxSeries) -> PuiseuxSeries:
    return add_by_terms(f, -g)


def mul_by_terms(f: PuiseuxSeries, g: PuiseuxSeries) -> PuiseuxSeries:
    if not f.terms or not g.terms:
        return PuiseuxSeries.zero()
    return from_terms_by_fractions(
        (c1 * c2, q1 + q2) for c1, q1 in f.terms for c2, q2 in g.terms
    )


def dot_by_terms(u, v) -> PuiseuxSeries:
    if len(u) != len(v):
        raise ValueError("dot product length mismatch")
    return from_terms_by_fractions(
        (c1 * c2, q1 + q2)
        for a, b in zip(u, v)
        for c1, q1 in a.terms
        for c2, q2 in b.terms
    )


def det_by_fraction_laplace(rows) -> PuiseuxSeries:
    """Determinant of a square matrix of series by division-free Laplace
    expansion along the rows, with subset memoization."""
    n = len(rows)
    if n == 0:
        return from_terms_by_fractions([(1, 0)])

    cache: dict[tuple[int, ...], PuiseuxSeries] = {}

    def minor(cols: tuple[int, ...]) -> PuiseuxSeries:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = cache.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        acc = PuiseuxSeries.zero()
        for j, cidx in enumerate(cols):
            entry = rows[r][cidx]
            if entry.is_zero:
                continue
            sub = minor(cols[:j] + cols[j + 1 :])
            term = mul_by_terms(entry, sub)
            acc = add_by_terms(acc, term) if j % 2 == 0 else sub_by_terms(acc, term)
        cache[cols] = acc
        return acc

    return minor(tuple(range(n)))


def columns_independent(cols) -> bool:
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


def column_rank_by_greedy_minors(cols) -> int:
    """Greedy matroid rank of a list of column vectors."""
    basis: list = []
    for c in cols:
        if columns_independent(basis + [c]):
            basis.append(c)
    return len(basis)


def assignment_potentials_by_infinite_slack(cost):
    """``puiseux._assignment_potentials`` as it ran with the float
    infinity for a column that no edge has reached: the same Hungarian
    loop, with every unreached slack ``math.inf``."""
    n, m = len(cost), len(cost[0]) if cost else 0
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    match = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        slack = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
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
            for j in range(m + 1):
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
    rows = [0] * n
    for j in range(1, m + 1):
        if match[j]:
            rows[match[j] - 1] = j - 1
    return u[1:], v[1:], rows
