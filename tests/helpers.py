"""Deterministic random generators shared across the test modules, a
counter of eliminations, and the small readers, writers and predicates
that only tests use: hyperset helpers, the signed order of RT, unsigned
hyperplane membership, the leaves of a seminorm expression, and the JSON
forms of GP functions, posets, flags and families that no command
reads or writes."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from realtrop import (
    INF,
    RT,
    RT_ZERO,
    CompatibleFamily,
    CovectorPoset,
    DiagonalSeminorm,
    FlagStep,
    GrassmannPlucker,
    GroundSet,
    HyperSet,
    LinearEmbedding,
    ProjPoint,
    PuiseuxSeries,
    SignedFlag,
    ball,
    compose,
    ground_from_matrix,
    linalg,
    parse_puiseux,
    puiseux,
    pushmap,
    singleton,
    tropical,
)
from realtrop.hyperfields import CHAR_SIGNS, admits_zero, is_zero, pushmap_target
from realtrop.jsonio import (
    int_from_json,
    point_to_json,
    sign_from_json,
    val_from_json,
    value_to_json,
    vector_to_json,
)
from realtrop.linalg import rational
from realtrop.puiseux import column_rank, format_series

HALF_INT_EXPONENTS = [Fraction(k, 2) for k in range(0, 5)]


def random_coeff(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2])
    return Fraction(num, den)


def random_series(rng: random.Random, sparse: bool = True) -> PuiseuxSeries:
    """Sparse element with exponents in half-integers."""
    if sparse and rng.random() < 0.35:
        return PuiseuxSeries.zero()
    nterms = rng.choice([1, 1, 1, 2])
    terms = []
    for _ in range(nterms):
        terms.append((random_coeff(rng), rng.choice(HALF_INT_EXPONENTS)))
    return PuiseuxSeries.from_terms(terms)


def random_constant(rng: random.Random, sparse: bool = True) -> PuiseuxSeries:
    if sparse and rng.random() < 0.35:
        return PuiseuxSeries.zero()
    return PuiseuxSeries.constant(random_coeff(rng))


# acceptance criterion 5's alphabet: leading terms that cancel against each other
CANCELLATION = ("1", "-1", "1+t", "1-t", "-1+t", "-1-t", "t", "2", "-2", "1/2")
THIRDS_AND_FIFTHS = [Fraction(k, d) for d in (3, 5) for k in range(-1, 4)]


def random_thirds_and_fifths(rng: random.Random) -> PuiseuxSeries:
    """Element whose exponents have denominators 3 and 5, zero at times."""
    if rng.random() < 0.25:
        return PuiseuxSeries.zero()
    return PuiseuxSeries.from_terms(
        (random_coeff(rng), rng.choice(THIRDS_AND_FIFTHS)) for _ in range(rng.choice([1, 2]))
    )


def random_columns(rng: random.Random, height: int, width: int) -> list[tuple]:
    """Seeded columns for maximal-minor tests: constant, series, mixed,
    exponents over 3 and 5, or the cancellation alphabet, which makes
    leading terms cancel; some sets get a zero column or are rank
    deficient by construction."""
    kind = rng.choice(["constant", "series", "mixed", "thirds-fifths", "cancellation"])
    alphabet = [parse_puiseux(s) for s in CANCELLATION]
    makers = {
        "constant": lambda: random_constant(rng),
        "series": lambda: random_series(rng),
        "thirds-fifths": lambda: random_thirds_and_fifths(rng),
        "cancellation": lambda: rng.choice(alphabet),
    }

    def column():
        name = kind if kind != "mixed" else rng.choice(["constant", "series"])
        return [makers[name]() for _ in range(height)]

    cols = [column() for _ in range(width)]
    shape = rng.random()
    if width and shape < 0.2:
        cols[rng.randrange(width)] = [PuiseuxSeries.zero()] * height
    elif height >= 2 and shape < 0.4:
        # one row a multiple of another: every maximal minor vanishes
        a, b = rng.sample(range(height), 2)
        factor = rng.choice(alphabet)
        for col in cols:
            col[a] = factor * col[b]
    return [tuple(col) for col in cols]


def read_pair(pair, scale: int) -> RT:
    """The RT value of a scaled (sign, k) pair: RT(sign, k/scale), and
    zero for sign 0."""
    sign, k = pair
    return RT(sign, Fraction(k, scale)) if sign else RT_ZERO


def random_matrix_rows(rng, height, width, constant=False):
    gen = random_constant if constant else random_series
    return [[gen(rng) for _ in range(width)] for _ in range(height)]


def random_full_rank_ground(rng, height, width, constant=False) -> GroundSet:
    """Spanning column set; regenerates until the columns span."""
    while True:
        rows = random_matrix_rows(rng, height, width, constant=constant)
        cols = [tuple(rows[i][j] for i in range(height)) for j in range(width)]
        if column_rank(cols) == height:
            return ground_from_matrix(rows)


def random_embedding(rng, height, width, constant=False) -> LinearEmbedding:
    g = random_full_rank_ground(rng, height, width, constant=constant)
    return LinearEmbedding(g.columns)


def random_invertible_constant_basis(rng, dim):
    while True:
        cols = tuple(
            tuple(PuiseuxSeries.constant(rng.randint(-3, 3)) for _ in range(dim))
            for _ in range(dim)
        )
        try:
            DiagonalSeminorm(cols, (Fraction(0),) * dim)
        except ValueError:
            continue
        return cols


def random_weights(rng, dim, allow_inf=True, start_zero=True):
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    ws = sorted(rng.choice(pool) for _ in range(dim))
    if start_zero:
        ws = [w - ws[0] for w in ws]
    n_inf = rng.choice([0, 0, 0, 1]) if allow_inf and dim > 1 else 0
    out = ws[: dim - n_inf] + [INF] * n_inf
    return tuple(out)


def random_diagonal(rng, dim, constant=True, allow_inf=True) -> DiagonalSeminorm:
    basis = (
        random_invertible_constant_basis(rng, dim)
        if constant
        else _random_invertible_series_basis(rng, dim)
    )
    return DiagonalSeminorm(basis, random_weights(rng, dim, allow_inf=allow_inf))


def _random_invertible_series_basis(rng, dim):
    while True:
        cols = tuple(
            tuple(random_series(rng) for _ in range(dim)) for _ in range(dim)
        )
        try:
            DiagonalSeminorm(cols, (Fraction(0),) * dim)
        except ValueError:
            continue
        return cols


def random_expression(rng, dim, n_leaves, constant=True):
    exprs = [
        random_diagonal(rng, dim, constant=constant) for _ in range(n_leaves)
    ]
    while len(exprs) > 1:
        i = rng.randrange(len(exprs) - 1)
        merged = compose(exprs[i], exprs.pop(i + 1))
        exprs[i] = merged
    return exprs[0]


def random_rational_vector(rng, dim, lo=-6, hi=6):
    while True:
        v = tuple(Fraction(rng.randint(lo, hi)) for _ in range(dim))
        if any(v):
            return v


def random_series_vector(rng, dim):
    while True:
        v = tuple(random_series(rng) for _ in range(dim))
        if any(not x.is_zero for x in v):
            return v


def normalized_grid(width, vals=(0, 1)):
    """Every normalized point whose coordinates have the given valuations."""
    states = [RT_ZERO]
    for v in vals:
        states.append(RT(1, v))
        states.append(RT(-1, v))
    for first in range(width):
        head = (RT_ZERO,) * first + (RT(1, 0),)
        for rest in itertools.product(states, repeat=width - first - 1):
            yield ProjPoint(head + rest)


def count_eliminations(monkeypatch) -> dict:
    """Counts of the calls to ``puiseux.int_functionals`` (one per
    ``BasisCertificate``), ``linalg.rref`` and ``linalg.inverse``, by
    name, from now until the test ends."""
    calls = {}
    for module, name in [(puiseux, "int_functionals"), (linalg, "rref"), (linalg, "inverse")]:
        calls[name] = 0

        def counting(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


# -- hyperfields, points and seminorms ----------------------------------------


def contains_zero(s: HyperSet) -> bool:
    """Zero lies in every ball and in the zero singleton."""
    return s.kind == "ball" or is_zero(s.element)


def pushmap_set(name: str, s: HyperSet) -> HyperSet:
    """Image of a hyperset under a named homomorphism."""
    if s.kind == "singleton":
        return singleton(pushmap(name, s.element))
    return ball(pushmap_target(name), s.threshold)


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


def unsigned_hyperplane_member(y: ProjPoint, circuit) -> bool:
    """Valuation-only membership: the least product valuation repeats."""
    return admits_zero(tropical._product_terms(y, circuit), signed=False)


def sign_vector(circuit) -> tuple[int, ...]:
    """The signs of a signed circuit's entries."""
    return tuple(x.sign for x in circuit.entries)


def leaves(expr):
    if isinstance(expr, DiagonalSeminorm):
        yield expr
    else:
        yield from leaves(expr.left)
        yield from leaves(expr.right)


# -- JSON forms no command reads or writes -------------------------------------


def parse_sign_vector(s: str) -> tuple[int, ...]:
    try:
        return tuple(CHAR_SIGNS[ch] for ch in s.strip())
    except KeyError as exc:
        raise ValueError(f"bad sign vector {s!r}") from exc


def gp_to_json(gp: GrassmannPlucker) -> dict:
    return {
        "rank": gp.rank,
        "ground": list(gp.labels),
        "hyperfield": gp.hyperfield,
        "values": [
            {"tuple": list(t), "value": value_to_json(v)}
            for t, v in sorted(gp.values.items())
        ],
    }


def poset_from_json(obj) -> CovectorPoset:
    """The poset of the vectors; given covers must be the derived ones."""
    poset = CovectorPoset(tuple(parse_sign_vector(s) for s in obj["vectors"]))
    derived = poset.covers  # also rejects vectors of unequal length
    covers = obj.get("covers", derived)
    if tuple(tuple(int_from_json(i, "cover index") for i in c) for c in covers) != derived:
        raise ValueError("covers do not match the vectors")
    return poset


def _frac_vec_from_json(obj):
    """A rational vector read from JSON ints and "p/q" strings
    (``linalg.rational``); bools and floats are rejected."""
    for x in obj:
        if isinstance(x, (bool, float)):
            raise ValueError(f"bad rational coordinate {x!r}")
    return tuple(rational(x) for x in obj)


def flag_from_json(obj) -> SignedFlag:
    kernel = tuple(_frac_vec_from_json(v) for v in obj["kernel"])
    steps = tuple(
        FlagStep(
            _frac_vec_from_json(s["vector"]),
            val_from_json(s["weight"]),
            sign_from_json(s["region"]),
        )
        for s in obj["steps"]
    )
    return SignedFlag(kernel, steps)


def embedding_to_json(emb: LinearEmbedding) -> list:
    return [[format_series(col[i]) for col in emb.columns] for i in range(emb.height)]


def family_to_json(fam: CompatibleFamily, probes=()) -> dict:
    return {
        "members": [
            {"embedding": embedding_to_json(emb), "point": point_to_json(pt)}
            for emb, pt in fam.members
        ],
        "morphisms": [
            {"src": m.src, "dst": m.dst, "map": list(m.index_map)} for m in fam.morphisms
        ],
        "probes": [vector_to_json(p) for p in probes],
    }
