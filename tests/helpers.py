"""Deterministic random generators shared across the test modules, and a
counter of eliminations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from realtrop import (
    INF,
    RT,
    RT_ZERO,
    DiagonalSeminorm,
    GroundSet,
    LinearEmbedding,
    ProjPoint,
    PuiseuxSeries,
    compose,
    ground_from_matrix,
    linalg,
    parse_puiseux,
    puiseux,
)
from realtrop.puiseux import column_rank

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
