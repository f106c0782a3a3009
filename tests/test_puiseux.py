import collections
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from realtrop import (
    INF,
    RT_ZERO,
    FineValue,
    LinearEmbedding,
    PuiseuxParseError,
    PuiseuxSeries,
    RT,
    RankDeficientError,
    as_series,
    compare,
    det,
    fval,
    hyper_mul,
    hyper_sum,
    hyperset_contains,
    parse_puiseux,
    signed_det,
    signed_value,
)
from realtrop import matroids, puiseux
from realtrop.puiseux import DET_SIZE_BOUND
from realtrop.linalg import int_det_sign

from helpers import random_columns, random_constant, random_series, read_pair
from oracles import (
    add_by_terms,
    assignment_potentials_by_infinite_slack,
    column_rank_by_greedy_minors,
    det_by_fraction_laplace,
    dot_by_terms,
    from_terms_by_fractions,
    mul_by_terms,
    sub_by_terms,
)

t = PuiseuxSeries.t_power
const = PuiseuxSeries.constant

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exponents = st.integers(min_value=-2, max_value=5).map(lambda k: Fraction(k, 2))
series = st.lists(st.tuples(coeffs, exponents), max_size=4).map(
    PuiseuxSeries.from_terms
)


# -- parsing and printing -----------------------------------------------------


def test_parse_zero():
    assert parse_puiseux("0").is_zero


def test_parse_mixed_literal():
    f = parse_puiseux("-2*t^(1/2) + t")
    assert f.terms == ((Fraction(-2), Fraction(1, 2)), (Fraction(1), Fraction(1)))


def test_square_of_cube_root():
    g = parse_puiseux("t^(1/3)")
    assert (g * g).terms == ((Fraction(1), Fraction(2, 3)),)


def test_parse_rejects_garbage_with_position():
    with pytest.raises(PuiseuxParseError):
        parse_puiseux("2 +")
    with pytest.raises(PuiseuxParseError):
        parse_puiseux("t^^2")
    with pytest.raises(PuiseuxParseError):
        parse_puiseux("")


def test_exponent_denominator_bound():
    parse_puiseux("t^(1/7)", max_exp_denominator=7)
    with pytest.raises(PuiseuxParseError):
        parse_puiseux("t^(1/7)", max_exp_denominator=6)


@given(series)
def test_print_parse_roundtrip(f):
    assert parse_puiseux(str(f)) == f


# -- ring operations ----------------------------------------------------------


def test_additive_inverse():
    assert (t(1) + (-t(1))).is_zero


def test_product_expansion():
    one_plus = const(1) + t(1)
    one_minus = const(1) - t(1)
    assert one_plus * one_minus == const(1) - t(2)


def test_negation():
    f = parse_puiseux("-2*t^(1/2) + t")
    assert -f == parse_puiseux("2*t^(1/2) - t")


@given(series, series, series)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + PuiseuxSeries.zero() == f
    assert f * PuiseuxSeries.constant(1) == f


# -- order ---------------------------------------------------------------------


def test_compare_examples():
    assert compare(t(1), PuiseuxSeries.zero()) == 1
    f = parse_puiseux("1 - t")
    assert compare(f, f) == 0
    assert compare(t(1), t(1) * t(1)) == 1


@given(series, series)
def test_order_compatible_with_valuation(f, g):
    assume(f.sign >= 0 and (g - f).sign >= 0)  # 0 <= f <= g
    assert f.valuation >= g.valuation


@given(series, series)
def test_dominant_term_controls_sign(f, g):
    assume(f.valuation < g.valuation)
    assert (f + g).sign == f.sign == (f - g).sign


# -- signed values ---------------------------------------------------------------


def test_signed_value_examples():
    assert signed_value(PuiseuxSeries.zero()) == RT(0, INF)
    assert signed_value(parse_puiseux("-2*t^(1/2) + t")) == RT(-1, Fraction(1, 2))


@given(series, series)
def test_signed_value_multiplicative(f, g):
    assert signed_value(f * g) == hyper_mul(signed_value(f), signed_value(g))


@given(series, series)
def test_signed_value_additive_membership(f, g):
    s = hyper_sum([signed_value(f), signed_value(g)])
    assert hyperset_contains(s, signed_value(f + g))


# -- determinants -----------------------------------------------------------------


def test_det_examples():
    eye3 = [[const(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert det(eye3) == const(1)
    assert det([["0", "1"], ["1", "1"]]) == const(-1)
    assert det([["1", "0"], ["0", "t"]]) == t(1)


def _perm_sign(perm):
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return (-1) ** inv


def test_det_alternating_under_row_permutations():
    rng = random.Random(7)
    for n in (2, 3, 4):
        rows = [
            [PuiseuxSeries.from_terms([(rng.randint(-3, 3), Fraction(rng.randint(0, 2), 2))])
             for _ in range(n)]
            for _ in range(n)
        ]
        base = det(rows)
        for perm in itertools.permutations(range(n)):
            permuted = [rows[i] for i in perm]
            expected = base if _perm_sign(perm) > 0 else -base
            assert det(permuted) == expected


def test_det_multilinear_in_a_row():
    rng = random.Random(11)
    rows = [[PuiseuxSeries.constant(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    scaled = [rows[0], [t(1) * x for x in rows[1]], rows[2]]
    assert det(scaled) == t(1) * det(rows)


# -- signed determinants -----------------------------------------------------------

# acceptance criterion 5's alphabet: leading terms that cancel against each other
CANCELLATION = [
    parse_puiseux(s) for s in ("1", "-1", "1+t", "1-t", "-1+t", "-1-t", "t", "2", "-2", "1/2")
]


def _differential_matrix(rng, n):
    """A seeded n x n matrix; some are singular or have no perfect matching
    by construction."""
    kind = rng.randrange(4)
    if kind == 3:
        def entry():
            return rng.choice(CANCELLATION)
    elif kind == 2:
        def entry():
            return random_constant(rng, sparse=rng.random() < 0.5)
    else:
        sparse = kind == 0
        def entry():
            return random_series(rng, sparse=sparse)
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    shape = rng.random()
    if n >= 2 and shape < 0.15:
        # one row a multiple of another: det vanishes exactly
        a, b = rng.sample(range(n), 2)
        factor = rng.choice(CANCELLATION)
        rows[a] = [factor * x for x in rows[b]]
    elif n >= 1 and shape < 0.25:
        # k rows that vanish outside k - 1 columns: no perfect matching
        k = rng.randint(1, n)
        for i in range(k):
            for j in range(n - k + 1):
                rows[i][j] = PuiseuxSeries.zero()
    return rows


def test_signed_det_matches_elimination(monkeypatch):
    exact = puiseux.det
    assignment = puiseux._assignment_potentials
    fallbacks, unmatched = [], []

    def counting_det(rows, *args, **kwargs):
        if len(rows) > 2:
            fallbacks.append(len(rows))
        return exact(rows, *args, **kwargs)

    def counting_assignment(cost):
        got = assignment(cost)
        if got is None:
            unmatched.append(len(cost))
        return got

    monkeypatch.setattr(puiseux, "det", counting_det)
    monkeypatch.setattr(puiseux, "_assignment_potentials", counting_assignment)
    rng = random.Random(2024)
    # the exact elimination's entries grow with n, so large n are drawn less often
    sizes = rng.choices(range(7), weights=(1, 1, 2, 10, 10, 3, 1), k=2000)
    assert set(sizes) == set(range(7))
    for n in sizes:
        rows = _differential_matrix(rng, n)
        assert signed_det(rows) == signed_value(exact(rows)), rows
    assert fallbacks
    assert unmatched


def test_signed_det_of_the_transpose(monkeypatch):
    # callers pass columns as rows: same value, and the fallback fires alike
    exact = puiseux.det
    fallbacks = []

    def counting_det(rows):
        fallbacks.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(puiseux, "det", counting_det)
    rng = random.Random(2025)
    fell_back = 0
    for n in rng.choices(range(7), weights=(1, 1, 2, 10, 10, 3, 1), k=1500):
        rows = _differential_matrix(rng, n)
        fallbacks.clear()
        got = signed_det(rows)
        once = len(fallbacks)
        assert signed_det([list(col) for col in zip(*rows)]) == got, rows
        assert len(fallbacks) == 2 * once, rows
        fell_back += once
    assert fell_back


def test_signed_det_examples():
    assert signed_det([]) == RT(1, 0)
    assert signed_det([["t^(1/2)"]]) == RT(1, Fraction(1, 2))
    assert signed_det([["1", "t", "0"], ["t", "1", "0"], ["0", "0", "-t"]]) == RT(-1, 1)
    # leading terms cancel: det = (1+t)(1-t) - 1 = -t^2
    assert signed_det([["1+t", "1", "0"], ["1", "1-t", "0"], ["0", "0", "1"]]) == RT(-1, 2)
    assert signed_det([["t", "1", "0"], ["0", "0", "2"], ["0", "0", "3"]]) == RT_ZERO


def test_small_signed_det_expands_only_when_leading_terms_cancel(monkeypatch):
    exact = puiseux.det
    cancelling = [["1+t", "1"], ["1", "1-t"]]  # det = -t^2

    def no_elimination(rows):
        raise AssertionError("exact elimination of a certified matrix")

    monkeypatch.setattr(puiseux, "det", no_elimination)
    assert signed_det([]) == RT(1, 0)
    assert signed_det([["0"]]) == RT_ZERO
    assert signed_det([["-2*t^(1/3)+t"]]) == RT(-1, Fraction(1, 3))
    assert signed_det([["1", "2"], ["3", "4"]]) == RT(-1, 0)
    assert signed_det([["t", "1"], ["1", "t"]]) == RT(-1, 0)
    assert signed_det([["t", "0"], ["1", "0"]]) == RT_ZERO
    monkeypatch.setattr(puiseux, "det", exact)
    assert signed_det(cancelling) == RT(-1, 2)


def test_dot_equals_the_sum_of_products():
    rng = random.Random(91)
    for _ in range(300):
        n = rng.randint(0, 5)
        u = [random_series(rng, sparse=rng.random() < 0.5) for _ in range(n)]
        v = [rng.choice(CANCELLATION + [PuiseuxSeries.zero()]) for _ in range(n)]
        expected = PuiseuxSeries.zero()
        for a, b in zip(u, v):
            expected = add_by_terms(expected, mul_by_terms(a, b))
        assert puiseux.dot(u, v) == expected
    with pytest.raises(ValueError, match="length mismatch"):
        puiseux.dot([t(1)], [])


# -- the integer kernel against per-term Fraction arithmetic ----------------------


def _wide_series(rng, max_terms=4):
    """A series beyond tests/helpers: exponent denominators 1, 2, 3, 4 and 6,
    negative exponents, coefficient denominators up to 7, and now and then
    zero or a member of the cancellation alphabet."""
    kind = rng.random()
    if kind < 0.15:
        return PuiseuxSeries.zero()
    if kind < 0.35:
        return rng.choice(CANCELLATION)
    return from_terms_by_fractions(
        (Fraction(rng.randint(-7, 7), rng.randint(1, 7)),
         Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3, 4, 6))))
        for _ in range(rng.randint(1, max_terms))
    )


def _raw_pairs(rng):
    """(coefficient, exponent) pairs as ints, Fractions and strings, with
    repeated exponents, zero coefficients and pairs that cancel."""
    pairs = list(_wide_series(rng).terms)
    pairs += [(c / 2, q) for c, q in pairs if rng.random() < 0.3]
    pairs += [(-c, q) for c, q in pairs if rng.random() < 0.5]
    pairs += [(0, Fraction(rng.randint(-3, 3), 2))] * rng.randint(0, 1)
    rng.shuffle(pairs)
    forms = (lambda x: x, str, lambda x: int(x) if x.denominator == 1 else x)
    return [(rng.choice(forms)(c), rng.choice(forms)(q)) for c, q in pairs]


def _wide_matrix(rng, n):
    rows = [[_wide_series(rng, max_terms=2) for _ in range(n)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.2:
        # one row a multiple of another: the expansion cancels to zero
        a, b = rng.sample(range(n), 2)
        factor = _wide_series(rng)
        rows[a] = [mul_by_terms(factor, x) for x in rows[b]]
    return rows


def _assert_canonical(f):
    assert type(f) is PuiseuxSeries
    for c, q in f.terms:
        assert type(c) is Fraction and type(q) is Fraction
        assert c != 0
    exponents = [q for _, q in f.terms]
    assert all(p < q for p, q in zip(exponents, exponents[1:]))


def test_ring_operations_match_per_term_fractions():
    rng = random.Random(1111)
    cancelled = 0
    for _ in range(400):
        f, g = _wide_series(rng), _wide_series(rng)
        if rng.random() < 0.1:
            g = f
        got = [f * g, f + g, f - g, f + (-g)]
        want = [mul_by_terms(f, g), add_by_terms(f, g), sub_by_terms(f, g), sub_by_terms(f, g)]
        for x, y in zip(got, want):
            _assert_canonical(x)
            assert x.terms == y.terms, (f, g)
        cancelled += (f - g).is_zero
        pairs = _raw_pairs(rng)
        built = PuiseuxSeries.from_terms(pairs)
        _assert_canonical(built)
        assert built.terms == from_terms_by_fractions(pairs).terms, pairs
    assert cancelled


def test_dot_matches_per_term_fractions():
    rng = random.Random(2222)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        u = [_wide_series(rng) for _ in range(n)]
        v = [_wide_series(rng) for _ in range(n)]
        if rng.random() < 0.2:
            # u = (a, a), v = (b, -b): the products cancel pairwise
            a, b = _wide_series(rng), _wide_series(rng)
            u, v = u + [a, a], v + [b, -b]
        got = puiseux.dot(u, v)
        _assert_canonical(got)
        assert got.terms == dot_by_terms(u, v).terms, (u, v)
        cancelled += n > 0 and got.is_zero
    assert puiseux.dot([], []) == PuiseuxSeries.zero()
    assert cancelled


def test_integer_form_is_canonical_like_the_terms():
    # the int fields against the Fraction view: rebuilding from the view
    # gives an equal series with an equal hash, equality is equality of the
    # views, and the order is the sign of the per-term difference
    rng = random.Random(1616)
    equal = below = 0
    for _ in range(400):
        f = _wide_series(rng)
        g = rng.choice([-f, _wide_series(rng), rng.choice(CANCELLATION), parse_puiseux(str(f))])
        rebuilt = PuiseuxSeries(f.terms)
        assert rebuilt == f and hash(rebuilt) == hash(f), f
        assert (f == g) == (f.terms == g.terms), (f, g)
        assert (f != g) == (f.terms != g.terms), (f, g)
        assert f != g or hash(f) == hash(g), (f, g)
        assert pickle.loads(pickle.dumps(f)) == copy.copy(f) == f
        lead = sub_by_terms(f, g).leading()
        assert (f < g) == (lead is not None and lead[0] < 0), (f, g)
        equal += f == g
        below += f < g
        with pytest.raises(AttributeError):
            f.terms = ()
        with pytest.raises(AttributeError):
            f._ints = ()
    assert equal and below


def test_det_matches_per_term_fraction_laplace():
    rng = random.Random(3333)
    # a few draws at n = 7 and 8, where the reference is slow
    sizes = rng.choices(range(7), weights=(1, 2, 4, 8, 6, 3, 1), k=200) + [8, 7, 7]
    assert set(sizes) == set(range(9))
    vanished = 0
    for n in sizes:
        rows = _wide_matrix(rng, n)
        got = det(rows)
        _assert_canonical(got)
        assert got.terms == det_by_fraction_laplace(rows).terms, rows
        vanished += got.is_zero
    assert vanished


def test_one_accumulation_per_operation(monkeypatch):
    kernel = puiseux._sum_of_products
    calls = []

    def counting(products):
        calls.append(products)
        return kernel(products)

    rng = random.Random(4444)
    f, g = _wide_series(rng), parse_puiseux("1 - 2/3*t^(1/2)")
    u = [_wide_series(rng) for _ in range(5)]
    rows = [[parse_puiseux(f"{i + 1} + {j - 2}*t^(1/3)") for j in range(4)] for i in range(4)]
    monkeypatch.setattr(puiseux, "_sum_of_products", counting)
    f * g
    assert len(calls) == 1
    puiseux.dot(u, u)
    assert len(calls) == 2
    calls.clear()
    got = det(rows)
    # det is one fraction-free elimination on int polynomials, not kernel calls
    assert not calls
    assert got == det_by_fraction_laplace(rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda: as_series(True),
        lambda: as_series(0.5),
        lambda: PuiseuxSeries.from_terms([(1.5, 0.5)]),
        lambda: PuiseuxSeries.from_terms([(1, True)]),
        lambda: const(0.25),
        lambda: const(False),
        lambda: t(True, 2),
        lambda: t(1, 2.0),
    ],
    ids=["as_series-bool", "as_series-float", "from_terms-float", "from_terms-bool",
         "constant-float", "constant-bool", "t_power-bool", "t_power-float"],
)
def test_bools_and_floats_are_not_ring_scalars(build):
    with pytest.raises(TypeError):
        build()


def test_ints_fractions_and_strings_are_ring_scalars():
    half = Fraction(1, 2)
    assert as_series(3) == as_series(Fraction(3)) == as_series("3") == const("3")
    assert PuiseuxSeries.from_terms([(1, "1/2"), ("3/4", half)]) == t(half, Fraction(7, 4))
    assert t("1/2", 2) == t(half, "2") == parse_puiseux("2*t^(1/2)")


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "t", "0"], ["t"], ["1", "1", "1"]],
        [["1", "t", "0"], ["t", "1", "0"]],
        [[const(1)] * (DET_SIZE_BOUND + 1) for _ in range(DET_SIZE_BOUND + 1)],
        [[t(1)] * (DET_SIZE_BOUND + 1) for _ in range(DET_SIZE_BOUND + 1)],
    ],
    ids=["ragged", "non-square", "over-bound-constant", "over-bound-series"],
)
def test_signed_det_rejects_input_like_det(monkeypatch, rows):
    with pytest.raises(ValueError) as expected:
        det(rows)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input checks")

    for name in ("det", "int_det_sign", "_assignment_potentials"):
        monkeypatch.setattr(puiseux, name, no_work)
    with pytest.raises(ValueError) as got:
        signed_det(rows)
    assert str(got.value) == str(expected.value)


def _alphabet_columns(rng, height, width):
    """Columns over the cancellation alphabet and zero, with constant and
    series columns mixed."""
    series = CANCELLATION + [PuiseuxSeries.zero()]
    constants = [x for x in series if x.is_constant]
    return [
        tuple(rng.choice(rng.choice([series, constants])) for _ in range(height))
        for _ in range(width)
    ]


def test_maximal_minors_equal_signed_det(monkeypatch):
    # every maximal minor, a (sign, k) pair read over the table's scale,
    # against signed_det of its columns, with the rows of every exact
    # det recorded on both sides: the same minors fall back, in the same
    # order; the shapes lie on both sides of the expansion rule, tall
    # near-square ones (5 x 5 up to 6 x 7) taken minor by minor
    exact = puiseux.det
    fallbacks = []

    def recording_det(rows):
        fallbacks.append(tuple(map(tuple, rows)))
        return exact(rows)

    monkeypatch.setattr(puiseux, "det", recording_det)
    rng = random.Random(1515)
    seen = collections.Counter()
    for trial in range(500):
        height = rng.randint(5, 6) if trial % 25 == 0 else rng.randint(0, 4)
        width = rng.randint(height, height + 1 if height > 4 else 7)
        make = random_columns if trial % 2 else _alphabet_columns
        cols = make(rng, height, width)
        fallbacks.clear()
        table, scale = puiseux.maximal_minors(cols)
        ours = fallbacks[:]
        fallbacks.clear()
        tuples = list(itertools.combinations(range(width), height))
        expected = {tup: signed_det([cols[j] for j in tup]) for tup in tuples}
        assert list(table) == tuples
        assert {tup: read_pair(p, scale) for tup, p in table.items()} == expected, cols
        assert ours == fallbacks, cols
        assert all(p[0] or p == (0, 0) for p in table.values())
        seen["fallback"] += len(ours)
        seen["tall"] += height > 4
        for sign, _ in table.values():
            seen["zero" if sign == 0 else "nonzero"] += 1
    assert min(seen.values()) > 10, seen


@pytest.mark.parametrize(
    "height, width, expands",
    [(4, 6, True), (6, 12, True), (5, 6, False), (10, 12, False), (12, 12, False)],
)
def test_maximal_minors_expand_when_the_subsets_are_few(monkeypatch, height, width, expands):
    # the expansion runs when sum(k C(w, k)) <= h^2 C(w, h); otherwise
    # each minor is certified on its own
    rng = random.Random(height * 100 + width)
    cols = [[const(rng.randint(-3, 3)) for _ in range(height)] for _ in range(width)]
    real, certified = puiseux._certified, []

    def counting(*args):
        certified.append(args)
        return real(*args)

    monkeypatch.setattr(puiseux, "_certified", counting)
    table, scale = puiseux.maximal_minors(cols)
    assert len(table) == math.comb(width, height) and scale == 1
    assert len(certified) == (0 if expands else len(table))


def test_maximal_minors_check_their_input():
    with pytest.raises(ValueError, match=f"^matrix size 13 exceeds bound {DET_SIZE_BOUND}$"):
        puiseux.maximal_minors([[t(1)] * (DET_SIZE_BOUND + 1)] * (DET_SIZE_BOUND + 1))
    with pytest.raises(ValueError, match="^ragged matrix$"):
        puiseux.maximal_minors([["1", "t"], ["1"]])
    table, scale = puiseux.maximal_minors([["1", "t"], ["t", "1"], ["0", "2"]])
    assert {tup: read_pair(p, scale) for tup, p in table.items()} == {
        (0, 1): RT(1, 0), (0, 2): RT(1, 0), (1, 2): RT(1, 1)
    }
    assert puiseux.maximal_minors([]) == ({(): (1, 0)}, 1)


@pytest.mark.parametrize("text", ["0.25", "1e3", "1_0", "1/0", "1/2/3", "", "t"])
def test_rational_strings_outside_the_grammar_are_not_ring_scalars(text):
    for build in (const, lambda x: t(x, 1), lambda x: t(1, x),
                  lambda x: PuiseuxSeries.from_terms([(x, 0)])):
        with pytest.raises(ValueError, match=f"^bad rational {text!r}$"):
            build(text)


def test_column_rank_matches_greedy_minors():
    # tall and wide column sets, some rank deficient by construction,
    # against the greedy search over row-subset minors
    rng = random.Random(77)
    deficient = tall = wide = 0
    for _ in range(150):
        height, k = rng.randint(1, 6), rng.randint(1, 6)
        wide_series = rng.random() < 0.5

        def entry():
            if wide_series:
                return _wide_series(rng, max_terms=2)
            return rng.choice(CANCELLATION + [PuiseuxSeries.zero()])

        cols = [[entry() for _ in range(height)] for _ in range(k)]
        if rng.random() < 0.3:
            # the last column a combination of two others
            a, b, f, g = rng.choice(cols), rng.choice(cols), entry(), entry()
            cols[-1] = [f * x + g * y for x, y in zip(a, b)]
        expected = column_rank_by_greedy_minors(cols)
        assert puiseux.column_rank(cols) == expected, cols
        deficient += expected < min(height, k)
        tall += height > k
        wide += height < k
    assert deficient and tall and wide


def _unmatched_columns(rng, height, width):
    """Columns where k lines of the shorter side vanish outside k - 1 lines
    of the other: no matching covers the shorter side."""
    cols = random_columns(rng, height, width)
    short, long = min(height, width), max(height, width)
    k = rng.randint(1, short)
    for i in range(k):
        for j in range(long - k + 1):
            # line i of the shorter side, entry j of the longer side
            row, col = (i, j) if height <= width else (j, i)
            cols[col] = cols[col][:row] + (PuiseuxSeries.zero(),) + cols[col][row + 1 :]
    return cols


def test_column_rank_matches_elimination_and_greedy_minors(monkeypatch):
    # the assignment certificate against the pivot count of the exact
    # elimination and the greedy search over row-subset minors, on the
    # seeded column sets of tests/helpers.py (cancellation alphabet
    # included): tall, wide, rank deficient and unmatched
    eliminate = puiseux._eliminate
    fallbacks = []

    def counting(rows):
        fallbacks.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(puiseux, "_eliminate", counting)
    rng = random.Random(3131)
    seen = {"certified": 0, "fell back": 0, "deficient": 0, "tall": 0, "wide": 0}
    for trial in range(400):
        height, width = rng.randint(1, 5), rng.randint(1, 7)
        if trial % 4 == 3:
            cols = _unmatched_columns(rng, height, width)
        else:
            cols = random_columns(rng, height, width)
        fallbacks.clear()
        got = puiseux.column_rank(cols)
        seen["fell back" if fallbacks else "certified"] += 1
        expected = column_rank_by_greedy_minors(cols)
        assert got == expected == eliminate(puiseux.coerce_matrix(cols))[0], cols
        seen["deficient"] += expected < min(height, width)
        seen["tall"] += height > width
        seen["wide"] += height < width
    assert all(seen.values()), seen
    assert puiseux.column_rank([]) == puiseux.column_rank([(), ()]) == 0


def test_rectangular_assignment_potentials_are_feasible_tight_and_optimal():
    # n <= m cost tables with missing edges: the potentials bound every
    # edge, are tight on the matching, and the matching costs the least
    # over all ways to match every row; None exactly when there is none
    rng = random.Random(3232)
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        density = rng.choice((0.3, 0.6, 1.0))
        cost = [
            [rng.randint(-4, 6) if rng.random() < density else None for _ in range(m)]
            for _ in range(n)
        ]
        costs = [
            sum(cost[i][j] for i, j in enumerate(cols))
            for cols in itertools.permutations(range(m), n)
            if all(cost[i][j] is not None for i, j in enumerate(cols))
        ]
        found = puiseux._assignment_potentials(cost)
        outcomes.add(found is None)
        if found is None:
            assert not costs, cost
            continue
        u, v, match = found
        assert len(u) == n and len(v) == m and len(set(match)) == n, cost
        for i in range(n):
            for j in range(m):
                if cost[i][j] is not None:
                    assert u[i] + v[j] <= cost[i][j], (cost, i, j)
            assert cost[i][match[i]] == u[i] + v[match[i]], (cost, i)
        assert sum(cost[i][j] for i, j in enumerate(match)) == min(costs), cost
    assert outcomes == {True, False}


def test_assignment_potentials_match_the_infinite_slack_loop():
    # the same (u, v, match), or None, on int tables with missing edges,
    # rows with no edge and columns with no edge
    rng = random.Random(27)
    outcomes = collections.Counter()
    for _ in range(3000):
        n = rng.randint(0, 5)
        m = rng.randint(n, 7)
        density = rng.choice((0.2, 0.5, 0.8, 1.0))
        cost = [[rng.randint(-9, 9) if rng.random() < density else None for _ in range(m)] for _ in range(n)]
        if n and rng.random() < 0.2:
            cost[rng.randrange(n)] = [None] * m
        if m and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in cost:
                row[j] = None
        got = puiseux._assignment_potentials(cost)
        assert got == assignment_potentials_by_infinite_slack(cost), cost
        outcomes[got is None] += 1
    assert min(outcomes[True], outcomes[False]) > 300


def test_column_rank_of_a_tall_deficient_matrix_takes_no_determinant(monkeypatch):
    # 27 columns of height 12 and rank 6, from a 12 x 6 times a 6 x 27
    # factor, each of rank 6 by a nonzero minor; a greedy search over
    # row-subset minors takes C(12, 7) of them per dependent column
    rng = random.Random(1227)
    left = [[random_series(rng, sparse=False) for _ in range(6)] for _ in range(12)]
    right = [[random_series(rng, sparse=False) for _ in range(27)] for _ in range(6)]
    assert signed_det(left[:6]) != RT_ZERO
    assert signed_det([row[:6] for row in right]) != RT_ZERO
    cols = [[puiseux.dot(row, [r[j] for r in right]) for row in left] for j in range(27)]

    def no_det(*args):
        raise AssertionError("a determinant taken for a rank")

    for name in ("det", "signed_det", "maximal_minors"):
        monkeypatch.setattr(puiseux, name, no_det)
    monkeypatch.setattr(matroids, "maximal_minors", no_det)
    assert puiseux.column_rank(cols) == 6
    with pytest.raises(RankDeficientError, match="^columns do not span$"):
        LinearEmbedding(cols)


def test_int_det_sign_examples():
    assert int_det_sign([]) == 1
    assert int_det_sign([[-1]]) == -1
    assert int_det_sign([[0, 1], [1, 0]]) == -1
    assert int_det_sign([[1, 2], [2, 4]]) == 0
    assert int_det_sign([[2, 12, 0], [2, 1, 6], [0, 1, 1]]) == -1
    with pytest.raises(ValueError, match="non-square"):
        int_det_sign([[1, 2]])


# -- fine values -------------------------------------------------------------------


def test_fval_examples():
    assert fval(parse_puiseux("3*t^(1/2) + t")) == FineValue(Fraction(3), Fraction(1, 2))
    assert fval(const(5)) == FineValue(Fraction(5), Fraction(0))
    assert fval(PuiseuxSeries.zero()).is_zero


def test_fval_multiplicative_on_random_pairs():
    rng = random.Random(3)
    for _ in range(100):
        f = PuiseuxSeries.from_terms(
            [(rng.randint(-4, 4), Fraction(rng.randint(0, 4), 2)) for _ in range(2)]
        )
        g = PuiseuxSeries.from_terms(
            [(rng.randint(-4, 4), Fraction(rng.randint(0, 4), 2)) for _ in range(2)]
        )
        assert fval(f * g) == fval(f) * fval(g)
