import itertools
import random
from fractions import Fraction

import pytest

from realtrop import (
    INF,
    RT,
    RT_ZERO,
    DiagonalSeminorm,
    EnumerationCapError,
    FlagStep,
    LinearEmbedding,
    SignedFlag,
    SingularBasisError,
    UnsignedFlag,
    cocircuit_value,
    cocircuits_from_gp,
    compose,
    covector_closure,
    decomposition_value,
    diagonalize,
    flag_of,
    flags_equivalent,
    gp_from_matrix,
    hyper_add,
    hyper_div,
    hyper_mul,
    hyperset_contains,
    linear_space_member,
    nondiag_fixture,
    phi_abs,
    phi_fiber,
    project_point,
    rt,
    scaled_cocircuit_decomposition,
    seminorm_from_flag,
    signed_value,
    standard_leaf,
)
from realtrop import linalg, puiseux, seminorms
from realtrop.jsonio import seminorm_to_json
from realtrop.linalg import rank as q_rank
from realtrop.matroids import DEFAULT_PAIR_CAP
from realtrop.puiseux import BasisCertificate, PuiseuxSeries, as_series, parse_puiseux, signed_det

from helpers import (
    CANCELLATION,
    count_eliminations,
    leaves,
    random_coeff,
    random_columns,
    random_diagonal,
    random_expression,
    random_embedding,
    random_invertible_constant_basis,
    random_rational_vector,
    random_series_vector,
    random_weights,
    rt_cmp,
)
from oracles import (
    const_coordinates_by_fractions,
    cramer_coordinates,
    diagonalize_by_span_tests,
    flags_equivalent_by_chains,
    subspace_at,
    value_by_levels,
)

E = PuiseuxSeries.constant


# -- evaluation -----------------------------------------------------------------


def test_basis_order_changes_the_sign():
    s = DiagonalSeminorm(((1, 0), (0, 1)), (0, 0))
    s_swapped = DiagonalSeminorm(((0, 1), (1, 0)), (0, 0))
    f = ("1", "-1")
    assert s.value(f) == rt(1, 0)
    assert s_swapped.value(f) == rt(-1, 0)


def test_value_on_basis_vectors():
    rng = random.Random(71)
    s = random_diagonal(rng, 3, allow_inf=False)
    for j, col in enumerate(s.basis):
        assert s.value(col) == RT(1, s.weights[j])


def test_level_selection_example():
    s = standard_leaf(3, (0, 1, 2))
    f = ("t", "1", "1")
    assert s.value(f) == rt(1, 1)
    # oracle: compare all levels by hand
    lams = s.coordinates(f)
    levels = [
        (lam.val + c, j, lam.sign)
        for j, (lam, c) in enumerate(zip(lams, s.weights))
        if lam.sign != 0 and c != INF
    ]
    best = min(levels)
    assert s.value(f) == RT(best[2], best[0])


def _constant_leaf(rng, dim, weights=None):
    while True:
        cols = [tuple(E(random_coeff(rng) if rng.random() < 0.7 else 0) for _ in range(dim))
                for _ in range(dim)]
        if signed_det(cols).sign:
            return DiagonalSeminorm(tuple(cols), weights or random_weights(rng, dim))


def test_constant_coordinates_match_cramer():
    # the integer sign functionals against per-column Cramer and the
    # Fraction dot products they replace, on every accepted entry form
    rng = random.Random(211)
    forms = {"int": 0, "fraction": 0, "string": 0, "series": 0, "generator": 0}
    zeros = 0
    for _ in range(600):
        leaf = _constant_leaf(rng, rng.randint(1, 6))
        d = leaf.dim
        if rng.random() < 0.4:
            # a combination of some basis columns: the others read zero
            picked = {j: random_coeff(rng) for j in rng.sample(range(d), rng.randint(1, d))}
            vals = [
                sum((c * leaf.basis[j][i].constant_value() for j, c in picked.items()), Fraction(0))
                for i in range(d)
            ]
        else:
            vals = [random_coeff(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(d)]
        form = rng.choice(sorted(forms))
        forms[form] += 1
        if form == "int":
            f = vals = linalg.clear_denominators(vals)
        elif form == "fraction":
            f = vals
        elif form == "string":
            f = [str(E(v)) for v in vals]
        elif form == "series":
            f = [E(v) for v in vals]
        else:
            f = (v for v in vals)
        want = cramer_coordinates(leaf, vals)
        assert leaf.coordinates(f) == want
        assert const_coordinates_by_fractions(leaf, vals) == want
        zeros += RT_ZERO in want
    assert min(forms.values()) > 80 and zeros > 50


def _series_leaf(rng, dim):
    """A leaf on columns of ``random_columns``, cancellation alphabet
    included, with random weights; None when the columns are dependent."""
    try:
        return DiagonalSeminorm(tuple(random_columns(rng, dim, dim)), random_weights(rng, dim))
    except SingularBasisError:
        return None


def _probe_vectors(rng, leaf):
    """Vectors for a leaf: a column of its kind's generator, a combination
    of some of its basis vectors with cancelling coefficients (the other
    coordinates are zero, and leading terms cancel), the zero vector, the
    combination with its constant entries as ints or Fractions, and the
    combination with a term in t^(1/7) added, an exponent denominator the
    basis does not have."""
    d = leaf.dim
    alphabet = [parse_puiseux(x) for x in CANCELLATION]
    combo = [PuiseuxSeries.zero()] * d
    for j in rng.sample(range(d), rng.randint(1, d)):
        c = rng.choice(alphabet)
        combo = [a + c * b for a, b in zip(combo, leaf.basis[j])]
    plain = [x.constant_value() if x.is_constant else x for x in combo]
    plain = [int(x) if type(x) is Fraction and x.denominator == 1 else x for x in plain]
    sevenths = list(combo)
    sevenths[rng.randrange(d)] += PuiseuxSeries.t_power(Fraction(rng.randint(-3, 3), 7))
    return [random_columns(rng, d, 1)[0], combo, [PuiseuxSeries.zero()] * d, plain, sevenths]


def test_series_coordinates_and_values_match_cramer():
    # the certificate against per-column Cramer and the level rule, on
    # leaves whose leading terms cancel, leaves with det L = 0 and the
    # zero vector
    rng = random.Random(223)
    seen = {"leaves": 0, "singular_L": 0, "open": 0, "certified": 0, "zero_vector": 0, "exact": 0}
    while seen["leaves"] < 700:
        leaf = _series_leaf(rng, rng.randint(1, 5))
        if leaf is None:
            continue
        seen["leaves"] += 1
        cert = BasisCertificate(leaf.basis)
        for f in _probe_vectors(rng, leaf):
            want = cramer_coordinates(leaf, f)
            assert leaf.coordinates(f) == want
            assert leaf.value(f) == value_by_levels(leaf, want)
            lead = cert.solve(f)
            if lead is None:
                seen["zero_vector"] += 1
                assert want == (RT_ZERO,) * leaf.dim
            elif lead[0] is None:
                seen["singular_L"] += 1
            else:
                y, exps, den, exact = list(lead[0]), *lead[1:]
                for yk, e, x in zip(y, exps, want):
                    if yk:
                        assert x == RT(1 if yk > 0 else -1, Fraction(e, den))
                    elif exact:
                        assert x == RT_ZERO
                    else:  # the leading terms cancel: a strict lower bound
                        assert x.val > Fraction(e, den)
                seen["open"] += y.count(0)
                seen["certified"] += len(y) - y.count(0)
                seen["exact"] += exact
    singular = seen.pop("singular_L")
    assert singular > 20 and min(seen.values()) > 150, (singular, seen)


def test_singular_leading_matrix_falls_back_to_cramer():
    # the leading coefficients of (1, 1) and (1, 1 + t) are dependent, but
    # the basis is not: det = t
    leaf = DiagonalSeminorm(((1, 1), (1, "1+t")), (0, 1))
    assert BasisCertificate(leaf.basis).solve((1, 0))[0] is None
    assert leaf._det == rt(1, 1)
    for f in [(1, 0), (0, 1), ("t", "-1"), (1, 1), ("1+t", "1+t")]:
        want = cramer_coordinates(leaf, f)
        assert leaf.coordinates(f) == want
        assert leaf.value(f) == value_by_levels(leaf, want)
    assert leaf.coordinates((1, 0)) == (rt(1, -1), rt(-1, -1))
    assert leaf.coordinates((0, 0)) == (RT_ZERO, RT_ZERO)


def test_leaf_pieces_match_plain_pieces():
    # a piece that remembers its leaf gives the scaled cocircuit value of
    # its plain (mu, scale) tuple, alone and in any list of pieces
    rng = random.Random(227)
    checked = 0
    while checked < 150:
        leaf = _series_leaf(rng, rng.randint(2, 4)) if checked % 2 else random_diagonal(rng, 3)
        if leaf is None:
            continue
        checked += 1
        pieces = scaled_cocircuit_decomposition(leaf)
        plain = tuple((mu, scale) for mu, scale in pieces)
        assert pieces == plain and all(type(p) is tuple for p in plain)
        other = scaled_cocircuit_decomposition(random_diagonal(rng, leaf.dim))
        mixed = list(pieces) + list(other)
        rng.shuffle(mixed)
        for f in _probe_vectors(rng, leaf):
            assert decomposition_value(pieces, f) == decomposition_value(plain, f) == leaf.value(f)
            assert decomposition_value(mixed, f) == decomposition_value(
                [(mu, scale) for mu, scale in mixed], f
            )
            for piece, (mu, scale) in zip(pieces, plain):
                assert decomposition_value([piece], f) == hyper_mul(scale, cocircuit_value(mu, f))


def test_certificate_reach(monkeypatch):
    # after construction a constant leaf evaluates constant vectors with no
    # determinant and no inverse, a series leaf takes a determinant only
    # for the coordinates its certificate leaves open, and value only for
    # those whose bound is below the best level; leaf pieces take no
    # cocircuit_value
    rng = random.Random(229)
    constant = [random_diagonal(rng, rng.randint(1, 5)) for _ in range(40)]
    series = []
    while len(series) < 200:
        leaf = _series_leaf(rng, rng.randint(2, 5))
        if leaf is not None:
            series.append(leaf)
    probes = [(leaf, f) for leaf in series for f in _probe_vectors(rng, leaf)]
    dets = []
    real_det = seminorms.signed_det

    def counting_det(rows):
        dets.append(len(rows))
        return real_det(rows)

    def refuse(*args):
        raise AssertionError("called after the leaf was built")

    monkeypatch.setattr(seminorms, "signed_det", counting_det)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(seminorms, "cocircuit_value", refuse)
    for leaf in constant:
        pieces = scaled_cocircuit_decomposition(leaf)
        for _ in range(5):
            vals = [random_coeff(rng) for _ in range(leaf.dim)]
            ints = linalg.clear_denominators(vals)
            for f in (vals, [E(v) for v in vals], [str(v) for v in vals], ints):
                leaf.coordinates(f)
                leaf.value(f)
                decomposition_value(pieces, f)
    assert dets == []
    opened = valued = 0
    for leaf, f in probes:
        lead = BasisCertificate(leaf.basis).solve(f)
        if lead is None:
            expected = 0
        elif lead[0] is None:
            expected = leaf.dim
        else:
            expected = 0 if lead[3] else list(lead[0]).count(0)
        dets.clear()
        leaf.coordinates(f)
        assert len(dets) == expected
        dets.clear()
        decomposition_value(scaled_cocircuit_decomposition(leaf), f)
        assert len(dets) == expected
        dets.clear()
        leaf.value(f)
        assert len(dets) <= expected
        opened += expected
        valued += len(dets)
    assert 0 < valued < opened


@pytest.mark.parametrize("f", [[True, 0, 1], [0.5, 1, 0], [1, 0, 1.0]])
def test_value_rejects_bools_and_floats(f):
    for leaf in (standard_leaf(3), DiagonalSeminorm(((1, "t", 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))):
        with pytest.raises(TypeError):
            leaf.value(f)
        with pytest.raises(TypeError):
            leaf.value(iter(f))


def test_weights_must_be_sorted():
    with pytest.raises(ValueError):
        standard_leaf(2, (1, 0))


def test_singular_basis_rejected():
    with pytest.raises(SingularBasisError):
        DiagonalSeminorm(((1, 2), (2, 4)), (0, 0))


def test_leaf_dimension_is_bounded_by_the_determinant():
    # every seminorm, hence every composition handed to diagonalize, has
    # passed the determinant's size bound
    with pytest.raises(ValueError, match="exceeds bound 12"):
        standard_leaf(13)


# -- composition -------------------------------------------------------------------


def test_compose_with_zero_leaf_is_identity():
    rng = random.Random(73)
    s = random_diagonal(rng, 3, constant=False)
    zero_leaf = DiagonalSeminorm(s.basis, (INF,) * 3)
    comp = compose(s, zero_leaf)
    for _ in range(40):
        v = random_series_vector(rng, 3)
        assert comp.value(v) == s.value(v)


def test_diagonal_equals_chain_of_rank_one_pieces():
    rng = random.Random(79)
    s = random_diagonal(rng, 3, constant=False, allow_inf=True)
    pieces = None
    for j in range(3):
        weights = (s.weights[j],) + (INF,) * 2
        basis = (s.basis[j],) + s.basis[:j] + s.basis[j + 1 :]
        leaf = (
            DiagonalSeminorm(basis, weights)
            if s.weights[j] != INF
            else None
        )
        if leaf is None:
            continue
        pieces = leaf if pieces is None else compose(pieces, leaf)
    for _ in range(100):
        v = random_series_vector(rng, 3)
        assert pieces.value(v) == s.value(v)


def test_compose_branch_choice_and_tie():
    a = DiagonalSeminorm(((1, 0), (0, 1)), (0, INF))
    b = DiagonalSeminorm(((0, 1), (1, 0)), (1, INF))
    comp = compose(a, b)
    # b wins where a vanishes at level 0
    assert comp.value(("0", "1")) == rt(1, 1)
    # both defined: a has the smaller valuation
    assert comp.value(("-1", "1")) == rt(-1, 0)
    # tie at equal levels goes to the left branch
    b0 = DiagonalSeminorm(((0, 1), (1, 0)), (0, INF))
    assert compose(a, b0).value(("-1", "1")) == rt(-1, 0)
    assert compose(b0, a).value(("-1", "1")) == rt(1, 0)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(standard_leaf(2), standard_leaf(3))


# -- signed seminorm axioms ------------------------------------------------------------


def test_scaling_axiom():
    rng = random.Random(83)
    for _ in range(20):
        s = random_expression(rng, 3, rng.randint(1, 3), constant=False)
        v = random_series_vector(rng, 3)
        lam = as_series(rng.choice(["2", "-1", "t", "-3*t^(1/2)", "1/2"]))
        scaled = tuple(lam * x for x in v)
        assert s.value(scaled) == hyper_mul(signed_value(lam), s.value(v))


def test_sum_axiom_membership():
    rng = random.Random(89)
    for _ in range(40):
        s = random_expression(rng, 3, rng.randint(1, 3), constant=False)
        v = random_series_vector(rng, 3)
        w = random_series_vector(rng, 3)
        total = tuple(a + b for a, b in zip(v, w))
        assert hyperset_contains(
            hyper_add(s.value(v), s.value(w)), s.value(total)
        )


def test_dominant_branch_rule():
    rng = random.Random(97)
    hits = 0
    while hits < 25:
        s = random_expression(rng, 3, rng.randint(1, 2), constant=False)
        v = random_series_vector(rng, 3)
        w = random_series_vector(rng, 3)
        if s.value(v).val < s.value(w).val:
            total = tuple(a + b for a, b in zip(v, w))
            assert s.value(total) == s.value(v)
            hits += 1


def test_strict_drop_forces_opposite_signs():
    rng = random.Random(101)
    hits = 0
    while hits < 15:
        s = random_expression(rng, 2, rng.randint(1, 2), constant=False)
        v = random_series_vector(rng, 2)
        w = random_series_vector(rng, 2)
        a, b = s.value(v), s.value(w)
        total = s.value(tuple(x + y for x, y in zip(v, w)))
        if total.val > min(a.val, b.val):
            assert a.sign == -b.sign and a.val == b.val
            hits += 1


def test_convexity_of_value_intervals():
    rng = random.Random(103)
    for _ in range(40):
        s = random_expression(rng, 3, rng.randint(1, 3))
        v = random_rational_vector(rng, 3)
        w = random_rational_vector(rng, 3)
        theta = Fraction(rng.randint(1, 9), 10)
        mix = tuple(theta * a + (1 - theta) * b for a, b in zip(v, w))
        lo, hi = (
            (s.value(v), s.value(w))
            if rt_cmp(s.value(v), s.value(w)) <= 0
            else (s.value(w), s.value(v))
        )
        val = s.value(mix)
        assert rt_cmp(lo, val) <= 0 <= rt_cmp(hi, val)


# -- diagonalization -------------------------------------------------------------------


def test_diagonalize_leaf_returns_equivalent_leaf():
    rng = random.Random(107)
    s = random_diagonal(rng, 3)
    d = diagonalize(s)
    for _ in range(100):
        v = random_rational_vector(rng, 3)
        assert d.value(v) == s.value(v)


def test_diagonalize_two_swapped_rank_one_leaves():
    a = DiagonalSeminorm(((1, 0), (0, 1)), (0, INF))
    b = DiagonalSeminorm(((0, 1), (1, 0)), (0, INF))
    comp = compose(a, b)
    d = diagonalize(comp)
    rng = random.Random(109)
    for _ in range(200):
        v = random_rational_vector(rng, 2)
        assert d.value(v) == comp.value(v)


def test_diagonalize_weight_multiset_matches_level_dimensions():
    # the number of output weights above a level must equal the dimension
    # of the subspace where the expression values lie above that level
    rng = random.Random(113)
    for _ in range(10):
        s = random_expression(rng, 3, rng.randint(2, 3))
        d = diagonalize(s)
        probes = [random_rational_vector(rng, 3) for _ in range(150)]
        for w in sorted({x for x in d.weights if x != INF}):
            deep = [p for p in probes if s.value(p).val > w]
            expected = sum(1 for x in d.weights if x > w)
            assert q_rank(deep) <= expected
        attained = {s.value(p).val for p in probes}
        assert {w for w in d.weights if w != INF} <= attained | {INF}


def test_diagonalize_random_expressions_agree():
    rng = random.Random(127)
    for _ in range(10):
        dim = rng.randint(2, 3)
        s = random_expression(rng, dim, rng.randint(1, 3))
        d = diagonalize(s)
        for _ in range(60):
            v = random_rational_vector(rng, dim)
            assert d.value(v) == s.value(v)


def test_diagonalize_requires_constant_coefficients():
    from realtrop import DiagonalizationError

    s = DiagonalSeminorm((("t", "0"), ("0", "1")), (0, 0))
    with pytest.raises(DiagonalizationError):
        diagonalize(s)


def _related_leaf(rng, dim, earlier):
    """A leaf on a fresh sparse basis, on an earlier leaf's basis (repeated
    functionals) or on it with columns scaled and permuted (parallel
    functionals), weighted from a small pool or the zero seminorm."""
    if earlier and rng.random() < 0.5:
        basis = list(rng.choice(earlier).basis)
        if rng.random() < 0.5:
            scales = [E(rng.choice((-2, -1, 3))) for _ in basis]
            basis = [tuple(c * x for x in col) for c, col in zip(scales, basis)]
            rng.shuffle(basis)
    else:
        while True:
            basis = [
                tuple(E(rng.choice((-2, -1, 0, 0, 0, 1, 2))) for _ in range(dim))
                for _ in range(dim)
            ]
            if signed_det([list(col) for col in basis]).sign:
                break
    weights = (INF,) * dim if rng.random() < 0.1 else random_weights(rng, dim)
    return DiagonalSeminorm(tuple(basis), weights)


def test_diagonalize_matches_span_test_oracle():
    # one elimination picks the same functionals, completing unit vectors
    # and weights as one rank test per candidate
    rng = random.Random(181)
    dropped = completed = zero = 0
    for _ in range(1000):
        dim = rng.randint(1, 6)
        leaves_ = []
        for _ in range(rng.randint(1, 4)):
            leaves_.append(_related_leaf(rng, dim, leaves_))
        exprs = list(leaves_)
        while len(exprs) > 1:
            i = rng.randrange(len(exprs) - 1)
            exprs[i] = compose(exprs[i], exprs.pop(i + 1))
        got = diagonalize(exprs[0])
        want = diagonalize_by_span_tests(exprs[0])
        assert (got.basis, got.weights) == (want.basis, want.weights)
        assert seminorm_to_json(got) == seminorm_to_json(want)
        finite = sum(w != INF for leaf in leaves_ for w in leaf.weights)
        dropped += finite > sum(w != INF for w in got.weights)
        completed += INF in got.weights
        zero += all(w == INF for w in got.weights)
    assert dropped > 500 and completed > 50 and zero > 10


def _fractional_leaf(rng, dim):
    """A constant leaf with ``random_coeff`` entries (denominators 1 and
    2), so the certificate scales its rows to ints; one to all of its
    weights are infinite at times."""
    weights = list(random_weights(rng, dim, allow_inf=False))
    if rng.random() < 0.4:
        k = rng.randint(1, dim)
        weights[dim - k :] = [INF] * k
    return _constant_leaf(rng, dim, tuple(weights))


def test_leaf_functionals_are_the_inverse_basis_rows():
    # g_k = F_k / (F_k . b_k) from the certificate against the inverse of
    # the basis by a Fraction elimination, on scaled fractional rows
    rng = random.Random(193)
    scaled = infinite = 0
    for _ in range(500):
        leaf = _fractional_leaf(rng, rng.randint(1, 7))
        d = leaf.dim
        rows = [[leaf.basis[j][i].constant_value() for j in range(d)] for i in range(d)]
        inv = linalg.inverse(rows)
        want = [(inv[j], w) for j, w in enumerate(leaf.weights) if w != INF]
        got = seminorms._leaf_functionals(leaf)
        assert got == want
        assert all(type(x) is Fraction for phi, _ in got for x in phi)
        scaled += any(x.constant_value().denominator > 1 for col in leaf.basis for x in col)
        infinite += INF in leaf.weights
    assert scaled > 300 and infinite > 150


def test_diagonalize_matches_span_test_oracle_on_fractional_leaves():
    rng = random.Random(195)
    dropped = completed = 0
    for _ in range(300):
        dim = rng.randint(1, 7)
        exprs = [_fractional_leaf(rng, dim) for _ in range(rng.randint(1, 3))]
        finite = sum(w != INF for leaf in exprs for w in leaf.weights)
        while len(exprs) > 1:
            i = rng.randrange(len(exprs) - 1)
            exprs[i] = compose(exprs[i], exprs.pop(i + 1))
        got = diagonalize(exprs[0])
        want = diagonalize_by_span_tests(exprs[0])
        assert (got.basis, got.weights) == (want.basis, want.weights)
        dropped += finite > sum(w != INF for w in got.weights)
        completed += INF in got.weights
    assert dropped > 120 and completed > 35


def _rebuilt(expr):
    """The same expression with every leaf built anew."""
    if isinstance(expr, DiagonalSeminorm):
        return DiagonalSeminorm(expr.basis, expr.weights)
    return compose(_rebuilt(expr.left), _rebuilt(expr.right))


def test_diagonalize_takes_one_elimination_and_no_inverse(monkeypatch):
    # a constant leaf's one elimination is its certificate: building the
    # leaves, their values and coordinates, and diagonalize with the leaf
    # it returns take one int_functionals per leaf and one rref in all
    rng = random.Random(191)
    template = random_expression(rng, 4, 3)
    vectors = [random_rational_vector(rng, 4) for _ in range(20)]
    calls = count_eliminations(monkeypatch)
    expr = _rebuilt(template)
    for f in vectors:
        expr.value(f)
        for leaf in leaves(expr):
            leaf.coordinates(f)
    diag = diagonalize(expr)
    for f in vectors:
        assert diag.value(f) == expr.value(f)
    n = sum(1 for _ in leaves(expr))
    assert calls == {"int_functionals": n + 1, "rref": 1, "inverse": 0}


def test_flag_of_and_phi_abs_build_no_normalized_leaf(monkeypatch):
    # every finite weight raised by one gives the same flags, with no
    # certificate built by flag_of and only diagonalize's own by phi_abs
    rng = random.Random(197)
    cases = []
    for _ in range(20):
        dim = rng.randint(1, 4)
        low = [random_diagonal(rng, dim) for _ in range(rng.randint(1, 3))]
        high = [DiagonalSeminorm(leaf.basis, tuple(w + 1 for w in leaf.weights)) for leaf in low]
        low_expr, expr = low[0], high[0]
        for a, b in zip(low[1:], high[1:]):
            low_expr, expr = compose(low_expr, a), compose(expr, b)
        cases.append((high[0], flag_of(low[0]), expr, phi_abs(low_expr).flag))
    real = seminorms.BasisCertificate
    built = []

    def counting(cols):
        built.append(cols)
        return real(cols)

    def refuse(self):
        raise AssertionError("normalized() called")

    monkeypatch.setattr(seminorms, "BasisCertificate", counting)
    monkeypatch.setattr(DiagonalSeminorm, "normalized", refuse)
    for leaf, want_flag, expr, want_phi in cases:
        assert flag_of(leaf) == want_flag
        assert built == []
        assert phi_abs(expr).flag == want_phi
        assert len(built) == 1
        built.clear()


# -- flags ------------------------------------------------------------------------------


def test_flag_shape_for_proper_seminorm():
    s = standard_leaf(3, (0, 1, INF))
    flag = flag_of(s)
    assert list(flag.kernel) == [(0, 0, 1)]
    assert [step.weight for step in flag.steps] == [1, 0]
    # kernel, then one added direction per step
    assert [len(subspace_at(flag, i)) for i in range(3)] == [1, 2, 3]


def test_flag_roundtrip_reproduces_values():
    rng = random.Random(131)
    for _ in range(12):
        dim = rng.randint(2, 4)
        s = random_diagonal(rng, dim).normalized()
        rec = seminorm_from_flag(flag_of(s))
        for _ in range(100):
            v = random_rational_vector(rng, dim)
            assert rec.value(v) == s.value(v)


def test_negated_basis_gives_equivalent_flag():
    rng = random.Random(137)
    s = random_diagonal(rng, 3).normalized()
    neg = DiagonalSeminorm(
        tuple(tuple(-x for x in col) for col in s.basis), s.weights
    )
    assert flags_equivalent(flag_of(s), flag_of(neg))


def test_partial_negation_is_not_equivalent():
    s = standard_leaf(3, (0, 1, 2))
    cols = list(s.basis)
    cols[1] = tuple(-x for x in cols[1])
    other = DiagonalSeminorm(tuple(cols), s.weights)
    assert not flags_equivalent(flag_of(s), flag_of(other))


def test_flag_weights_differ():
    a = standard_leaf(2, (0, 1))
    b = standard_leaf(2, (0, 2))
    assert not flags_equivalent(flag_of(a), flag_of(b))


@pytest.mark.parametrize("order", [1, -1])
def test_flag_with_ragged_vectors_rejected(order):
    a, b = ((1, 0), (0, 1, 0))[::order]
    with pytest.raises(ValueError, match="ragged"):
        SignedFlag((), (FlagStep(a, 1, 1), FlagStep(b, 0, 1)))


def _combination(rng, vectors, dim):
    out = [Fraction(0)] * dim
    for v in vectors:
        c = rng.choice((-1, 0, 0, 1))
        out = [a + c * b for a, b in zip(out, v)]
    return out


def _variant_pair(rng, variant):
    """A signed flag and a second one built from it: the same chain on
    new vectors, flipped regions, two steps swapped, or a new kernel."""
    dim = rng.randint(2, 4)
    cols = [
        tuple(x.constant_value() for x in col)
        for col in random_invertible_constant_basis(rng, dim)
    ]
    k = rng.randint(0, dim - 1)
    kernel, vectors = cols[:k], cols[k:]
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    weights = sorted((rng.choice(pool) for _ in vectors), reverse=True)
    regions = [rng.choice((1, -1)) for _ in vectors]
    F = SignedFlag(kernel, tuple(map(FlagStep, vectors, weights, regions)))
    g_kernel, g_vectors, g_regions = list(kernel), list(vectors), list(regions)
    if variant == "rebase":
        g_kernel = []
        for j, v in enumerate(kernel):
            c = rng.choice((-2, 1, 3))
            g_kernel.append([c * a + b for a, b in zip(v, _combination(rng, kernel[:j], dim))])
        g_vectors, g_regions = [], []
        for i, (v, r) in enumerate(zip(vectors, regions)):
            c = rng.choice((-2, -1, 1, 3))
            below = _combination(rng, kernel + vectors[:i], dim)
            g_vectors.append([c * a + b for a, b in zip(v, below)])
            g_regions.append(r * (1 if c > 0 else -1))
        if rng.random() < 0.5:
            g_regions[rng.randrange(len(g_regions))] *= -1
    elif variant == "flip":
        g_regions = [r * rng.choice((1, -1)) for r in regions]
    elif variant == "swap" and len(vectors) > 1:
        i = rng.randrange(len(vectors) - 1)
        g_vectors[i], g_vectors[i + 1] = g_vectors[i + 1], g_vectors[i]
    elif variant == "kernel" and kernel:
        j = rng.randrange(len(kernel))
        g_kernel[j] = [a + b for a, b in zip(kernel[j], rng.choice(vectors))]
    if rng.random() < 0.5:
        g_regions = [-r for r in g_regions]
    G = SignedFlag(g_kernel, tuple(map(FlagStep, g_vectors, weights, g_regions)))
    return F, G


def test_flags_equivalent_matches_chain_oracle():
    # G's coordinates in F's basis, from one elimination, decide the
    # subspace chain and the regions without comparing the chains
    rng = random.Random(193)
    outcomes = {}
    for variant in ("rebase", "flip", "swap", "kernel"):
        for _ in range(500):
            F, G = _variant_pair(rng, variant)
            got = flags_equivalent(F, G)
            assert got == flags_equivalent_by_chains(F, G)
            assert got == flags_equivalent(G, F)
            outcomes.setdefault(variant, set()).add(got)
    assert outcomes == {v: {True, False} for v in ("rebase", "flip", "swap", "kernel")}


def test_flags_equivalent_takes_one_elimination(monkeypatch):
    rng = random.Random(199)
    pairs = [_variant_pair(rng, variant) for variant in ("rebase", "flip", "swap", "kernel")]
    real = linalg.rref
    calls = []

    def counting_rref(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    for F, G in pairs:
        flags_equivalent(F, G)
        assert len(calls) == 1
        calls.clear()


# -- the magnitude map and its fibers ---------------------------------------------------


def test_abs_image_matches_absolute_values():
    rng = random.Random(139)
    s = random_expression(rng, 3, 2)
    image = phi_abs(s)
    for _ in range(50):
        v = random_rational_vector(rng, 3)
        assert image.value(v).val == s.value(v).val


def test_fiber_counts_for_complete_strict_flags():
    for dim in (2, 3, 4, 5):
        s = standard_leaf(dim, tuple(range(dim)))
        flags = phi_fiber(phi_abs(s).flag)
        assert len(flags) == 2 ** (dim - 1)
        for a, b in itertools.combinations(flags, 2):
            assert not flags_equivalent(a, b)


def test_fiber_checks_its_basis_once(monkeypatch):
    flag = phi_abs(standard_leaf(6, tuple(range(6)))).flag
    want = tuple(
        SignedFlag(flag.kernel, tuple(FlagStep(vs[0], w, r) for (vs, w), r in zip(flag.steps, regions)))
        for regions in itertools.product((1, -1), (1, -1), (1, -1), (1, -1), (1, -1), (1,))
    )
    calls = count_eliminations(monkeypatch)
    got = phi_fiber(flag)
    assert calls == {"int_functionals": 0, "rref": 1, "inverse": 0}
    assert got == want and len(got) == 32


def test_fiber_of_proper_seminorm_is_single():
    s = standard_leaf(2, (0, INF))
    assert len(phi_fiber(phi_abs(s).flag)) == 1


def test_fiber_of_two_value_norm_is_pair():
    s = standard_leaf(2, (0, 1))
    assert len(phi_fiber(phi_abs(s).flag)) == 2


def test_fiber_size_is_capped_before_any_flag_is_built(monkeypatch):
    # 2^19 sign choices over a 20-step flag exceed the pair cap
    dim = 20
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    flag = UnsignedFlag((), tuple(((u,), dim - j) for j, u in enumerate(units)))

    def no_flags(*args):
        raise AssertionError("the fiber was enumerated")

    monkeypatch.setattr(seminorms, "SignedFlag", no_flags)
    with pytest.raises(EnumerationCapError) as err:
        phi_fiber(flag)
    assert (err.value.required, err.value.cap, err.value.stage) == (
        2**19,
        DEFAULT_PAIR_CAP,
        "flag fiber",
    )


def test_fiber_infinite_for_merged_steps():
    s = standard_leaf(2, (0, 0))  # constant norm: one step of dimension 2
    with pytest.raises(ValueError):
        phi_fiber(phi_abs(s).flag)


# -- fixture without a diagonal form ------------------------------------------------------


def test_fixture_examples():
    assert nondiag_fixture("1", "t") == 1
    assert nondiag_fixture("0", "-t") == -1
    assert nondiag_fixture("t", "-1") == -1


def test_fixture_satisfies_seminorm_axioms():
    rng = random.Random(149)
    for _ in range(60):
        v = random_series_vector(rng, 2)
        w = random_series_vector(rng, 2)
        lam = as_series(rng.choice(["2", "-1", "t", "-t", "1/2"]))
        # homogeneity for the trivial absolute value on the scalars
        scaled = nondiag_fixture(lam * v[0], lam * v[1])
        assert scaled == lam.sign * nondiag_fixture(*v)
        # both bounds of the two triangle inequalities
        total = (v[0] + w[0], v[1] + w[1])
        if any(not x.is_zero for x in total):
            a, b = nondiag_fixture(*v), nondiag_fixture(*w)
            assert min(a, b) <= nondiag_fixture(*total) <= max(a, b)


def test_fixture_obstruction_to_diagonalization():
    # a candidate diagonal form would need to separate lambda*b1 + b2
    # from -lambda*b1 + b2 for tiny lambda, but the fixture cannot
    rng = random.Random(151)
    tiny = as_series("t^5")
    for _ in range(40):
        b1 = random_series_vector(rng, 2)
        b2 = random_series_vector(rng, 2)
        plus = (tiny * b1[0] + b2[0], tiny * b1[1] + b2[1])
        minus = (-(tiny * b1[0]) + b2[0], -(tiny * b1[1]) + b2[1])
        if all(x.is_zero for x in plus) or all(x.is_zero for x in minus):
            continue
        assert nondiag_fixture(*plus) == nondiag_fixture(*minus)


# -- projections ---------------------------------------------------------------------------


def test_project_identity_embedding():
    emb = LinearEmbedding.from_matrix([[1, 0], [0, 1]])
    pt = project_point(standard_leaf(2), emb)
    assert pt.coords == (rt(1, 0), rt(1, 0))


def test_project_line_embedding():
    emb = LinearEmbedding.from_matrix([[1, 0, 1], [0, 1, 1]])
    pt = project_point(standard_leaf(2), emb)
    assert pt.coords == (rt(1, 0), rt(1, 0), rt(1, 0))
    assert linear_space_member(pt, emb)


def test_projection_commutes_with_column_permutation():
    rng = random.Random(157)
    emb = random_embedding(rng, 2, 4)
    s = random_diagonal(rng, 2, constant=False)
    if all(s.value(c).sign == 0 for c in emb.columns):
        pytest.skip("seminorm kills the embedding")
    perm = [2, 0, 3, 1]
    permuted = LinearEmbedding(tuple(emb.columns[i] for i in perm))
    direct = project_point(s, permuted)
    via = project_point(s, emb)
    from realtrop import ProjPoint

    assert ProjPoint(tuple(via.coords[i] for i in perm)) == direct


def test_project_rejects_vanishing_seminorm():
    s = standard_leaf(2, (INF, INF))
    emb = LinearEmbedding.from_matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        project_point(s, emb)


# -- projections satisfy all circuit conditions; signs are covectors ------------------------


def test_projected_values_satisfy_all_circuits():
    rng = random.Random(163)
    for _ in range(6):
        dim = rng.randint(2, 3)
        s = random_diagonal(rng, dim)
        emb = random_embedding(rng, dim, rng.randint(dim, 6), constant=True)
        y = project_point(s, emb)
        assert linear_space_member(y, emb)


def test_sign_part_is_a_covector_of_the_restriction():
    rng = random.Random(167)
    for _ in range(5):
        dim = rng.randint(2, 3)
        s = random_diagonal(rng, dim)
        g = random_embedding(rng, dim, rng.randint(dim, 5), constant=True)
        gp = gp_from_matrix(g, target="S")
        poset = covector_closure(cocircuits_from_gp(gp))
        signs = tuple(s.value(c).sign for c in g.columns)
        assert signs in poset


def test_decomposition_into_scaled_minor_seminorms():
    rng = random.Random(173)
    for _ in range(6):
        dim = rng.randint(2, 4)
        s = random_diagonal(rng, dim)
        pieces = scaled_cocircuit_decomposition(s)
        g = random_embedding(rng, dim, rng.randint(dim, 8), constant=True)
        for f in g.columns:
            assert decomposition_value(pieces, f) == s.value(f)


def test_decomposition_reads_the_basis_determinant(monkeypatch):
    # moving b_i to the front of B takes i transpositions, so the minor of
    # each piece is (-1)^i det B and no determinant is taken beyond the leaf's
    rng = random.Random(179)
    leafs = [
        random_diagonal(rng, rng.randint(1, 6), constant=k % 2 == 0) for k in range(60)
    ]
    expected = []
    for s in leafs:
        pieces = []
        for i, w in enumerate(s.weights):
            mu = s.basis[:i] + s.basis[i + 1 :]
            minor = cocircuit_value(mu, s.basis[i])
            assert minor == (-s._det if i % 2 else s._det)
            if w != INF:
                pieces.append((mu, hyper_div(RT(1, w), minor)))
        expected.append(tuple(pieces))
    assert any(INF in s.weights for s in leafs)
    assert any(not s.has_constant_basis for s in leafs)

    def no_det(rows):
        raise AssertionError("determinant taken after the leaf was built")

    monkeypatch.setattr(seminorms, "signed_det", no_det)
    for s, pieces in zip(leafs, expected):
        assert scaled_cocircuit_decomposition(s) == pieces


@pytest.mark.parametrize("mu", [[[1, 2, 3]], [[1]]])
def test_cocircuit_value_rejects_columns_of_the_wrong_height(mu):
    with pytest.raises(ValueError, match="one entry per coordinate"):
        cocircuit_value(mu, [1, 0])
    assert cocircuit_value([[0, 1]], [1, 0]) == rt(1, 0)


def test_cocircuit_value_coerces_each_entry_once(monkeypatch):
    coerced = []
    real = puiseux.as_series

    def counting(x):
        coerced.append(x)
        return real(x)

    monkeypatch.setattr(puiseux, "as_series", counting)
    monkeypatch.setattr(seminorms, "as_series", counting)
    mu, f = [["1", "t", "0"], ["0", "1", "-t"]], ["t", "0", "2"]
    assert cocircuit_value(mu, f) == rt(1, 0)
    assert sorted(coerced) == sorted(f + mu[0] + mu[1])
    with pytest.raises(ValueError, match="^need dimension minus one columns$"):
        cocircuit_value(mu[:1], f)
