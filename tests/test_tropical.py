import itertools
import random
from fractions import Fraction

import pytest

from realtrop import (
    RT,
    RT_ZERO,
    TV,
    BergmanFan,
    EnumerationCapError,
    GroundSet,
    LinearEmbedding,
    ProjPoint,
    bergman_fan,
    bergman_member,
    cocircuits_from_gp,
    covector_closure,
    gp_from_matrix,
    ground_from_matrix,
    hyper_mul,
    hyperplane_member,
    linear_space_member,
    rt,
    trop_r_point,
)
from realtrop import tropical
from realtrop.matroids import CovectorPoset, circuits_from_matrix
from realtrop.puiseux import as_series, dot, signed_value

from helpers import (
    CANCELLATION,
    normalized_grid,
    random_constant,
    random_embedding,
    random_full_rank_ground,
    random_series,
    random_thirds_and_fifths,
    unsigned_hyperplane_member,
)
from oracles import (
    bergman_member_by_levels,
    contains_zero_by_cases,
    hyper_mul_by_cases,
    hyper_sum_by_cases,
    maximal_cones_by_scan,
)

LINE = LinearEmbedding.from_matrix([[1, 0, 1], [0, 1, 1]])
LINE_CIRCUIT = circuits_from_matrix(LINE.ground())[0]

IN_PATTERNS = [
    (1, 1, 1), (-1, -1, -1), (1, -1, -1), (-1, 1, 1), (1, -1, 1), (-1, 1, -1),
]
OUT_PATTERNS = [(1, 1, -1), (-1, -1, 1)]


# -- tropicalization of points -------------------------------------------------


def test_trop_point_constants():
    assert trop_r_point(("1", "1", "1")).coords == (rt(1, 0),) * 3


def test_trop_point_leading_terms():
    pt = trop_r_point(("1", "-1+t", "t"))
    assert pt.coords == (rt(1, 0), rt(-1, 0), rt(1, 1))


def test_trop_point_normalization():
    pt = trop_r_point(("-2*t^(1/2)", "t^(1/2)"))
    assert pt.coords == (rt(1, 0), rt(-1, 0))


def test_trop_point_rejects_zero():
    with pytest.raises(ValueError):
        trop_r_point(("0", "0"))


def test_trop_point_equals_the_normalized_signed_values():
    # the int normalization against ProjPoint of the signed values, on
    # the cancellation alphabet, sparse series and exponents over 3 and 5
    rng = random.Random(6060)
    alphabet = [as_series(x) for x in CANCELLATION] + [as_series(0)]
    makers = [
        lambda: rng.choice(alphabet),
        lambda: random_series(rng),
        lambda: random_thirds_and_fifths(rng),
    ]
    rejected = 0
    for _ in range(600):
        make = rng.choice(makers)
        coords = [make() for _ in range(rng.randint(1, 6))]
        if all(x.is_zero for x in coords):
            with pytest.raises(ValueError, match="^cannot tropicalize the zero vector$"):
                trop_r_point(coords)
            rejected += 1
            continue
        got = trop_r_point(coords)
        assert got == ProjPoint(tuple(signed_value(x) for x in coords)), coords
        assert all(type(x.val) is Fraction for x in got.coords if x.sign)
    assert rejected
    assert trop_r_point([1, Fraction(-1, 2), "t^(1/3) - t", 0]) == trop_r_point(
        [as_series(x) for x in ("1", "-1/2", "t^(1/3) - t", "0")]
    )


def test_enumerate_circuits_runs_under_its_cap_every_time():
    emb = LinearEmbedding.from_matrix([[1, 0, 1], [0, 1, 1]])
    held = emb.circuits
    # circuits held already are enumerated again, and the cap is checked
    with pytest.raises(EnumerationCapError, match="circuit enumeration"):
        emb.enumerate_circuits(0)
    got = emb.enumerate_circuits(3)
    assert got == held and emb.circuits is got


# -- hyperplane membership ------------------------------------------------------


def test_all_plus_point_is_on_the_line():
    y = ProjPoint((rt(1, 0), rt(1, 0), rt(1, 0)))
    assert hyperplane_member(y, LINE_CIRCUIT)


def test_sign_break_point_is_off_the_line():
    y = ProjPoint((rt(1, 0), rt(1, 0), rt(-1, 0)))
    assert not hyperplane_member(y, LINE_CIRCUIT)


def test_point_vanishing_on_support_is_member():
    ground = ground_from_matrix([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    (circuit,) = circuits_from_matrix(ground)
    assert circuit.support == (0, 1, 2)
    y = ProjPoint((RT_ZERO, RT_ZERO, RT_ZERO, rt(1, 0)))
    assert hyperplane_member(y, circuit)


def _pair_form_member(y, circuit):
    # the two-index formulation: the top magnitude occurs at i != j with
    # values of opposite sign
    prods = [hyper_mul(a, b) for a, b in zip(y.coords, circuit.entries)]
    nonzero = [p for p in prods if p.sign != 0]
    if not nonzero:
        return True
    vstar = min(p.val for p in nonzero)
    at_top = [p for p in nonzero if p.val == vstar]
    return any(
        p.sign == -q.sign for p, q in itertools.combinations(at_top, 2)
    )


def test_admits_zero_form_equals_pair_form():
    for y in normalized_grid(3, vals=(0, 1)):
        assert hyperplane_member(y, LINE_CIRCUIT) == _pair_form_member(y, LINE_CIRCUIT)


def test_membership_invariant_under_scaling():
    scalars = [rt(1, 0), rt(-1, 0), rt(1, 2), rt(-1, Fraction(1, 2))]
    for y in list(normalized_grid(3, vals=(0, 1)))[::7]:
        base = hyperplane_member(y, LINE_CIRCUIT)
        for a in scalars:
            scaled = ProjPoint(tuple(hyper_mul(a, x) for x in y.coords))
            assert hyperplane_member(scaled, LINE_CIRCUIT) == base
            scaled_c = LINE_CIRCUIT.__class__(tuple(hyper_mul(a, x) for x in LINE_CIRCUIT.entries))
            assert hyperplane_member(y, scaled_c) == base


# -- linear space membership -------------------------------------------------------

CANCELLATION_COORDS = ["1", "-1", "1+t", "1-t", "-1+t", "-1-t", "t", "2", "-1/2"]


def sample_points(rng, dim, count):
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            coords = tuple(rng.choice(CANCELLATION_COORDS) for _ in range(dim))
        else:
            coords = tuple(str(rng.randint(-9, 9)) for _ in range(dim))
        series = [as_series(c) for c in coords]
        if any(not s.is_zero for s in series):
            out.append(series)
    return out


def test_image_points_always_members():
    rng = random.Random(53)
    for _ in range(4):
        emb = random_embedding(rng, rng.randint(2, 3), rng.randint(3, 6))
        for x in sample_points(rng, emb.height, 60):
            y = trop_r_point(emb.apply(x))
            assert linear_space_member(y, emb)


def _random_x(rng, height, constant):
    """A coordinate vector with zero entries, string literals and
    exponent denominators the generated columns lack."""
    gen = random_constant if constant else random_series
    pool = ["0", "1/2", "-3", "t^(1/3)", "2/5*t^(-2/5)", "1 - t^(2/3)"]
    return [rng.choice(pool) if rng.random() < 0.3 else gen(rng) for _ in range(height)]


@pytest.mark.parametrize("constant", [False, True], ids=["series", "constant"])
def test_apply_equals_one_dot_per_column(constant):
    rng = random.Random(71)
    zeros = 0
    for _ in range(120):
        h = rng.randint(1, 4)
        emb = random_embedding(rng, h, rng.randint(h, 6), constant=constant)
        for x in [_random_x(rng, h, constant) for _ in range(4)] + [["0"] * h, [0] * h]:
            series = [as_series(v) for v in x]
            got = emb.apply(x)
            assert got == tuple(dot(c, series) for c in emb.columns), (emb, x)
            assert got == emb.apply(series)
            zeros += sum(f.is_zero for f in got)
    assert zeros
    with pytest.raises(ValueError, match="^point has the wrong dimension$"):
        emb.apply(["1"] * (h + 1))


ODD_VALS = [Fraction(v) for v in ("0", "1", "-1", "1/2", "-3/2", "1/3", "2/5", "-2/5")]


def _random_point(rng, width):
    while True:
        coords = tuple(
            RT_ZERO if rng.random() < 0.25 else RT(rng.choice((1, -1)), rng.choice(ODD_VALS))
            for _ in range(width)
        )
        if any(x.sign for x in coords):
            return ProjPoint(coords)


def _with_zero_column(emb, rng):
    cols = list(emb.columns)
    cols.insert(rng.randint(0, len(cols)), (0,) * emb.height)
    return LinearEmbedding(tuple(cols))


@pytest.mark.parametrize("constant", [False, True], ids=["series", "constant"])
def test_linear_space_member_equals_every_hyperplane_test(constant):
    # points whose valuation denominators (3, 5) the circuits lack, negative
    # valuations, zero coordinates, loop circuits from zero columns, and
    # image points, which are members
    rng = random.Random(73)
    seen = set()
    for k in range(80):
        h = rng.randint(1, 3)
        emb = random_embedding(rng, h, rng.randint(h, 5), constant=constant)
        if k % 3 == 0:
            emb = _with_zero_column(emb, rng)
        points = [_random_point(rng, len(emb)) for _ in range(15)]
        points += [trop_r_point(emb.apply(x)) for x in sample_points(rng, h, 5)]
        for y in points:
            expected = all(hyperplane_member(y, c) for c in emb.circuits)
            assert linear_space_member(y, emb) == expected, (emb, y)
            seen.add((expected, min((len(c.support) for c in emb.circuits), default=0) == 1))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    with pytest.raises(ValueError, match="^point and embedding have different lengths$"):
        linear_space_member(_random_point(rng, len(emb) + 1), emb)


def test_loop_circuit_needs_a_zero_coordinate():
    emb = LinearEmbedding.from_matrix([[1, 0, 0, 1], [0, 1, 0, 1]])
    assert emb.circuits[0].support == (2,)
    on = ProjPoint((rt(1, 0), rt(1, Fraction(1, 3)), RT_ZERO, rt(1, 0)))
    off = ProjPoint((rt(1, 0), rt(1, Fraction(1, 3)), rt(-1, Fraction(2, 5)), rt(1, 0)))
    assert linear_space_member(on, emb) and not linear_space_member(off, emb)


def test_identity_embedding_accepts_everything():
    emb = LinearEmbedding.from_matrix([[1, 0], [0, 1]])
    assert emb.circuits == ()
    for y in normalized_grid(2, vals=(0, 1)):
        assert linear_space_member(y, emb)


def test_embedding_is_the_spanning_ground_set():
    rows = [[1, 0, 1], [0, 1, 1]]
    emb = LinearEmbedding.from_matrix(rows)
    assert isinstance(emb, GroundSet) and type(emb) is LinearEmbedding
    assert emb.ground() is emb
    assert emb == LinearEmbedding(ground_from_matrix(rows).columns)
    assert (emb.labels, len(emb), emb.height) == ((0, 1, 2), 3, 2)
    assert "minor_table" not in vars(emb)
    assert emb.circuits == circuits_from_matrix(ground_from_matrix(rows))
    assert "minor_table" in vars(emb)  # the circuits came from its own table
    with pytest.raises(ValueError, match="^point has the wrong dimension$"):
        emb.apply(("1",))


@pytest.mark.parametrize(
    "columns, message",
    [
        ((), "embedding needs at least one column"),
        (((1, 0), (1,)), "columns of unequal height"),
        (((1, 2), (2, 4)), "columns do not span the dual space"),
        (((1, 0, 0), (0, 1, 0)), "columns do not span the dual space"),
    ],
    ids=["empty", "unequal-height", "rank-deficient", "too-few-columns"],
)
def test_embedding_errors(columns, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LinearEmbedding(columns)


def test_embedding_height_is_checked_before_its_rank(monkeypatch):
    # 13 rows can never give a minor table, and the spanning check is a
    # statement about the minors, so the height is checked before the rank
    def no_rank(cols):
        raise AssertionError("column rank of an embedding over the size bound")

    monkeypatch.setattr(tropical, "column_rank", no_rank)
    columns = [tuple(int(i == j) for i in range(13)) for j in range(14)]
    with pytest.raises(ValueError, match="^matrix size 13 exceeds bound 12$"):
        LinearEmbedding(columns)


def test_sign_break_fails_linear_space():
    y = ProjPoint((rt(1, 0), rt(1, 0), rt(-1, 0)))
    assert not linear_space_member(y, LINE)


def test_unsigned_compatibility():
    # forgetting signs lands in the ordinary tropical linear space: the
    # least product valuation repeats
    rng = random.Random(59)
    emb = random_embedding(rng, 2, 5)
    for x in sample_points(rng, 2, 40):
        y = trop_r_point(emb.apply(x))
        for c in emb.circuits:
            assert unsigned_hyperplane_member(y, c)


def test_unsigned_membership_matches_tropical_hypersum():
    # the least valuation of the products in T repeats, folded per field
    for y in normalized_grid(3, vals=(0, 1)):
        for c in (LINE_CIRCUIT.entries, (rt(1, 1), RT_ZERO, rt(-1, 0))):
            prods = [hyper_mul_by_cases(TV(a.val), TV(b.val)) for a, b in zip(y.coords, c)]
            expected = contains_zero_by_cases(hyper_sum_by_cases(prods))
            assert unsigned_hyperplane_member(y, c) == expected


def test_unsigned_membership_checks_lengths():
    y = ProjPoint((rt(1, 0), rt(1, 1), rt(-1, 0)))
    for circuit in ((rt(1, 0), rt(-1, 0)), (rt(1, 0),) * 4):
        with pytest.raises(ValueError, match="^point and circuit have different lengths$"):
            unsigned_hyperplane_member(y, circuit)


# -- Bergman fans ---------------------------------------------------------------------


def line_fan():
    gp = gp_from_matrix(LINE.ground(), target="S")
    return bergman_fan(covector_closure(cocircuits_from_gp(gp)))


def test_line_fan_chain_counts():
    fan = line_fan()
    assert len(fan.cones) == 24
    maximal = fan.maximal_cones()
    assert len(maximal) == 12
    assert all(len(c) == 2 for c in maximal)
    assert fan.rank == 2


def test_empty_poset_fan():
    fan = bergman_fan(CovectorPoset(((0, 0, 0),)))
    assert (len(fan.cones), fan.rank, fan.maximal_cones()) == (0, 0, ())
    assert fan.cones == ()


def test_chain_count_symmetric_under_negation():
    fan = line_fan()
    vecs = fan.poset.vectors
    index = {v: i for i, v in enumerate(vecs)}
    negated = {tuple(sorted(index[tuple(-x for x in vecs[i])] for i in chain)) for chain in fan.cones}
    plain = {tuple(sorted(chain)) for chain in fan.cones}
    assert negated == plain


def test_fan_purity_for_random_matroids():
    rng = random.Random(61)
    for _ in range(4):
        h = rng.randint(2, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        gp = gp_from_matrix(g, target="S")
        fan = bergman_fan(covector_closure(cocircuits_from_gp(gp)))
        assert all(len(c) == h for c in fan.maximal_cones())


def test_maximal_cones_match_scan_oracle():
    rng = random.Random(67)
    for _ in range(30):
        h = rng.randint(1, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        fan = bergman_fan(covector_closure(cocircuits_from_gp(gp_from_matrix(g, target="S"))))
        assert fan.maximal_cones() == maximal_cones_by_scan(fan)
    # a repeated vector lies below and above its copy without being strictly so
    poset = line_fan().poset
    repeated = CovectorPoset(poset.vectors + poset.vectors[-2:])
    fan = bergman_fan(repeated)
    assert fan.maximal_cones() == maximal_cones_by_scan(fan)
    assert len(fan.maximal_cones()) < len(line_fan().maximal_cones())


def test_maximal_cones_of_uniform_four_by_five():
    # U(4,5): every full flag of nonzero covectors has length 4.  The scan
    # oracle takes seconds on all 4200 cones, so it checks a seeded sample.
    g = ground_from_matrix([[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])
    fan = bergman_fan(covector_closure(cocircuits_from_gp(gp_from_matrix(g, target="S"))))
    assert (len(fan.poset), len(fan.cones)) == (181, 4200)
    maximal = fan.maximal_cones()
    assert {len(c) for c in maximal} == {4}
    assert len(maximal) == sum(len(c) == 4 for c in fan.cones)
    sample = BergmanFan(fan.poset, tuple(random.Random(5).sample(fan.cones, 600)))
    assert sample.maximal_cones() == maximal_cones_by_scan(sample)


# -- membership via the fan --------------------------------------------------------------


def test_cocircuits_are_in_the_fan():
    fan = line_fan()
    gp = gp_from_matrix(LINE.ground(), target="S")
    for v in cocircuits_from_gp(gp):
        y = ProjPoint(tuple(RT(s, 0) if s else RT_ZERO for s in v))
        assert bergman_member(y, fan)


def test_fan_agrees_with_circuit_membership_exhaustively():
    rng = random.Random(67)
    for _ in range(3):
        h = rng.randint(2, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        emb = LinearEmbedding(g.columns)
        gp = gp_from_matrix(g, target="S")
        fan = bergman_fan(covector_closure(cocircuits_from_gp(gp)))
        for y in normalized_grid(len(g), vals=(0, 1)):
            assert bergman_member(y, fan) == linear_space_member(y, emb)


def test_fan_membership_checks_lengths():
    fan = line_fan()
    y = ProjPoint((rt(1, 0),) * (fan.poset.width + 1))
    with pytest.raises(ValueError, match="^point and fan have different lengths$"):
        bergman_member(y, fan)


def test_fan_membership_matches_level_oracle():
    # points read off a chain of the fan, the coordinates first nonzero in
    # its i-th vector from the bottom at a valuation that grows with i,
    # and random points with few valuations, mostly off the fan; both
    # have tied valuations and zero coordinates
    rng = random.Random(421)
    states = [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in (0, Fraction(1, 2), 1)]
    seen = {"in": 0, "out": 0, "tied": 0, "zero": 0}
    for _ in range(8):
        h = rng.randint(1, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h + 1, 6), constant=True)
        fan = bergman_fan(covector_closure(cocircuits_from_gp(gp_from_matrix(g, target="S"))))
        m = fan.poset.width
        for _ in range(25):
            coords = [RT_ZERO] * m
            for level, i in enumerate(reversed(rng.choice(fan.cones))):
                for e, s in enumerate(fan.poset.vectors[i]):
                    if s:
                        coords[e] = RT(s, Fraction(-level, 2))
            first = rng.randrange(m)
            random_point = (RT_ZERO,) * first + (RT(1, 0),) + tuple(rng.choices(states, k=m - first - 1))
            for y in (ProjPoint(tuple(coords)), ProjPoint(random_point)):
                member = bergman_member(y, fan)
                assert member == bergman_member_by_levels(y, fan), y
                seen["in" if member else "out"] += 1
                vals = [x.val for x in y.coords if x.sign]
                seen["tied"] += len(set(vals)) < len(vals)
                seen["zero"] += len(vals) < m
        for k in (m - 1, m + 1):
            y = ProjPoint((RT(1, 0),) * k)
            for member in (bergman_member, bergman_member_by_levels):
                with pytest.raises(ValueError, match="^point and fan have different lengths$"):
                    member(y, fan)
    assert min(seen.values()) >= 40, seen


def test_sign_pattern_outside_covectors_rejected():
    g = ground_from_matrix([[1, 0, -1], [0, 1, -1]])
    gp = gp_from_matrix(g, target="S")
    fan = bergman_fan(covector_closure(cocircuits_from_gp(gp)))
    y = ProjPoint((rt(1, 0), rt(1, 0), rt(1, 0)))
    assert not bergman_member(y, fan)
    assert not linear_space_member(y, LinearEmbedding(g.columns))
