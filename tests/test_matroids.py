import collections
import dataclasses
import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from realtrop import (
    EnumerationCapError,
    KV,
    RT,
    RT_ZERO,
    TV,
    GrassmannPlucker,
    GroundSet,
    LinearEmbedding,
    RankDeficientError,
    SignedCircuit,
    check_circuit_axioms,
    check_gp_relations,
    circuits_from_matrix,
    cocircuits_from_gp,
    gp_from_matrix,
    ground_from_matrix,
    hyper_neg,
    normalize_rt_vector,
    pushforward_gp,
    pushmap,
    rt,
    rt_cocircuits_from_gp,
)
from realtrop import hyperfields, matroids
from realtrop.hyperfields import from_sign_val, is_zero, zero_of
from realtrop.puiseux import as_series, column_rank, signed_det

from helpers import (
    CANCELLATION,
    random_columns,
    random_embedding,
    random_full_rank_ground,
    read_pair,
    sign_vector,
)
from oracles import (
    circuit_axioms_by_hypersums,
    circuits_by_rt_vectors,
    circuits_by_subset_search,
    cocircuits_by_value_on,
    gp_relations_by_hypersums,
    max_independent_by_subsets,
    normalize_by_fractions,
    nullspace,
    rt_cocircuits_by_value_on,
    value_on,
)

U23 = ground_from_matrix([[1, 0, 1], [0, 1, 1]])
FOUR = ground_from_matrix([[1, 0, 1, 1], [0, 1, 1, -1]])


# -- ground sets -----------------------------------------------------------------


def test_ground_set_is_its_columns():
    assert [f.name for f in dataclasses.fields(GroundSet)] == ["columns"]
    g = ground_from_matrix([["1", "0", "t"], ["0", "1", "1"]])
    assert type(g) is GroundSet
    assert g == GroundSet.from_matrix([[1, 0, "t"], [0, 1, 1]])
    assert g == GroundSet(((1, 0), (0, 1), ("t", 1)))
    assert g.columns[2] == (as_series("t"), as_series(1))
    assert (g.labels, len(g), g.height) == ((0, 1, 2), 3, 2)
    assert gp_from_matrix(g).labels == (0, 1, 2)


@pytest.mark.parametrize(
    "rows, message",
    [([], "empty matrix"), ([[]], "empty matrix"), ([[1, 2], [3]], "ragged matrix")],
)
def test_malformed_matrices_rejected(rows, message):
    for build in (ground_from_matrix, LinearEmbedding.from_matrix):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(rows)
    with pytest.raises(ValueError, match="^columns of unequal height$"):
        GroundSet(((1, 0), (1,)))


def test_rank_deficient_ground_set_constructs_but_has_no_matroid():
    g = ground_from_matrix([[1, 2], [2, 4]])
    assert (len(g), g.height) == (2, 2)
    with pytest.raises(
        RankDeficientError, match="^columns do not span, matroid is rank deficient$"
    ):
        gp_from_matrix(g)
    with pytest.raises(
        RankDeficientError, match="^fewer columns than rows, matroid cannot have full rank$"
    ):
        gp_from_matrix(ground_from_matrix([[1], [2]]))


# -- gp_from_matrix --------------------------------------------------------------


def test_gp_identity_columns():
    g = ground_from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    gp = gp_from_matrix(g)
    assert value_on(gp, (0, 1, 2)) == rt(1, 0)
    assert value_on(gp, (0, 0, 2)) == RT_ZERO


def test_gp_u23_values():
    gp = gp_from_matrix(U23)
    assert value_on(gp, (0, 1)) == rt(1, 0)
    assert value_on(gp, (0, 2)) == rt(1, 0)
    assert value_on(gp, (1, 2)) == rt(-1, 0)


def test_gp_alternating():
    gp = gp_from_matrix(U23)
    assert value_on(gp, (1, 0)) == -value_on(gp, (0, 1))


def test_gp_rank_deficient_rejected():
    with pytest.raises(RankDeficientError):
        gp_from_matrix(ground_from_matrix([[1, 2], [2, 4]]))


@pytest.mark.parametrize("rank", [True, 2.0, "2"])
def test_gp_rank_must_be_an_int(rank):
    with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(rank))}$"):
        GrassmannPlucker(rank, (0, 1, 2), "S", {(0, 1): 1})


@pytest.mark.parametrize("key", [(0, 5), (-1, 0)])
def test_gp_keys_outside_the_ground_set_rejected(key):
    with pytest.raises(ValueError, match=re.escape(f"value key {key} is outside the ground set")):
        GrassmannPlucker(2, (0, 1, 2), "S", {key: 1})


def test_gp_pushes_into_every_field_from_the_one_table():
    emb = random_embedding(random.Random(7), 2, 4)
    table = gp_from_matrix(emb.ground()).values
    pairs, scale = emb.minor_table
    assert table == {t: read_pair(p, scale) for t, p in pairs.items()}
    assert table == {t: signed_det([emb.columns[j] for j in t]) for t in pairs}
    for target, hom in (("T", "abs"), ("S", "sgn"), ("K", "to-krasner")):
        pushed = gp_from_matrix(emb.ground(), target=target).values
        assert pushed == {t: pushmap(hom, v) for t, v in table.items()}


def test_one_minor_table_per_embedding(monkeypatch):
    emb = random_embedding(random.Random(41), 3, 6)
    real = matroids.maximal_minors
    calls = []

    def counting(columns):
        calls.append(columns)
        return real(columns)

    monkeypatch.setattr(matroids, "maximal_minors", counting)
    gp = gp_from_matrix(emb.ground())
    circuits = emb.circuits
    signs = gp_from_matrix(emb.ground(), target="S")
    assert calls == [emb.columns]  # one table of the C(6, 3) maximal minors
    assert emb.ground() is emb.ground()
    assert circuits and check_gp_relations(signs).ok
    assert signs.values == {tup: pushmap("sgn", v) for tup, v in gp.values.items()}


def test_minor_table_equals_signed_det_per_subset():
    rng = random.Random(1516)
    kinds = set()
    for _ in range(200):
        height = rng.randint(1, 4)
        cols = random_columns(rng, height, rng.randint(height, 6))
        table, scale = GroundSet(tuple(cols)).minor_table
        assert {tup: read_pair(p, scale) for tup, p in table.items()} == {
            tup: signed_det([cols[j] for j in tup])
            for tup in itertools.combinations(range(len(cols)), height)
        }
        assert all(p[0] or p == (0, 0) for p in table.values())
        kinds.add(not any(s for s, _ in table.values()))
    assert kinds == {True, False}  # rank-deficient sets were among them


# -- exchange relations -------------------------------------------------------------


def test_relations_hold_for_random_realizable():
    rng = random.Random(17)
    for _ in range(8):
        h = rng.randint(2, 3)
        w = rng.randint(h, 6)
        gp = gp_from_matrix(random_full_rank_ground(rng, h, w))
        assert check_gp_relations(gp).ok


def test_relations_degenerate_rank_one():
    gp = GrassmannPlucker(1, (0, 1), "RT", {(0,): rt(1, 0), (1,): rt(1, 0)})
    assert check_gp_relations(gp).ok


def test_relations_detect_corrupted_sign():
    gp = gp_from_matrix(FOUR)
    values = dict(gp.values)
    values[(2, 3)] = -values[(2, 3)]
    bad = GrassmannPlucker(2, gp.labels, "RT", values)
    report = check_gp_relations(bad)
    assert not report.ok
    assert report.violations


def test_relations_detect_corrupted_valuation():
    g = ground_from_matrix([["1", "0", "1", "1"], ["0", "1", "1", "t"]])
    gp = gp_from_matrix(g)
    values = dict(gp.values)
    v = values[(2, 3)]
    values[(2, 3)] = RT(v.sign, v.val + 1)
    bad = GrassmannPlucker(2, gp.labels, "RT", values)
    assert not check_gp_relations(bad).ok


# -- pushforwards ----------------------------------------------------------------------


def test_pushforward_abs_matches_direct_tropical_gp():
    rng = random.Random(23)
    g = random_full_rank_ground(rng, 3, 5)
    via_push = pushforward_gp(gp_from_matrix(g), "abs")
    direct = gp_from_matrix(g, target="T")
    assert via_push.values == direct.values


def test_pushforward_to_krasner_is_basis_indicator():
    gp = gp_from_matrix(U23)
    und = pushforward_gp(gp, "to-krasner")
    assert und.values == {(0, 1): KV(1), (0, 2): KV(1), (1, 2): KV(1)}


def test_pushforward_sgn_rank_one():
    gp = GrassmannPlucker(1, (0, 1), "RT", {(0,): rt(1, 0), (1,): rt(1, 0)})
    assert set(pushforward_gp(gp, "sgn").values.values()) == {1}


# -- circuits ------------------------------------------------------------------------


def test_u23_circuit():
    (c,) = circuits_from_matrix(U23)
    assert c.entries == (rt(1, 0), rt(1, 0), rt(-1, 0))


def test_valuated_circuit():
    g = ground_from_matrix([["1", "0", "1"], ["0", "1", "t"]])
    (c,) = circuits_from_matrix(g)
    assert c.entries == (rt(1, 0), rt(1, 1), rt(-1, 0))


def test_independent_columns_have_no_circuits():
    g = ground_from_matrix([[1, 0], [0, 1]])
    assert circuits_from_matrix(g) == ()


def test_circuits_against_exact_nullspace():
    # Cramer coefficients must match the rational kernel of the matrix.
    rows = ((Fraction(1), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(1)))
    (kernel,) = nullspace(rows)
    (c,) = circuits_from_matrix(U23)
    lead = next(x for x in kernel if x != 0)
    scaled = tuple(x / lead for x in kernel)
    for entry, lam in zip(c.entries, scaled):
        assert entry.sign == (0 if lam == 0 else (1 if lam > 0 else -1))


def test_circuit_supports_are_exactly_the_minimal_dependent_sets():
    # Differential test against the subset-search/Cramer oracle: supports,
    # normalized entries and their order must all agree, on sparse series
    # and constant grounds where loops and parallel columns occur.
    rng = random.Random(29)
    support_sizes = set()
    for trial in range(40):
        h = rng.randint(1, 4)
        g = random_full_rank_ground(rng, h, rng.randint(h, 7), constant=trial % 2 == 1)
        circuits = circuits_from_matrix(g)
        assert [c.entries for c in circuits] == [
            c.entries for c in circuits_by_subset_search(g)
        ]
        support_sizes.update(len(c.support) for c in circuits)
    assert {1, 2} <= support_sizes  # loops and parallel pairs were seen


def test_circuits_rank_deficient_like_the_oracle():
    for rows in ([[1, 2], [2, 4]], [[1], [2]], [[0, 0, 0], [1, 1, 0]]):
        g = ground_from_matrix(rows)
        for build in (circuits_from_matrix, circuits_by_subset_search):
            with pytest.raises(RankDeficientError, match="^columns do not span$"):
                build(g)


def test_circuit_enumeration_cap_checked_before_any_minor(monkeypatch):
    def no_minors(columns):
        raise AssertionError("a minor was computed")

    monkeypatch.setattr(matroids, "maximal_minors", no_minors)
    g = ground_from_matrix([[(i * 7 + j * j) % 5 for j in range(26)] for i in range(5)])
    with pytest.raises(EnumerationCapError) as info:
        circuits_from_matrix(g)
    assert info.value.required == 230230
    assert info.value.cap == matroids.DEFAULT_PAIR_CAP


# -- circuit axioms ----------------------------------------------------------------------


def test_axioms_hold_for_random_realizable():
    rng = random.Random(31)
    for _ in range(6):
        g = random_full_rank_ground(rng, rng.randint(2, 3), rng.randint(3, 6))
        assert check_circuit_axioms(circuits_from_matrix(g)).ok


def test_single_circuit_list_is_fine():
    report = check_circuit_axioms(circuits_from_matrix(U23))
    assert report.ok
    assert report.info["max_independent"] == 2


def test_four_column_circuits_and_deletion_violation():
    circuits = circuits_from_matrix(FOUR)
    assert len(circuits) == 4
    assert check_circuit_axioms(circuits).ok
    for drop in range(4):
        remaining = circuits[:drop] + circuits[drop + 1 :]
        report = check_circuit_axioms(remaining)
        assert not report.ok
        assert any(v["axiom"] == "C3" for v in report.violations)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        SignedCircuit((RT_ZERO, RT_ZERO))


def test_nested_supports_flagged():
    a = SignedCircuit((rt(1, 0), rt(1, 0), RT_ZERO))
    b = SignedCircuit((rt(1, 0), rt(1, 0), rt(-1, 0)))
    report = check_circuit_axioms((a, b))
    assert any(v["axiom"] == "C2" for v in report.violations)


@pytest.mark.parametrize("m", [17, 18])
def test_independent_set_search_is_budgeted(m):
    # nested supports fail C2, so the largest independent set is searched
    # over all 2^m subsets, which exceeds the cap from m = 18 on
    zeros = (RT_ZERO,) * (m - 3)
    a = SignedCircuit((rt(1, 0), rt(1, 0), RT_ZERO) + zeros)
    b = SignedCircuit((rt(1, 0), rt(1, 0), rt(-1, 0)) + zeros)
    if 1 << m <= matroids.DEFAULT_PAIR_CAP:
        report = check_circuit_axioms((a, b))
        assert not report.ok and report.info["max_independent"] == m - 1
        return
    with pytest.raises(EnumerationCapError, match="^independent-set search needs 262144 steps") as info:
        check_circuit_axioms((a, b))
    assert (info.value.required, info.value.cap) == (1 << m, matroids.DEFAULT_PAIR_CAP)
    assert info.value.stage == "independent-set search"


def test_max_independent_reports_rank():
    rng = random.Random(37)
    for _ in range(5):
        h = rng.randint(2, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h + 1, 6))
        report = check_circuit_axioms(circuits_from_matrix(g))
        assert report.info["max_independent"] == h


def _spanning_columns(rng, height, width):
    while True:
        cols = random_columns(rng, height, width)
        if any(s for s, _ in GroundSet(tuple(cols)).minor_table[0].values()):
            return GroundSet(tuple(cols))


def test_circuits_equal_the_rt_vector_loop():
    rng = random.Random(1517)
    dens = set()
    for _ in range(120):
        height = rng.randint(1, 4)
        g = _spanning_columns(rng, height, rng.randint(height, 6))
        circuits = circuits_from_matrix(g)
        assert circuits == circuits_by_rt_vectors(g)
        assert all(type(x) is RT for c in circuits for x in c.entries)
        dens.update(x.val.denominator for c in circuits for x in c.entries if x.sign)
    assert {3, 5} <= dens
    g = GroundSet(((1, 2), (2, 4)))
    for build in (circuits_from_matrix, circuits_by_rt_vectors):
        with pytest.raises(RankDeficientError, match="^columns do not span$"):
            build(g)


def _random_gp(rng, field):
    """A value table on random rank-subsets, not always a GP function:
    valuations with denominators 3 and 5, zeros included, each value the
    image in ``field`` of a random RT value."""
    m = rng.randint(1, 6)
    r = rng.randint(1, m)
    values = {}
    for tup in itertools.combinations(range(m), r):
        if rng.random() < 0.3:
            continue
        sign = rng.choice([1, -1])
        val = Fraction(rng.randint(-4, 4), rng.choice([1, 3, 5]))
        values[tup] = from_sign_val(field, sign, val)
    if not values:
        values[tuple(range(r))] = from_sign_val(field, 1, Fraction(0))
    return GrassmannPlucker(r, tuple(range(m)), field, values)


def test_cocircuits_equal_the_value_on_loops():
    rng = random.Random(1518)
    gps = []
    for _ in range(60):
        height = rng.randint(1, 4)
        g = _spanning_columns(rng, height, rng.randint(height, 6))
        gps += [gp_from_matrix(g), gp_from_matrix(g, target="S")]
    gps += [_random_gp(rng, rng.choice(["RT", "S"])) for _ in range(200)]
    dens = set()
    for gp in gps:
        assert cocircuits_from_gp(gp) == cocircuits_by_value_on(gp), gp.values
        if gp.hyperfield == "RT":
            cocircuits = rt_cocircuits_from_gp(gp)
            assert cocircuits == rt_cocircuits_by_value_on(gp), gp.values
            assert all(type(x) is RT for c in cocircuits for x in c.entries)
            dens.update(x.val.denominator for c in cocircuits for x in c.entries if x.sign)
    assert {3, 5} <= dens


def test_random_tables_relations_match_hypersum_oracle():
    # tables that are mostly not GP functions, in all four hyperfields,
    # with valuation denominators 3 and 5: orthogonality of the circuit
    # and cocircuit rows decides each relation as the hypersum fold does
    rng = random.Random(1519)
    outcomes = {}
    dens = set()
    for _ in range(400):
        gp = _random_gp(rng, rng.choice(["RT", "T", "S", "K"]))
        report = check_gp_relations(gp)
        assert report == gp_relations_by_hypersums(gp), (gp.hyperfield, gp.values)
        outcomes.setdefault(gp.hyperfield, set()).add(report.ok)
        if gp.hyperfield in ("RT", "T") and not report.ok:
            dens.update(v.val.denominator for v in gp.values.values() if not is_zero(v))
    assert outcomes == {f: {True, False} for f in ("RT", "T", "S", "K")}
    assert {3, 5} <= dens


def test_gp_values_are_read_into_pairs_once(monkeypatch):
    real = matroids.sign_val
    calls = []

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(matroids, "sign_val", counting)
    gp = gp_from_matrix(FOUR)
    assert check_gp_relations(gp).ok
    assert cocircuits_from_gp(gp) and rt_cocircuits_from_gp(gp)
    assert check_gp_relations(gp).ok
    # a function from a matrix holds the minor table's pairs: no value is read
    assert calls == [] and len(gp.values) == 6
    # a function made by dataclasses.replace reads its own values, once
    bad = dataclasses.replace(gp, values={**gp.values, (2, 3): -gp.values[(2, 3)]})
    assert not check_gp_relations(bad).ok
    assert not check_gp_relations(bad).ok
    assert len(calls) == 6


def _count_cocircuit_rows(monkeypatch) -> list:
    """Wrap the cached ``cocircuit_rows`` so that each build is recorded."""
    real = GrassmannPlucker.cocircuit_rows.func
    built = []

    def counting(gp):
        built.append(gp)
        return real(gp)

    prop = functools.cached_property(counting)
    prop.__set_name__(GrassmannPlucker, "cocircuit_rows")
    monkeypatch.setattr(GrassmannPlucker, "cocircuit_rows", prop)
    return built


def test_cocircuit_rows_are_built_once_per_function(monkeypatch):
    built = _count_cocircuit_rows(monkeypatch)
    gp = gp_from_matrix(FOUR)
    assert check_gp_relations(gp).ok
    assert cocircuits_from_gp(gp) == cocircuits_by_value_on(gp)
    assert rt_cocircuits_from_gp(gp) == rt_cocircuits_by_value_on(gp)
    assert check_gp_relations(gp).ok and cocircuits_from_gp(gp)
    assert built == [gp]


@pytest.mark.parametrize(
    "read, cap",
    [(cocircuits_from_gp, 1), (rt_cocircuits_from_gp, 1), (check_gp_relations, 5)],
    ids=["cocircuits", "rt-cocircuits", "relations"],
)
def test_cocircuit_rows_are_capped_before_any_is_built(monkeypatch, read, cap):
    built = _count_cocircuit_rows(monkeypatch)
    gp = gp_from_matrix(FOUR)
    with pytest.raises(EnumerationCapError):
        read(gp, cap)
    assert built == []
    read(gp)
    assert built == [gp]


@pytest.mark.parametrize("target", ["RT", "T", "S", "K"])
def test_gp_from_a_matrix_holds_the_pairs_its_values_read_as(target):
    # the table handed over from the minors against the values read back,
    # pair by pair over the valuations they stand for
    rng = random.Random(4401)
    for _ in range(40):
        h = rng.randint(1, 4)
        g = random_full_rank_ground(rng, h, rng.randint(h, 6), constant=rng.random() < 0.3)
        gp = gp_from_matrix(g, target=target)
        table, scale = gp.scaled_table
        read, read_scale = GrassmannPlucker.scaled_table.func(gp)
        assert table.keys() == read.keys() == gp.values.keys()
        for t, (s, k) in table.items():
            rs, rk = read[t]
            assert (s, Fraction(k, scale)) == (rs, Fraction(rk, read_scale)), (target, t)
        # a function made by dataclasses.replace reads its own table and rows
        key = rng.choice(sorted(gp.bases()))
        replaced = dataclasses.replace(gp, values={**gp.values, key: hyper_neg(gp.values[key])})
        assert replaced.scaled_table == GrassmannPlucker.scaled_table.func(replaced)
        for (mu, row), (rmu, rrow) in zip(gp.cocircuit_rows, replaced.cocircuit_rows, strict=True):
            assert mu == rmu
            for e, ((s, k), (rs, rk)) in enumerate(zip(row, rrow, strict=True)):
                flipped = target in ("RT", "S") and tuple(sorted(mu + (e,))) == key
                assert rs == (-s if flipped else s), (target, mu, e)
                assert Fraction(k, scale) == Fraction(rk, replaced.scaled_table[1]), (target, mu, e)


def test_normalize_rt_vector_equals_scaling_by_the_lead():
    rng = random.Random(1519)
    states = [RT_ZERO] + [
        RT(s, Fraction(k, d)) for s in (1, -1) for k in (-2, 0, 1, 4) for d in (1, 3, 5)
    ]
    leads = {"normalized": 0, "unnormalized": 0, "negative": 0}
    for _ in range(500):
        v = tuple(rng.choice(states) for _ in range(rng.randint(1, 6)))
        lead = next((x for x in v if x.sign), None)
        if lead is None:
            with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
                normalize_rt_vector(v)
            continue
        got = normalize_rt_vector(v)
        assert type(got) is tuple and got == normalize_by_fractions(v)
        assert normalize_rt_vector(list(v)) == got
        if lead == RT(1, 0):
            leads["normalized"] += 1
            assert got is v
        else:
            leads["negative" if lead.sign < 0 else "unnormalized"] += 1
        assert normalize_rt_vector(got) is got
    assert all(leads.values())


def test_normalize_rt_vector_checks_entries_that_are_not_rt():
    # pairs that are not RT values are scaled through RT(...), which checks
    # the sign and reads the valuation as a Fraction
    pair = collections.namedtuple("pair", "sign val")
    got = normalize_rt_vector([pair(-1, 1), pair(0, hyperfields.INF), pair(1, 3)])
    assert got == (RT(1, 0), RT_ZERO, RT(-1, 2))
    assert all(type(x) is RT and type(x.val) is Fraction for x in got if x.sign)
    with pytest.raises(ValueError, match="^sign must be -1, 0 or \\+1, got 2$"):
        normalize_rt_vector([pair(1, 0), pair(2, 1)])
    with pytest.raises(ValueError, match="^sign must be -1, 0 or \\+1, got -2$"):
        SignedCircuit((RT(1, 0), pair(-2, 1)))


# -- cocircuits -----------------------------------------------------------------------------


def test_u23_cocircuits():
    gp = gp_from_matrix(U23, target="S")
    got = set(cocircuits_from_gp(gp))
    expected = set()
    for v in [(0, 1, 1), (1, 0, 1), (1, -1, 0)]:
        expected.add(v)
        expected.add(tuple(-x for x in v))
    assert got == expected


def test_rank_one_cocircuits():
    gp = GrassmannPlucker(1, (0, 1), "RT", {(0,): rt(1, 0), (1,): rt(1, 0)})
    assert set(cocircuits_from_gp(gp)) == {(1, 1), (-1, -1)}


def test_no_zero_cocircuits():
    rng = random.Random(41)
    for _ in range(5):
        gp = gp_from_matrix(random_full_rank_ground(rng, 2, 5), target="S")
        assert all(any(v) for v in cocircuits_from_gp(gp))


def test_rt_cocircuits_push_to_sign_cocircuits():
    rng = random.Random(43)
    for _ in range(5):
        g = random_full_rank_ground(rng, rng.randint(2, 3), 5)
        gp_rt = gp_from_matrix(g)
        gp_s = gp_from_matrix(g, target="S")
        from_rt = set()
        for c in rt_cocircuits_from_gp(gp_rt):
            from_rt.add(sign_vector(c))
            from_rt.add(tuple(-x for x in sign_vector(c)))
        assert from_rt == set(cocircuits_from_gp(gp_s))


def test_rt_cocircuits_against_orthogonal_oracle():
    # For U(2,3) the cocircuit at mu = {j} must be the sign pattern of
    # pairings <v, f_e> with v orthogonal to f_j.
    gp = gp_from_matrix(U23)
    cocs = {sign_vector(c) for c in rt_cocircuits_from_gp(gp)}
    cols = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    oracle = set()
    for j in range(3):
        a, b = cols[j]
        v = (-b, a)  # orthogonal to column j
        pattern = tuple(
            (lambda s: 0 if s == 0 else (1 if s > 0 else -1))(v[0] * c[0] + v[1] * c[1])
            for c in cols
        )
        first = next(x for x in pattern if x)
        oracle.add(tuple(first * x for x in pattern))
    assert cocs == oracle


# -- integer-scaled checkers against the hypersum oracles --------------------------------


def _rebuilt(c, g, x):
    """Circuit c with entry g replaced by x, normalized again."""
    entries = list(c.entries)
    entries[g] = x
    return SignedCircuit(tuple(entries))


def _raw_circuit(entries):
    """A circuit object holding entries as given, without normalization."""
    c = object.__new__(SignedCircuit)
    object.__setattr__(c, "entries", tuple(entries))
    return c


def _corruptions(rng, circuits):
    """circuits with one dropped, one sign flipped, one valuation shifted,
    and one repeated."""
    k = rng.randrange(len(circuits))
    c = circuits[k]
    e = rng.choice(c.support)
    x = c.entries[e]
    shift = rng.choice([Fraction(1, 2), Fraction(-1), Fraction(1, 3)])
    yield circuits[:k] + circuits[k + 1 :]
    yield circuits[:k] + (_rebuilt(c, e, -x),) + circuits[k + 1 :]
    yield circuits[:k] + (_rebuilt(c, e, RT(x.sign, x.val + shift)),) + circuits[k + 1 :]
    yield circuits + (c,)


def _circuit_lists(rng, grounds):
    """Circuit lists of seeded grounds, each also with a dropped circuit, a
    flipped sign, a shifted valuation and a repeated circuit; then lists
    that break C0 or C1, and random lists of RT vectors."""
    for trial in range(grounds):
        h = rng.randint(1, 4)
        g = random_full_rank_ground(rng, h, rng.randint(h, 6), constant=trial % 2 == 1)
        circuits = circuits_from_matrix(g)
        yield circuits
        if circuits:
            yield from _corruptions(rng, circuits)
    u = (rt(1, 0), rt(1, 0), rt(-1, 0))
    yield (_raw_circuit((RT_ZERO,) * 3), SignedCircuit(u))
    yield (SignedCircuit(u), _raw_circuit((rt(-1, 0), rt(-1, 0), rt(1, 0))))
    yield (SignedCircuit(u), _raw_circuit((rt(1, 1), rt(1, 1), rt(-1, 1))))
    states = [RT_ZERO, rt(1, 0), rt(-1, 0), rt(1, Fraction(1, 2)), rt(-1, 1)]
    for _ in range(40):
        width = rng.randint(2, 5)
        rows = []
        while len(rows) < rng.randint(1, 5):
            entries = tuple(rng.choice(states) for _ in range(width))
            if any(x.sign for x in entries):
                rows.append(SignedCircuit(entries))
        yield tuple(rows)


def test_circuit_axioms_match_hypersum_oracle():
    rng = random.Random(71)
    failing = passing = 0
    kinds = set()
    for circuits in _circuit_lists(rng, 60):
        report = check_circuit_axioms(circuits)
        assert report == circuit_axioms_by_hypersums(circuits), circuits
        failing += not report.ok
        passing += report.ok
        kinds.update(v["axiom"] for v in report.violations)
    assert failing >= 80 and passing >= 150
    assert kinds == {"C0", "C1", "C2", "C3"}


def _cancellation_ground(rng, height, width):
    """A spanning ground set drawn from the cancellation alphabet."""
    alphabet = [as_series(x) for x in CANCELLATION]
    while True:
        ground = ground_from_matrix(
            [[rng.choice(alphabet) for _ in range(width)] for _ in range(height)]
        )
        if column_rank(ground.columns) == height:
            return ground


def test_circuit_axiom_reports_match_the_oracle_on_cancellation_grounds():
    # whole Reports against the ordered elimination loop of the oracle, on
    # cancellation-alphabet grounds and their corruptions: one table per
    # unordered pair reports each C3 violation under its ordered pair
    rng = random.Random(2020)
    c3_lists, orders = 0, set()
    for _ in range(25):
        h = rng.randint(1, 4)
        circuits = circuits_from_matrix(_cancellation_ground(rng, h, rng.randint(h + 1, 6)))
        for listed in (circuits, *_corruptions(rng, circuits)):
            report = check_circuit_axioms(listed)
            assert report == circuit_axioms_by_hypersums(listed), listed
            c3 = [v["pair"] for v in report.violations if v["axiom"] == "C3"]
            c3_lists += bool(c3)
            orders.update(i < j for i, j in c3)
    assert c3_lists >= 30 and orders == {True, False}


def test_greedy_rank_witness_matches_subset_search():
    rng = random.Random(73)
    for trial in range(40):
        h = rng.randint(1, 4)
        g = random_full_rank_ground(rng, h, rng.randint(h, 7), constant=trial % 2 == 0)
        supports = [c.support for c in circuits_from_matrix(g)]
        masks = [sum(1 << e for e in s) for s in supports]
        got = matroids._max_independent(len(g), masks, exhaustive=False)
        assert got == max_independent_by_subsets(len(g), supports) == h


def test_circuits_of_unequal_length_rejected():
    short = SignedCircuit((rt(1, 0), rt(1, 0), RT_ZERO))
    long = SignedCircuit((rt(1, 0), RT_ZERO, rt(-1, 0), rt(1, 0)))
    for circuits in ((short, long), (long, short)):
        with pytest.raises(ValueError, match="^circuits of unequal length$"):
            check_circuit_axioms(circuits)


def _corrupted_gps(gp, rng):
    """gp with one value negated, shifted, zeroed, or made nonzero where it
    was zero, as far as the hyperfield has such a change."""
    keys = sorted(gp.values)
    changes = []
    key = rng.choice(keys)
    v = gp.values[key]
    if gp.hyperfield in ("RT", "S") and not is_zero(v):
        changes.append(hyper_neg(v))
    if gp.hyperfield == "RT" and not is_zero(v):
        changes.append(RT(v.sign, v.val + Fraction(1, 2)))
    if gp.hyperfield == "T" and not is_zero(v):
        changes.append(TV(v.val - 1))
    changes.append(zero_of(gp.hyperfield))
    zeros = [t for t in keys if is_zero(gp.values[t])]
    one = {"RT": rt(1, 0), "T": TV(0), "S": 1, "K": KV(1)}[gp.hyperfield]
    for new in changes:
        yield key, new
    if zeros:
        yield rng.choice(zeros), one


def test_gp_relations_match_hypersum_oracle():
    rng = random.Random(79)
    outcomes = {}
    for trial in range(30):
        h = rng.randint(1, 4)
        g = random_full_rank_ground(rng, h, rng.randint(h, 6), constant=trial % 3 == 2)
        for target in ("RT", "T", "S", "K"):
            gp = gp_from_matrix(g, target=target)
            gps = [gp]
            for key, new in _corrupted_gps(gp, rng):
                try:
                    gps.append(dataclasses.replace(gp, values={**gp.values, key: new}))
                except ValueError:  # identically zero
                    pass
            for one in gps:
                report = check_gp_relations(one)
                assert report == gp_relations_by_hypersums(one), (target, one.values)
                outcomes.setdefault(target, set()).add(report.ok)
    assert outcomes == {f: {True, False} for f in ("RT", "T", "S", "K")}


def test_checkers_build_no_hyperfield_values(monkeypatch):
    def fail(*args):
        raise AssertionError("hyperfield operation called")

    for name in ("hyper_mul", "hyper_div", "hyper_sum", "hyper_add", "hyperset_contains"):
        monkeypatch.setattr(matroids, name, fail, raising=False)
        monkeypatch.setattr(hyperfields, name, fail)
    circuits = circuits_from_matrix(FOUR)
    assert check_circuit_axioms(circuits).ok
    assert not check_circuit_axioms(circuits[:-1]).ok
    gp = gp_from_matrix(FOUR)
    assert check_gp_relations(gp).ok
    bad = dict(gp.values)
    bad[(2, 3)] = -bad[(2, 3)]
    assert not check_gp_relations(GrassmannPlucker(2, gp.labels, "RT", bad)).ok
