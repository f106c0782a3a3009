import collections
import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest

from realtrop import (
    INF,
    KV,
    RT,
    RT_ZERO,
    TV,
    ball,
    hyper_add,
    hyper_div,
    hyper_mul,
    hyper_neg,
    hyper_sum,
    hyperset_add,
    hyperset_contains,
    pushmap,
    rt,
    singleton,
)
from realtrop.hyperfields import (
    TV_ZERO,
    admits_zero,
    as_val,
    display_rt,
    field_of,
    from_sign_val,
    kept_pair,
    sign_val,
    unchecked_rt,
)
from realtrop.jsonio import sign_from_json, value_from_json, value_to_json

import oracles
from helpers import contains_zero, pushmap_set

GRID = [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in (0, 1, 2)]
GRID_SETS = [singleton(x) for x in GRID] + [ball("RT", v) for v in (0, 1, 2, INF)]


def test_mul_examples():
    assert hyper_mul(rt(1, Fraction(1, 2)), rt(-1, 1)) == rt(-1, Fraction(3, 2))
    assert hyper_mul(rt(1, 5), RT_ZERO) == RT_ZERO
    assert hyper_mul(-1, -1) == 1


def test_mul_is_a_group_on_nonzero():
    for a in GRID:
        for b in GRID:
            p = hyper_mul(a, b)
            assert (p == RT_ZERO) == (a == RT_ZERO or b == RT_ZERO)
    for a in GRID:
        if a.sign:
            inv = RT(a.sign, -a.val)
            assert hyper_mul(a, inv) == rt(1, 0)


def test_sum_examples():
    assert hyper_sum([rt(1, 0), rt(-1, 0)]) == ball("RT", 0)
    assert hyper_sum([rt(1, 0), rt(1, 0), rt(-1, 1)]) == singleton(rt(1, 0))
    assert hyper_sum([RT_ZERO]) == singleton(RT_ZERO)


def test_sum_requires_nonempty():
    with pytest.raises(ValueError):
        hyper_sum([])


def test_contains_zero_examples():
    assert contains_zero(ball("RT", 0))
    assert not contains_zero(singleton(rt(1, 0)))
    assert contains_zero(singleton(RT_ZERO))


def test_dependent_rationals_hypersum_contains_zero():
    rng = random.Random(5)
    from realtrop import as_series, signed_value

    for _ in range(50):
        lams = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 5))]
        lams.append(-sum(lams))
        images = [signed_value(as_series(l)) for l in lams]
        assert contains_zero(hyper_sum(images))


def test_pushmap_examples():
    assert pushmap("abs", rt(-1, Fraction(3, 2))) == TV(Fraction(3, 2))
    assert pushmap("sgn", rt(-1, Fraction(3, 2))) == -1
    assert pushmap("to-krasner", RT_ZERO) == KV(0)
    assert pushmap("to-krasner", rt(-1, 2)) == KV(1)


def test_pushmaps_preserve_structure():
    for name in ("abs", "sgn", "to-krasner"):
        assert is_zeroish(pushmap(name, RT_ZERO))
        assert pushmap(name, rt(1, 0)) in (TV(0), 1, KV(1))
        for a in GRID:
            for b in GRID:
                assert pushmap(name, hyper_mul(a, b)) == hyper_mul(
                    pushmap(name, a), pushmap(name, b)
                )


def is_zeroish(x):
    return x == 0 if isinstance(x, int) else x.is_zero


def test_pushmaps_map_sums_into_sums():
    # f(x + y) is contained in f(x) + f(y), checked on every grid member.
    for name in ("abs", "sgn", "to-krasner"):
        for a in GRID:
            for b in GRID:
                s = hyper_add(a, b)
                fs = hyperset_add(
                    singleton(pushmap(name, a)), singleton(pushmap(name, b))
                )
                for z in GRID:
                    if hyperset_contains(s, z):
                        assert hyperset_contains(fs, pushmap(name, z))


def test_pushmap_set_matches_elementwise_images():
    for name in ("abs", "sgn", "to-krasner"):
        for s in GRID_SETS:
            img = pushmap_set(name, s)
            for z in GRID:
                if hyperset_contains(s, z):
                    assert hyperset_contains(img, pushmap(name, z))


def test_additive_hyperinverse():
    for x in GRID:
        assert contains_zero(hyper_add(x, hyper_neg(x)))
    assert contains_zero(hyper_add(TV(1), TV(1)))
    assert contains_zero(hyper_add(KV(1), KV(1)))
    assert contains_zero(hyper_add(1, -1))


def test_binary_add_commutes_on_grid_sets():
    for A in GRID_SETS:
        for B in GRID_SETS:
            assert hyperset_add(A, B) == hyperset_add(B, A)


def test_binary_add_associative_on_grid_sets():
    for A in GRID_SETS:
        for B in GRID_SETS:
            for C in GRID_SETS:
                left = hyperset_add(hyperset_add(A, B), C)
                right = hyperset_add(A, hyperset_add(B, C))
                assert left == right


def test_fold_matches_hyper_sum_exhaustively():
    # With commutativity and associativity established, the left fold
    # decides every association order; compare it with the direct rule.
    for n in (1, 2, 3, 4):
        for xs in itertools.product(GRID, repeat=n):
            acc = singleton(xs[0])
            for x in xs[1:]:
                acc = hyperset_add(acc, singleton(x))
            assert acc == hyper_sum(xs)


def test_fold_matches_hyper_sum_random_longer_lists():
    rng = random.Random(2)
    for _ in range(300):
        xs = [rng.choice(GRID) for _ in range(rng.choice([5, 6]))]
        acc = singleton(xs[0])
        for x in xs[1:]:
            acc = hyperset_add(acc, singleton(x))
        assert acc == hyper_sum(xs)


def test_sign_hyperfield_table():
    assert hyper_sum([1, 1]) == singleton(1)
    assert hyper_sum([-1, -1]) == singleton(-1)
    assert hyper_sum([1, -1]) == ball("S")
    assert hyper_sum([0, 1]) == singleton(1)


def test_krasner_table():
    assert hyper_sum([KV(1), KV(1)]) == ball("K")
    assert hyper_sum([KV(0), KV(1)]) == singleton(KV(1))
    assert hyper_neg(KV(1)) == KV(1)


def test_tropical_table():
    assert hyper_sum([TV(0), TV(1)]) == singleton(TV(0))
    assert hyper_sum([TV(1), TV(1)]) == ball("T", 1)
    assert hyperset_contains(ball("T", 1), TV(2))
    assert not hyperset_contains(ball("T", 1), TV(0))


def test_json_roundtrip_and_display():
    x = rt(-1, Fraction(3, 2))
    assert value_from_json(value_to_json(x), "RT") == x
    assert value_from_json(["-", "3/2"], "RT") == x
    assert display_rt(x) == "-e^{-3/2}"
    assert display_rt(rt(1, 0)) == "+1"
    assert display_rt(RT_ZERO) == "0"
    assert display_rt(x, "val") == "-:3/2"


@pytest.mark.parametrize(
    "given, expected",
    [
        (3, Fraction(3)),
        (-2, Fraction(-2)),
        ("1/2", Fraction(1, 2)),
        (" 7 ", Fraction(7)),
        (Fraction(2, 3), Fraction(2, 3)),
        ("inf", INF),
        ("oo", INF),
        (float("inf"), INF),
        (math.inf, INF),
    ],
    ids=lambda v: "inf" if v is INF else None,
)
def test_valuations_accepted(given, expected):
    v = as_val(given)
    assert v == expected and type(v) is type(expected)
    if expected == INF:
        assert v is INF
        assert RT(0, given).val is INF and TV(given).is_zero
        with pytest.raises(ValueError, match="^sign 0 must pair with valuation inf, and conversely$"):
            RT(1, given)
    else:
        assert RT(-1, given) == RT(-1, expected) and type(RT(-1, given).val) is Fraction
        with pytest.raises(ValueError, match="^sign 0 must pair with valuation inf, and conversely$"):
            RT(0, given)


@pytest.mark.parametrize("given", [1.5, 0.0, -math.inf, math.nan, None, True, False])
def test_valuations_rejected(given):
    message = f"^cannot interpret {given!r} as a valuation$"
    for build in (as_val, TV, lambda x: RT(1, x), lambda x: RT(0, x)):
        with pytest.raises(TypeError, match=message):
            build(given)


def test_inf_survives_copies_and_pickles_as_itself():
    assert copy.copy(INF) is INF and copy.deepcopy(INF) is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert copy.deepcopy(RT_ZERO).val is INF
    assert pickle.loads(pickle.dumps(TV_ZERO)).val is INF


def test_inf_prints_and_hashes_as_the_float_infinity():
    assert type(INF) is not float
    assert str(INF) == repr(INF) == "inf"
    assert hash(INF) == hash(math.inf) == sys.hash_info.inf
    assert INF != math.inf and {INF, Fraction(0)} == {Fraction(0), as_val("inf")}


@pytest.mark.parametrize("q", [0, -7, 10**30, Fraction(-5, 2), Fraction(10**40, 3)])
def test_inf_is_above_every_rational_from_both_sides(q):
    assert q < INF and q <= INF and q != INF and not q > INF and not q >= INF and not q == INF
    assert INF > q and INF >= q and INF != q and not INF < q and not INF <= q and not INF == q
    assert min(q, INF) == q and max(INF, q) is INF and sorted([INF, q]) == [q, INF]


def test_inf_is_equal_only_to_itself():
    assert INF == INF and INF <= INF and INF >= INF
    assert not INF < INF and not INF > INF and not INF != INF


@pytest.mark.parametrize("q", [0, -3, Fraction(7, 2)])
def test_inf_absorbs_what_is_added_to_it_or_taken_from_it(q):
    assert INF + q is INF and q + INF is INF and INF - q is INF and INF + INF is INF
    assert hyper_mul(RT_ZERO, RT_ZERO) is RT_ZERO and hyper_mul(TV_ZERO, TV(q)) == TV_ZERO


@pytest.mark.parametrize(
    "op",
    [
        lambda: 1 - INF,
        lambda: Fraction(1, 2) - INF,
        lambda: INF - INF,
        lambda: -INF,
        lambda: INF * 2,
        lambda: INF + 1.5,
        lambda: INF < 1.5,
        lambda: math.inf <= INF,
        lambda: INF > None,
    ],
)
def test_inf_outside_the_valuation_rules_is_a_type_error(op):
    with pytest.raises(TypeError):
        op()


@pytest.mark.parametrize(
    "given", ["1.5", "1e3", "1_000", "1/0", "-2/00", "1/-2", "0x1", "+", "", "1 /2", "-inf", "nan"]
)
def test_valuation_strings_outside_the_grammar_are_rejected(given):
    # a valuation string is an optional sign, an int and an optional
    # nonzero "/" int, or a spelling of inf
    message = f"^bad valuation {re.escape(repr(given))}$"
    for build in (as_val, TV, lambda x: RT(1, x), lambda x: RT(0, x)):
        with pytest.raises(ValueError, match=message):
            build(given)


# -- the RT-pair rule against the per-field cases ---------------------------

HALVES = [Fraction(k, 2) for k in (-1, 0, 1, 2)]
FIELD_GRIDS = {
    "RT": [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in HALVES],
    "T": [TV(INF)] + [TV(v) for v in HALVES],
    "S": [-1, 0, 1],
    "K": [KV(0), KV(1)],
}
ALL_ELEMENTS = [x for grid in FIELD_GRIDS.values() for x in grid]
FIELD_SETS = {
    field: [singleton(x) for x in grid] + [ball(field, v) for v in HALVES + [INF]]
    for field, grid in FIELD_GRIDS.items()
}
ALL_SETS = [s for sets in FIELD_SETS.values() for s in sets]


def outcome(fn, *args):
    """The result with its type, or the type of the exception raised."""
    try:
        result = fn(*args)
    except (TypeError, ValueError, ZeroDivisionError, KeyError) as exc:
        return type(exc)
    return type(result), result


@pytest.mark.parametrize(
    "ops",
    [
        (hyper_mul, oracles.hyper_mul_by_cases),
        (hyper_div, oracles.hyper_div_by_cases),
        (hyper_add, lambda a, b: oracles.hyper_sum_by_cases([a, b])),
    ],
    ids=["mul", "div", "add"],
)
def test_binary_ops_match_per_field_cases(ops):
    fast, slow = ops
    for a in ALL_ELEMENTS:
        for b in ALL_ELEMENTS:
            assert outcome(fast, a, b) == outcome(slow, a, b), (a, b)


def test_neg_matches_per_field_cases():
    for x in ALL_ELEMENTS:
        assert outcome(hyper_neg, x) == outcome(oracles.hyper_neg_by_cases, x)


def test_sum_matches_per_field_cases():
    for grid in FIELD_GRIDS.values():
        for n in (0, 1, 2, 3):
            for xs in itertools.product(grid, repeat=n):
                assert outcome(hyper_sum, xs) == outcome(oracles.hyper_sum_by_cases, xs), xs
    for a, b in itertools.combinations([RT_ZERO, TV(1), 1, KV(1)], 2):
        assert outcome(hyper_sum, [a, b]) == outcome(oracles.hyper_sum_by_cases, [a, b]) == TypeError


def test_hyperset_ops_match_per_field_cases():
    for A in ALL_SETS:
        for B in ALL_SETS:
            assert outcome(hyperset_add, A, B) == outcome(oracles.hyperset_add_by_cases, A, B)
        for x in ALL_ELEMENTS:
            assert outcome(hyperset_contains, A, x) == outcome(
                oracles.hyperset_contains_by_cases, A, x
            )
        assert contains_zero(A) == oracles.contains_zero_by_cases(A)


def test_homomorphisms_match_per_field_cases():
    for name in ("abs", "sgn", "to-krasner", "exp"):
        for x in ALL_ELEMENTS:
            assert outcome(pushmap, name, x) == outcome(oracles.pushmap_by_cases, name, x)
    valid = {"abs": ["RT"], "sgn": ["RT"], "to-krasner": list(FIELD_SETS)}
    for name, fields in valid.items():
        for field in fields:
            for s in FIELD_SETS[field]:
                assert outcome(pushmap_set, name, s) == outcome(
                    oracles.pushmap_set_by_cases, name, s
                )


def test_pairs_round_trip_in_every_field():
    for field, grid in FIELD_GRIDS.items():
        for x in grid:
            assert from_sign_val(field, *sign_val(x)) == x
    assert sign_val(TV(INF)) == sign_val(KV(0)) == sign_val(0) == (0, INF)
    assert sign_val(TV(2)) == (1, 2) and sign_val(-1) == (-1, 0) and sign_val(KV(1)) == (1, 0)
    assert admits_zero([], signed=True) and admits_zero([(1, 0), (1, 0)], signed=False)
    assert not admits_zero([(1, 0), (1, 0)], signed=True)


def test_admits_zero_fold_equals_the_list_oracle():
    # seeded term lists: empty, single terms, ties at the least valuation,
    # int and Fraction valuations, each read as a list and as a generator
    rng = random.Random(2311)
    vals = {
        "int": [-3, -1, 0, 0, 2, 5],
        "fraction": [Fraction(-1, 2), Fraction(1, 3), Fraction(0), Fraction(2, 3), Fraction(5, 7)],
    }
    seen = collections.Counter()
    for _ in range(3000):
        kind = rng.choice(list(vals))
        n = rng.choice([0, 1, 2, 2, 3, 4, 6])
        pool = rng.sample(vals[kind], rng.randint(1, 2))  # few values: many ties
        terms = [(rng.choice((1, -1)), rng.choice(pool)) for _ in range(n)]
        for signed in (True, False):
            want = oracles.admits_zero_by_lists(terms, signed)
            assert admits_zero(terms, signed) == want, (terms, signed)
            assert admits_zero((t for t in terms), signed) == want, (terms, signed)
            if terms:
                least = min(v for _, v in terms)
                ties = sum(v == least for _, v in terms)
                seen[kind, signed, min(n, 2), ties > 1, want] += 1
            else:
                assert want
    for kind in vals:
        for signed in (True, False):
            assert seen[kind, signed, 1, False, False]
            assert seen[kind, signed, 2, True, True] and seen[kind, signed, 2, False, False]
        # a tie of one sign admits zero unsigned only
        assert seen[kind, True, 2, True, False]


def test_kept_pair_is_the_pair_read_back_from_the_pushed_element():
    pairs = [(0, INF)] + [(s, Fraction(k, 3)) for s in (1, -1) for k in (-4, 0, 2)]
    for field in ("RT", "T", "S", "K"):
        for s, v in pairs:
            kept = kept_pair(field, s, v)
            assert kept == sign_val(from_sign_val(field, s, v)), (field, s, v)
            # on a valuation scaled to an int it keeps the same parts
            if s:
                k = int(v * 3)
                assert kept_pair(field, s, k) == (kept[0], int(kept[1] * 3))
        assert kept_pair(field, 0, 0) == (0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hyper_mul(2, 3),
        lambda: hyper_div(2, 3),
        lambda: hyper_neg(5),
        lambda: hyper_neg("x"),
        lambda: hyper_sum([2, 3]),
        lambda: hyper_mul(True, -1),
        lambda: hyper_neg(False),
        lambda: hyper_sum([1, True]),
    ],
    ids=["mul", "div", "neg-int", "neg-str", "sum", "mul-bool", "neg-bool", "sum-bool"],
)
def test_non_elements_are_rejected(call):
    with pytest.raises(TypeError, match="^not a hyperfield element: "):
        call()


@pytest.mark.parametrize("given", [True, False])
def test_bools_are_not_elements(given):
    with pytest.raises(ValueError, match=f"^sign must be -1, 0 or \\+1, got {given!r}$"):
        RT(given, 0 if given else INF)
    with pytest.raises(ValueError, match="^sign must be -1, 0 or \\+1, got True$"):
        rt(True)
    with pytest.raises(TypeError, match=f"^not a hyperfield element: {given!r}$"):
        field_of(given)
    assert field_of(1) == field_of(0) == "S"


# -- signs at the JSON boundary --------------------------------------------


@pytest.mark.parametrize("given, expected", [("+", 1), ("-", -1), ("0", 0), (1, 1), (-1, -1), (0, 0)])
def test_sign_decoder_accepts_chars_and_unit_ints(given, expected):
    assert sign_from_json(given) == expected


@pytest.mark.parametrize("given", [True, False, 1.0, -0.5, 1.7, 2, "x", "++", None])
def test_sign_decoder_rejects_everything_else(given):
    with pytest.raises(ValueError, match=f"^bad sign {re.escape(repr(given))}$"):
        sign_from_json(given)


@pytest.mark.parametrize("obj", [[-0.5, "1"], [1.7, "0"], [True, "0"], ["?", "0"], {"sign": "p", "val": "1"}])
def test_rt_from_json_rejects_bad_signs(obj):
    with pytest.raises(ValueError, match="^bad sign "):
        value_from_json(obj, "RT")


def test_rt_from_json_accepts_int_signs():
    assert value_from_json([-1, "1/2"], "RT") == RT(-1, Fraction(1, 2))
    assert value_from_json({"sign": 0, "val": "inf"}, "RT") == RT_ZERO


def test_unchecked_rt_equals_the_checked_constructor():
    vals = [Fraction(k, d) for k in (-3, 0, 1, 7) for d in (1, 2, 3)]
    for sign in (-1, 1):
        for val in vals:
            x, y = unchecked_rt(sign, val), RT(sign, val)
            assert type(x) is RT and x == y and hash(x) == hash(y) and repr(x) == repr(y)
            assert (x.sign, x.val) == (y.sign, y.val) and type(x.val) is Fraction
            assert -x == RT(-sign, val)
            with pytest.raises(dataclasses.FrozenInstanceError):
                x.sign = -sign
    assert unchecked_rt(0, INF) == RT_ZERO and unchecked_rt(0, INF).is_zero
    # the public constructor still checks
    for sign, val in ((2, 0), (0, 1), (1, INF), (True, 0), (1, 0.5)):
        with pytest.raises((ValueError, TypeError)):
            RT(sign, val)
