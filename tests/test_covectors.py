import collections
import dataclasses
import itertools
import json
import random

import pytest

from realtrop import (
    BergmanFan,
    CovectorPoset,
    EnumerationCapError,
    bergman_fan,
    check_covector_axioms,
    cocircuits_from_gp,
    covector_closure,
    covector_zero_flat,
    gp_from_matrix,
    ground_from_matrix,
    pushforward_gp,
)
from realtrop import linalg, matroids
from realtrop.jsonio import fan_to_json, poset_to_json
from realtrop.matroids import sign_vector_str

from helpers import parse_sign_vector, poset_from_json, random_full_rank_ground
from oracles import (
    chains_by_recursion,
    closure_by_all_pairs,
    compose_sv,
    covector_axioms_by_tuples,
    covers_by_triples,
    leq_sv,
    uncomposable_by_restrictions,
)

U23 = ground_from_matrix([[1, 0, 1], [0, 1, 1]])


def u23_poset():
    gp = gp_from_matrix(U23, target="S")
    return covector_closure(cocircuits_from_gp(gp))


def test_u23_closure_has_thirteen_covectors():
    poset = u23_poset()
    assert len(poset) == 13
    rays = [v for v in poset.vectors if sum(1 for x in v if x) == 2]
    sectors = [v for v in poset.vectors if all(v)]
    assert len(rays) == 6 and len(sectors) == 6


def test_membership_matches_a_set_of_the_vectors():
    # membership reads the mask index; a tuple of another length, or with
    # an entry outside -1, 0 and 1, is not a member and raises nothing
    rng = random.Random(211)
    posets = [CovectorPoset(()), covector_closure([])]
    for _ in range(30):
        h = rng.randint(1, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        closed = covector_closure(cocircuits_from_gp(gp_from_matrix(g, target="S")))
        repeats = CovectorPoset(tuple(rng.choice(closed.vectors) for _ in range(6)))
        posets += [closed, repeats]
    tested = collections.Counter()
    for poset in posets:
        vectors = set(poset.vectors)
        width = poset.width
        probes = [tuple(rng.choice((-1, 0, 1)) for _ in range(width)) for _ in range(20)]
        probes += [(), (0,) * (width + 1), (1,) * max(width - 1, 0)]
        for v in poset.vectors[:4]:
            bad = rng.choice((2, -2, None, "+", 0.5))
            probes += [v, v + (0,), v[:-1], (bad,) + v[1:] if v else (bad,)]
        for X in probes:
            got = X in poset
            assert got == (X in vectors), (poset.vectors, X)
            tested[got, len(X) == width] += 1
    assert min(tested[True, True], tested[False, True], tested[False, False]) > 100, tested


def test_closure_of_nothing_is_zero():
    poset = covector_closure([])
    assert poset.vectors == ((),) or poset.vectors == ()


def test_closure_is_idempotent():
    poset = u23_poset()
    again = covector_closure(poset.vectors)
    assert again.vectors == poset.vectors


def test_parity_under_negation():
    poset = u23_poset()
    have = set(poset.vectors)
    assert all(tuple(-x for x in v) in have for v in have)


def test_covector_axioms_for_realizable():
    assert check_covector_axioms(u23_poset()).ok


def test_zero_alone_passes():
    assert check_covector_axioms([(0, 0, 0)]).ok


def test_removing_a_cocircuit_pair_breaks_elimination():
    gp = gp_from_matrix(U23, target="S")
    cocs = [v for v in cocircuits_from_gp(gp) if v[2] != 0 or v == (1, -1, 0) or v == (-1, 1, 0)]
    kept = [v for v in cocircuits_from_gp(gp) if v not in ((1, -1, 0), (-1, 1, 0))]
    poset = covector_closure(kept)
    report = check_covector_axioms(poset)
    assert not report.ok
    assert any(v["axiom"] == "Cov4" for v in report.violations)


def test_cover_relations_are_tight():
    poset = u23_poset()
    vecs = poset.vectors
    for i, j in poset.covers:
        assert leq_sv(vecs[i], vecs[j]) and vecs[i] != vecs[j]
        assert not any(
            leq_sv(vecs[i], vecs[k]) and leq_sv(vecs[k], vecs[j])
            and vecs[k] not in (vecs[i], vecs[j])
            for k in range(len(vecs))
        )


def test_one_index_serves_covers_chains_axioms_and_maximal_cones(monkeypatch):
    real = matroids._coordinate_index
    calls = []

    def counting(masks, width):
        calls.append(len(masks))
        return real(masks, width)

    monkeypatch.setattr(matroids, "_coordinate_index", counting)
    poset = u23_poset()
    assert len(poset.covers) == 18
    assert len(poset.chains()) == 24
    assert check_covector_axioms(poset).ok
    assert len(bergman_fan(poset).maximal_cones()) == 12
    assert calls == [13]
    # a plain list is wrapped in a poset of its own, indexed once
    assert check_covector_axioms(list(poset.vectors)).ok
    assert calls == [13, 13]


def test_poset_has_only_its_vectors():
    assert [f.name for f in dataclasses.fields(CovectorPoset)] == ["vectors"]


def test_poset_json_covers_must_match_the_vectors():
    poset = u23_poset()
    obj = poset_to_json(poset)
    assert poset_from_json(obj) == poset
    assert poset_from_json({"vectors": obj["vectors"]}) == poset
    for covers in (obj["covers"][1:], [list(reversed(c)) for c in obj["covers"]]):
        with pytest.raises(ValueError, match="^covers do not match the vectors$"):
            poset_from_json(dict(obj, covers=covers))
    with pytest.raises(ValueError, match="^sign vectors of unequal length$"):
        poset_from_json({"vectors": ["0", "+-"]})


def test_chain_lengths_bounded_by_rank():
    rng = random.Random(47)
    for _ in range(4):
        h = rng.randint(2, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        gp = gp_from_matrix(g, target="S")
        poset = covector_closure(cocircuits_from_gp(gp))
        assert bergman_fan(poset).rank == h
        assert check_covector_axioms(poset).ok


def test_zero_flats():
    gp_s = gp_from_matrix(U23, target="S")
    und = pushforward_gp(gp_from_matrix(U23), "to-krasner")
    poset = covector_closure(cocircuits_from_gp(gp_s))
    zero = (0, 0, 0)
    assert covector_zero_flat(zero, und) == (0, 1, 2)
    assert covector_zero_flat((0, 1, 1), und) == (0,)
    full = next(v for v in poset.vectors if all(v))
    assert covector_zero_flat(full, und) == ()


def test_zero_flat_rejects_non_flats():
    und = pushforward_gp(gp_from_matrix(U23), "to-krasner")
    # zero set {0, 1} spans everything in U(2,3), so it is not closed
    with pytest.raises(ValueError):
        covector_zero_flat((0, 0, 1), und)


@pytest.mark.parametrize("X", [(0,), (0, 1, 1, 0)], ids=["short", "long"])
def test_zero_flat_checks_lengths(X):
    und = pushforward_gp(gp_from_matrix(U23), "to-krasner")
    with pytest.raises(ValueError, match="^covector and ground set have different lengths$"):
        covector_zero_flat(X, und)


def test_flat_map_is_strictly_monotone_on_poset():
    gp_s = gp_from_matrix(U23, target="S")
    und = pushforward_gp(gp_from_matrix(U23), "to-krasner")
    poset = covector_closure(cocircuits_from_gp(gp_s))
    for X in poset.vectors:
        fx = set(covector_zero_flat(X, und))
        for Y in poset.vectors:
            if X != Y and leq_sv(X, Y):
                fy = set(covector_zero_flat(Y, und))
                assert fy < fx


def test_zero_flats_match_rational_rank():
    # a zero set Z is a flat exactly when every column outside it raises
    # the rank of the columns in Z; ranks here are rational ranks of the
    # constant columns, independent of the minor table
    rng = random.Random(337)
    seen = {True: 0, False: 0}
    for _ in range(30):
        h = rng.randint(1, 3)
        g = random_full_rank_ground(rng, h, rng.randint(h, 5), constant=True)
        und = pushforward_gp(gp_from_matrix(g), "to-krasner")
        cols = [[x.constant_value() for x in c] for c in g.columns]
        m = len(cols)
        for size in range(m + 1):
            for zset in itertools.combinations(range(m), size):
                r = linalg.rank([cols[e] for e in zset])
                flat = all(
                    linalg.rank([cols[e] for e in zset + (f,)]) > r
                    for f in range(m)
                    if f not in zset
                )
                X = tuple(0 if e in zset else 1 for e in range(m))
                seen[flat] += 1
                if flat:
                    assert covector_zero_flat(X, und) == zset
                else:
                    with pytest.raises(ValueError, match="is not a flat"):
                        covector_zero_flat(X, und)
    assert seen[True] and seen[False]


def test_composition_operator():
    assert compose_sv((1, 0, -1), (0, 1, 1)) == (1, 1, -1)
    assert compose_sv((0, 0, 0), (1, -1, 0)) == (1, -1, 0)
    assert sign_vector_str((1, 0, -1)) == "+0-"


def test_sign_vector_round_trip_and_rejection():
    assert parse_sign_vector(" +0- ") == (1, 0, -1)
    assert sign_vector_str(parse_sign_vector("-+0")) == "-+0"
    with pytest.raises(ValueError, match="bad sign vector"):
        parse_sign_vector("+x-")


def test_chain_count_equals_the_number_of_chains():
    # counted in decreasing support size, against the chains themselves:
    # closures, and generator lists with repeats and zero vectors
    rng = random.Random(271)
    posets = [CovectorPoset(()), CovectorPoset(((0, 0),)), u23_poset()]
    for _ in range(40):
        for gens in _generator_sets(rng):
            posets += [covector_closure(gens), CovectorPoset(tuple(gens + gens[:2]))]
    for poset in posets:
        assert poset.chain_count() == len(poset.chains()), poset.vectors
    assert max(len(p.chains()) for p in posets) > 1000


def _no_chains(self, cap=None):
    raise AssertionError("a chain was built")


def test_bergman_fan_counts_the_chains_before_building_one(monkeypatch):
    # the fan and its length read the count, not the chains
    poset = u23_poset()
    monkeypatch.setattr(CovectorPoset, "chains", _no_chains)
    with pytest.raises(EnumerationCapError) as info:
        bergman_fan(poset, cap=23)
    assert (info.value.required, info.value.cap, info.value.stage) == (24, 23, "chain enumeration")
    fan = bergman_fan(poset, cap=24)
    assert len(fan.cones) == 24
    monkeypatch.undo()
    assert fan.cones == poset.chains()


def test_chains_check_their_count_against_the_cap(monkeypatch):
    # a count over the cap raises before the positions above are read
    poset = u23_poset()
    monkeypatch.setattr(CovectorPoset, "chain_count", lambda self: matroids.DEFAULT_PAIR_CAP + 1)
    monkeypatch.setattr(CovectorPoset, "_above_lists", property(_no_chains))
    for call, cap in ((poset.chains, matroids.DEFAULT_PAIR_CAP), (lambda: poset.chains(cap=7), 7)):
        with pytest.raises(EnumerationCapError) as info:
            call()
        assert (info.value.required, info.value.cap, info.value.stage) == (
            matroids.DEFAULT_PAIR_CAP + 1, cap, "chain enumeration"
        )
    monkeypatch.undo()
    assert len(poset.chains(cap=24)) == 24
    with pytest.raises(EnumerationCapError):
        poset.chains(cap=23)


def test_fan_cones_are_the_chains_built_once_on_first_read(monkeypatch):
    real = CovectorPoset.chains
    calls = []

    def counting(self, cap=matroids.DEFAULT_PAIR_CAP):
        calls.append(cap)
        return real(self, cap)

    monkeypatch.setattr(CovectorPoset, "chains", counting)
    rng = random.Random(433)
    posets = [CovectorPoset(()), CovectorPoset(((0, 0),)), u23_poset()]
    for _ in range(10):
        for gens in _generator_sets(rng):
            posets += [covector_closure(gens), CovectorPoset(tuple(gens + gens[:2]))]
    for poset in posets:
        fan = bergman_fan(poset)
        calls.clear()
        count = len(fan.cones)
        assert calls == []
        chains = real(poset)
        assert tuple(fan.cones) == chains == fan.cones and list(fan.cones) == list(chains)
        assert fan.cones[1:3] == chains[1:3] and fan.cones[::-1] == chains[::-1]
        assert all(c in fan.cones for c in chains[:5]) and fan.cones != chains + ((0,),)
        if count:
            assert fan.cones[0] == chains[0] and fan.cones[-1] == chains[-1]
            assert fan != BergmanFan(poset, chains[1:])
        assert calls == [count]
        listed, again = BergmanFan(poset, chains), bergman_fan(poset)
        assert fan == listed == again and hash(fan) == hash(listed) == hash(again)


def test_fan_of_the_view_reads_as_the_fan_of_the_tuple():
    # rank, maximal cones and JSON of bergman_fan against a fan given
    # chains() as a tuple: closures, generator lists with repeats, and
    # closures damaged so that they are not oriented matroids
    rng = random.Random(439)
    posets = [CovectorPoset(()), CovectorPoset(((0, 0),)), u23_poset()]
    for _ in range(10):
        for gens in _generator_sets(rng):
            closed = covector_closure(gens)
            posets += [closed, CovectorPoset(tuple(gens + gens[:2]))]
            posets += [CovectorPoset(tuple(v)) for v in _damaged(rng, closed.vectors)]
    seen = collections.Counter()
    for poset in posets:
        chains = poset.chains()
        fan, listed = bergman_fan(poset), BergmanFan(poset, chains)
        assert fan.rank == listed.rank == max(map(len, chains), default=0)
        maximal = fan.maximal_cones()
        assert maximal == listed.maximal_cones(), poset.vectors
        expected = {
            "rank": listed.rank,
            "covectors": [sign_vector_str(v) for v in poset.vectors],
            "chains": [list(c) for c in chains],
        }
        assert json.dumps(fan_to_json(bergman_fan(poset))) == json.dumps(expected)
        seen["repeats"] += len(set(poset.vectors)) < len(poset)
        seen["impure"] += len({len(c) for c in maximal}) > 1
    assert min(seen.values()) >= 10, seen


def _generator_sets(rng):
    """Seeded generator lists: the cocircuits of a realizable oriented
    matroid, a random subset of them, and random sign vectors."""
    h = rng.randint(1, 4)
    g = random_full_rank_ground(rng, h, rng.randint(h, 6), constant=True)
    cocircuits = list(cocircuits_from_gp(gp_from_matrix(g, target="S")))
    yield cocircuits
    yield rng.sample(cocircuits, rng.randint(1, len(cocircuits)))
    width = rng.randint(1, 6)
    yield [tuple(rng.choice((-1, 0, 1)) for _ in range(width)) for _ in range(rng.randint(1, 6))]


@pytest.fixture
def checked_against_oracle(monkeypatch):
    """check_covector_axioms compared with the tuple oracle on each call,
    counting the path it took: "certified" when Cov3 held and the
    equal-support keys passed, "keys failed" when Cov3 held and the pair
    loop ran, "Cov3 failed" when the pair loop ran after Cov3 failed."""
    real_uncomposable = matroids._uncomposable
    real_violations = matroids._elimination_violations
    ran: dict[str, bool] = {}

    def uncomposable(*args):
        failing = real_uncomposable(*args)
        ran["Cov3 failed" if failing else "Cov3 held"] = True
        return failing

    def violations(*args):
        ran["pair loop"] = True
        return real_violations(*args)

    monkeypatch.setattr(matroids, "_uncomposable", uncomposable)
    monkeypatch.setattr(matroids, "_elimination_violations", violations)
    paths: collections.Counter = collections.Counter()

    def check(vectors):
        ran.clear()
        got = check_covector_axioms(vectors)
        want = covector_axioms_by_tuples(vectors)
        assert (got.ok, got.violations) == (want.ok, want.violations), vectors
        if ran.get("Cov3 failed"):
            assert ran.get("pair loop"), vectors
            paths["Cov3 failed"] += 1
        elif ran.get("Cov3 held"):
            paths["keys failed" if ran.get("pair loop") else "certified"] += 1
        return got

    check.paths = paths
    return check


def _damaged(rng, vectors):
    """A closure with one vector dropped, with one entry changed, and
    shuffled with repeats of its vectors."""
    vectors = list(vectors)
    dropped = vectors[:]
    del dropped[rng.randrange(len(dropped))]
    changed = vectors[:]
    i, e = rng.randrange(len(changed)), rng.randrange(len(changed[0]))
    entry = rng.choice([x for x in (-1, 0, 1) if x != changed[i][e]])
    changed[i] = changed[i][:e] + (entry,) + changed[i][e + 1 :]
    shuffled = vectors + rng.choices(vectors, k=rng.randint(1, 4))
    rng.shuffle(shuffled)
    return dropped, changed, shuffled


def test_mask_closure_and_axioms_match_tuple_oracles(checked_against_oracle):
    rng = random.Random(331)
    failing = small = 0
    for _ in range(40):
        for gens in _generator_sets(rng):
            poset = covector_closure(gens)
            expected = closure_by_all_pairs(gens)
            assert poset.vectors == expected.vectors, gens
            assert poset.covers == covers_by_triples(poset.vectors), gens
            lists = [poset.vectors, gens, gens + gens[:2]]
            if len(poset) < 60:
                small += 1
                assert poset.chains() == chains_by_recursion(poset.vectors), gens
                lists.extend(_damaged(rng, poset.vectors))
            for vectors in lists:
                failing += not checked_against_oracle(vectors).ok
    # valid closures of the benchmark's shapes, and each with a vector dropped
    for h, w in ((4, 5), (3, 6), (2, 7)):
        rows = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(w)] for _ in range(h)]
        gp = gp_from_matrix(ground_from_matrix(rows), target="S")
        poset = covector_closure(cocircuits_from_gp(gp))
        assert checked_against_oracle(poset.vectors).ok
        assert not checked_against_oracle(_damaged(rng, poset.vectors)[0]).ok
    assert failing > 40 and small > 40
    paths = checked_against_oracle.paths
    assert min(paths[p] for p in ("certified", "keys failed", "Cov3 failed")) >= 20, paths


def test_cov3_count_matches_restriction_oracle():
    # lists with repeats and in shuffled order, with a vector dropped and
    # with an entry changed: only the first copy of a vector is counted
    rng = random.Random(409)
    seen: collections.Counter = collections.Counter()
    for _ in range(25):
        for gens in _generator_sets(rng):
            vectors = covector_closure(gens).vectors
            for listed in (vectors, gens, gens + gens[:2], *_damaged(rng, vectors)):
                poset = CovectorPoset(tuple(listed))
                width, pairs = matroids._mask_pairs(poset.vectors)
                want = uncomposable_by_restrictions(set(pairs), (1 << width) - 1)
                assert matroids._uncomposable(poset) == want, listed
                repeats = len(set(listed)) < len(listed)
                seen[repeats, bool(want)] += 1
    assert min(seen[key] for key in itertools.product((False, True), repeat=2)) >= 20, seen


def test_closure_hands_its_masks_to_the_poset(monkeypatch):
    real = matroids._masks
    calls = []

    def counting(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(matroids, "_masks", counting)
    rng = random.Random(419)
    failing = 0
    for _ in range(12):
        for gens in _generator_sets(rng):
            poset = covector_closure(gens)
            calls.clear()
            fan = bergman_fan(poset)
            report = check_covector_axioms(poset)
            derived = (poset.covers, tuple(fan.cones), fan.maximal_cones(), report)
            assert calls == []
            assert poset._pairs == matroids._mask_pairs(poset.vectors)[1]
            # a poset read from JSON is given no masks and reads them back
            calls.clear()
            again = poset_from_json(poset_to_json(poset))
            assert again == poset and len(calls) == len(poset)
            fan_again = bergman_fan(again)
            assert derived == (
                again.covers, tuple(fan_again.cones), fan_again.maximal_cones(),
                check_covector_axioms(again),
            ), gens
            failing += not report.ok
    assert failing >= 5


def test_valid_closure_is_certified_per_support_class(monkeypatch):
    # U(3, 6): every 3 of these columns are independent
    ground = ground_from_matrix([[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3], [0, 0, 1, 1, 4, 9]])
    gp = gp_from_matrix(ground, target="S")
    assert len(gp.bases()) == 20
    poset = covector_closure(cocircuits_from_gp(gp))
    by_support = collections.Counter(tuple(x != 0 for x in v) for v in poset.vectors)
    equal_support_pairs = sum(k * (k - 1) // 2 for k in by_support.values())
    real = matroids._elimination_gaps
    keys = []

    def counting(at, agree, coords, plus, sep):
        keys.append((tuple(coords), plus & ~sep, sep))
        return real(at, agree, coords, plus, sep)

    def pair_loop(*args):
        raise AssertionError("the pair loop ran on a valid closure")

    monkeypatch.setattr(matroids, "_elimination_gaps", counting)
    monkeypatch.setattr(matroids, "_elimination_violations", pair_loop)
    assert check_covector_axioms(poset).ok
    assert 0 < len(keys) <= equal_support_pairs < len(poset) * (len(poset) - 1) // 2
    assert len(set(keys)) == len(keys)


def test_closure_cap_counts_the_first_added_vector():
    # zero and the six cocircuits of U(2,3) are 7 > 5 vectors before any is
    # added; the cap is checked only when the closure adds one
    cocircuits = cocircuits_from_gp(gp_from_matrix(U23, target="S"))
    for closure in (covector_closure, closure_by_all_pairs):
        with pytest.raises(EnumerationCapError) as exc:
            closure(cocircuits, cap=5)
        assert (exc.value.cap, exc.value.required) == (5, 8)
    assert len(covector_closure(cocircuits, cap=13)) == 13


def test_unequal_lengths_and_bad_entries_rejected():
    with pytest.raises(ValueError, match="unequal length"):
        covector_closure([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="unequal length"):
        check_covector_axioms([(0, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match="-1, 0 or 1"):
        covector_closure([(2, 0)])
