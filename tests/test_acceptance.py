"""End-to-end acceptance checks.

Each test prints one PASS line; run with ``pytest tests/test_acceptance.py -s``
to see them.  Stated runtime budgets are asserted inside the tests.
"""

import itertools
import random
import time
from fractions import Fraction

from realtrop import (
    INF,
    RT,
    RT_ZERO,
    CompatibleFamily,
    DiagonalSeminorm,
    GrassmannPlucker,
    LinearEmbedding,
    ProjPoint,
    PuiseuxSeries,
    ball,
    bergman_fan,
    bergman_member,
    check_circuit_axioms,
    check_covector_axioms,
    check_gp_relations,
    circuits_from_matrix,
    cocircuits_from_gp,
    covector_closure,
    decomposition_value,
    diagonalize,
    family_from_seminorm,
    fval,
    gp_from_matrix,
    ground_from_matrix,
    hyper_div,
    hyper_mul,
    hyper_sum,
    hyperset_add,
    hyperset_contains,
    linear_space_member,
    phi_abs,
    phi_fiber,
    project_point,
    reconstruct_from_family,
    scaled_cocircuit_decomposition,
    singleton,
    standard_leaf,
    trop_r_point,
)
from realtrop.hyperfields import hyper_neg, pushmap
from realtrop.seminorms import InconsistentFamilyError

from helpers import (
    normalized_grid,
    random_diagonal,
    random_expression,
    random_embedding,
    random_rational_vector,
)

LINE = LinearEmbedding.from_matrix([[1, 0, 1], [0, 1, 1]])

IN_PATTERNS = {
    (1, 1, 1), (-1, -1, -1), (1, -1, -1), (-1, 1, 1), (1, -1, 1), (-1, 1, -1),
}
OUT_PATTERNS = {(1, 1, -1), (-1, -1, 1)}


def test_criterion_01_tropical_line_classification():
    start = time.perf_counter()
    (circuit,) = LINE.circuits
    # equal valuations: the published sign patterns
    for signs in itertools.product((1, -1), repeat=3):
        y = ProjPoint(tuple(RT(s, 0) for s in signs))
        member = linear_space_member(y, LINE)
        assert member == (signs in IN_PATTERNS)
        assert (signs in OUT_PATTERNS) == (not member)
    # whole valuation grid: the dominant-coordinate rule as an oracle
    states = [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in (0, 1, 2)]
    checked = 0
    for coords in itertools.product(states, repeat=3):
        if all(x.sign == 0 for x in coords):
            continue
        y = ProjPoint(coords)
        prods = [hyper_mul(a, b) for a, b in zip(y.coords, circuit.entries)]
        nonzero = [p for p in prods if p.sign != 0]
        if not nonzero:
            expected = True
        else:
            vstar = min(p.val for p in nonzero)
            top = [p for p in nonzero if p.val == vstar]
            expected = any(
                p.sign == -q.sign for p, q in itertools.combinations(top, 2)
            )
        assert linear_space_member(y, LINE) == expected
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: tropical line classification on {checked} grid points "
          f"({elapsed:.2f}s)")


def test_criterion_02_basis_order_sensitivity():
    s = DiagonalSeminorm(((1, 0), (0, 1)), (0, 0))
    s_swapped = DiagonalSeminorm(((0, 1), (1, 0)), (0, 0))
    f = ("1", "-1")
    assert s.value(f) == RT(1, 0)
    assert s_swapped.value(f) == RT(-1, 0)
    print("PASS criterion 2: basis order flips the sign of the unit difference")


def test_criterion_03_axiom_suites_with_corruption():
    start = time.perf_counter()
    rng = random.Random(2024)
    n_matrices = 50
    covector_runs = 0
    for i in range(n_matrices):
        h = rng.choice([2, 2, 3, 3, 3, 4])
        w = rng.randint(h, min(7, h + 3))
        g = random_embedding(rng, h, w)
        gp = gp_from_matrix(g)
        assert check_gp_relations(gp).ok, (i, h, w)
        assert check_circuit_axioms(circuits_from_matrix(g)).ok, (i, h, w)
        if h <= 3 and w <= 6:
            sgn_gp = gp_from_matrix(g, target="S")
            poset = covector_closure(cocircuits_from_gp(sgn_gp))
            assert check_covector_axioms(poset).ok, (i, h, w)
            covector_runs += 1
    assert covector_runs >= 10

    # one injected corruption per suite
    four = ground_from_matrix([[1, 0, 1, 1], [0, 1, 1, -1]])
    gp = gp_from_matrix(four)
    values = dict(gp.values)
    values[(2, 3)] = hyper_neg(values[(2, 3)])
    assert not check_gp_relations(GrassmannPlucker(2, gp.labels, "RT", values)).ok

    circuits = circuits_from_matrix(four)
    assert not check_circuit_axioms(circuits[:-1]).ok

    u23 = ground_from_matrix([[1, 0, 1], [0, 1, 1]])
    cocs = [
        v
        for v in cocircuits_from_gp(gp_from_matrix(u23, target="S"))
        if v not in ((1, -1, 0), (-1, 1, 0))
    ]
    assert not check_covector_axioms(covector_closure(cocs)).ok

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: axiom suites over {n_matrices} matrices "
          f"({covector_runs} covector runs), all corruptions detected ({elapsed:.1f}s)")


def test_criterion_04_fan_equals_circuit_membership():
    start = time.perf_counter()
    rng = random.Random(404)
    points = 0
    n_matroids = 20
    for _ in range(n_matroids):
        h = rng.randint(2, 3)
        w = rng.randint(h, 6)
        emb = random_embedding(rng, h, w, constant=True)
        fan = bergman_fan(
            covector_closure(cocircuits_from_gp(gp_from_matrix(emb, target="S")))
        )
        for y in normalized_grid(w, vals=(0, 1)):
            assert bergman_member(y, fan) == linear_space_member(y, emb)
            points += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 4: fan membership equals circuit membership on "
          f"{points} points across {n_matroids} matroids ({elapsed:.1f}s)")


CANCELLATION = ["1", "-1", "1+t", "1-t", "-1+t", "-1-t", "t", "2", "-2", "1/2"]


def test_criterion_05_image_points_are_members():
    start = time.perf_counter()
    rng = random.Random(505)
    from realtrop import as_series

    failures = 0
    n_embeddings = 10
    for _ in range(n_embeddings):
        h = rng.randint(2, 4)
        w = rng.randint(h, 8)
        emb = random_embedding(rng, h, w)
        count = 0
        while count < 200:
            if rng.random() < 0.5:
                x = [as_series(rng.choice(CANCELLATION)) for _ in range(h)]
            else:
                x = [as_series(Fraction(rng.randint(-9, 9))) for _ in range(h)]
            if all(s.is_zero for s in x):
                continue
            y = trop_r_point(emb.apply(x))
            if not linear_space_member(y, emb):
                failures += 1
            count += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: {n_embeddings} embeddings x 200 sampled points, "
          f"zero membership failures ({elapsed:.1f}s)")


def _family_fixture(rng, dim):
    e0 = tuple(PuiseuxSeries.constant(1 if i == 0 else 0) for i in range(dim))
    probes = [
        tuple(PuiseuxSeries.constant(rng.randint(-4, 4)) for _ in range(dim))
        for _ in range(6)
    ]
    probes = [p for p in probes if any(x.constant_value() for x in p)]
    while len(probes) < 6:
        probes.append(tuple(PuiseuxSeries.constant(rng.randint(1, 4)) for _ in range(dim)))
    embs = [
        LinearEmbedding((e0,) + tuple(probes[0:3])),
        LinearEmbedding((e0,) + tuple(probes[2:6])),
        LinearEmbedding((e0,) + tuple(probes[3:6]) + (probes[0],)),
        LinearEmbedding((e0, probes[1], probes[4], probes[0])),
    ]
    return e0, probes, embs


def test_criterion_06_family_reconstruction_and_corruption():
    rng = random.Random(606)
    dim = 3
    while True:
        s = random_diagonal(rng, dim, allow_inf=False)
        e0, probes, embs = _family_fixture(rng, dim)
        if s.value(e0).sign != 0:
            break
    fam = family_from_seminorm(s, embs)
    table = reconstruct_from_family(fam, probes)
    factor = hyper_div(RT(1, 0), s.value(e0))
    for probe, got in zip(probes, table):
        assert got == hyper_mul(factor, s.value(probe))

    members = list(fam.members)
    emb, pt = members[2]
    coords = list(pt.coords)
    k = next(i for i in range(1, len(coords)) if coords[i].sign != 0)
    coords[k] = RT(-coords[k].sign, coords[k].val)
    members[2] = (emb, ProjPoint(tuple(coords)))
    try:
        reconstruct_from_family(CompatibleFamily(tuple(members)), probes)
        raise AssertionError("corruption went unnoticed")
    except InconsistentFamilyError:
        pass
    print("PASS criterion 6: family reconstruction up to one homothety; "
          "corrupted coordinate raises the inconsistency error")


def test_criterion_07_projections_restrict_consistently():
    rng = random.Random(707)
    runs = 0
    for _ in range(8):
        dim = rng.randint(2, 4)
        width = rng.randint(dim, min(8, dim + 4))
        s = random_diagonal(rng, dim)
        emb = random_embedding(rng, dim, width, constant=True)
        if all(s.value(c).sign == 0 for c in emb.columns):
            continue
        # every circuit condition holds for the projected values
        y = project_point(s, emb)
        assert linear_space_member(y, emb)
        # the sign part is a covector of the restriction
        poset = covector_closure(
            cocircuits_from_gp(gp_from_matrix(emb, target="S"))
        )
        signs = tuple(s.value(c).sign for c in emb.columns)
        assert signs in poset
        # the seminorm decomposes into scaled minor seminorms on E'
        pieces = scaled_cocircuit_decomposition(s)
        for f in emb.columns:
            assert decomposition_value(pieces, f) == s.value(f)
        runs += 1
    assert runs >= 6
    print(f"PASS criterion 7: projections satisfy circuits, signs are covectors, "
          f"and the minor decomposition matches on {runs} instances")


def test_criterion_08_fiber_counts():
    for dim in (2, 3, 4, 5):
        s = standard_leaf(dim, tuple(range(dim)))
        assert len(phi_fiber(phi_abs(s).flag)) == 2 ** (dim - 1)
    proper = standard_leaf(2, (0, INF))
    assert len(phi_fiber(phi_abs(proper).flag)) == 1
    two_values = standard_leaf(2, (0, 1))
    assert len(phi_fiber(phi_abs(two_values).flag)) == 2
    print("PASS criterion 8: sign-choice fibers count 2^(dim-1), 1, and 2")


def test_criterion_09_diagonalization_agreement():
    rng = random.Random(909)
    n_exprs = 30
    for _ in range(n_exprs):
        dim = rng.randint(2, 3)
        expr = random_expression(rng, dim, rng.randint(1, 3))
        diag = diagonalize(expr)
        for _ in range(200):
            v = random_rational_vector(rng, dim)
            assert diag.value(v) == expr.value(v)
    print(f"PASS criterion 9: diagonal forms agree with {n_exprs} random "
          f"compositions on 200 vectors each, no search failures")


def test_criterion_10_hyperfield_micro_suite():
    start = time.perf_counter()
    grid = [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in (0, 1, 2)]
    sets = [singleton(x) for x in grid] + [ball("RT", v) for v in (0, 1, 2, INF)]
    for A in sets:
        for B in sets:
            assert hyperset_add(A, B) == hyperset_add(B, A)
            for C in sets:
                assert hyperset_add(hyperset_add(A, B), C) == hyperset_add(
                    A, hyperset_add(B, C)
                )
    for n in (2, 3, 4):
        for xs in itertools.product(grid, repeat=n):
            acc = singleton(xs[0])
            for x in xs[1:]:
                acc = hyperset_add(acc, singleton(x))
            assert acc == hyper_sum(xs)
    for name in ("abs", "sgn", "to-krasner"):
        for a in grid:
            for b in grid:
                s = hyper_sum([a, b])
                fs = hyperset_add(
                    singleton(pushmap(name, a)), singleton(pushmap(name, b))
                )
                for z in grid:
                    if hyperset_contains(s, z):
                        assert hyperset_contains(fs, pushmap(name, z))
    rng = random.Random(1010)
    for _ in range(100):
        f = PuiseuxSeries.from_terms(
            [(rng.randint(-4, 4), Fraction(rng.randint(0, 4), 2)) for _ in range(2)]
        )
        g = PuiseuxSeries.from_terms(
            [(rng.randint(-4, 4), Fraction(rng.randint(0, 4), 2)) for _ in range(2)]
        )
        assert fval(f * g) == fval(f) * fval(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 10: hyperfield grid checks and leading-term "
          f"multiplicativity ({elapsed:.1f}s)")
