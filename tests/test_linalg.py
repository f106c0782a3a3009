import random
import re
from fractions import Fraction

import pytest

from realtrop import FlagStep, SignedFlag, UnsignedFlag, linalg

from oracles import rref_by_fractions


def _random_matrix(rng, height, width):
    entries = (0, 0, 0, 1, -1, 2, -3, 5, 7)
    dens = (1, 1, 2, 3, -4, 6, 9)
    rows = [
        [Fraction(rng.choice(entries), rng.choice(dens)) for _ in range(width)]
        for _ in range(height)
    ]
    if height > 1 and rng.random() < 0.3:
        rows[rng.randrange(height)] = list(rows[rng.randrange(height)])
    if rng.random() < 0.2:
        rows[rng.randrange(height)] = [Fraction(0)] * width
    if rng.random() < 0.2:
        c = rng.randrange(width)
        for row in rows:
            row[c] = Fraction(0)
    if rng.random() < 0.2:
        # ints and strings beside Fractions
        i, j = rng.randrange(height), rng.randrange(width)
        rows[i][j] = rng.choice((rng.randint(-4, 4), str(rows[i][j])))
    return rows


def test_rref_matches_fraction_oracle():
    # the fraction-free elimination returns the unique reduced form
    rng = random.Random(401)
    seen = {"zero_row": 0, "zero_col": 0, "repeat": 0, "tall": 0, "wide": 0, "neg_den": 0}
    for _ in range(2500):
        height, width = rng.randint(1, 7), rng.randint(1, 9)
        rows = _random_matrix(rng, height, width)
        got = linalg.rref(rows)
        assert got == rref_by_fractions(rows)
        assert all(type(x) is Fraction for row in got[0] for x in row)
        vals = [[Fraction(x) for x in row] for row in rows]
        seen["zero_row"] += any(not any(row) for row in vals)
        seen["zero_col"] += any(not any(row[c] for row in vals) for c in range(width))
        seen["repeat"] += len({tuple(row) for row in vals}) < height
        seen["tall"] += height > width
        seen["wide"] += height < width
        seen["neg_den"] += any(
            type(x) is Fraction and x < 0 and x.denominator > 1 for row in rows for x in row
        )
    assert min(seen.values()) > 200, seen


def test_vectors_read_ints_fractions_and_strings():
    assert linalg.vec([1, Fraction(1, 2), "3/4"]) == (1, Fraction(1, 2), Fraction(3, 4))


def test_rref_of_one_row_divides_by_the_pivot():
    assert linalg.rref([[0, -4, 6, 0]]) == (((0, 1, Fraction(-3, 2), 0),), (1,))
    assert linalg.rref([[0, 0]]) == ((), ())
    assert linalg.rref([]) == ((), ())


@pytest.mark.parametrize("text", ["2.5", "1e3", "1_0", "1/0", "0x10", "1/-2", "", " "])
def test_rational_strings_follow_the_valuation_grammar(text):
    with pytest.raises(ValueError, match=f"^bad rational {re.escape(repr(text))}$"):
        linalg.vec(["1", text])
    with pytest.raises(ValueError, match=f"^bad rational {re.escape(repr(text))}$"):
        FlagStep((1, text), 0, 1)


def test_rational_strings_read_sign_int_and_nonzero_denominator():
    assert linalg.vec([" -3/6 ", "+4", "007", "2/03"]) == (
        Fraction(-1, 2), 4, 7, Fraction(2, 3)
    )
    assert linalg.parse_rational("-0/5") == 0
    assert linalg.rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [True, False, 0.5, 0.1, 1.0])
def test_vectors_reject_bools_and_floats(bad):
    with pytest.raises(TypeError):
        linalg.vec([1, bad])
    with pytest.raises(TypeError):
        linalg.mat([[1, 0], [bad, 1]])
    with pytest.raises(TypeError):
        linalg.rref([[bad, 1]])
    with pytest.raises(TypeError):
        FlagStep((bad, 1), 0, 1)
    with pytest.raises(TypeError):
        SignedFlag(((bad, 1),), (FlagStep((0, 1), 0, 1),))
    with pytest.raises(TypeError):
        UnsignedFlag((), ((((1, 0), (bad, 1)), 0),))


def _det_by_fractions(rows) -> Fraction:
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(work)):
        pivot = next((i for i in range(k, len(work)) if work[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        top = work[k]
        det *= top[k]
        for row in work[k + 1 :]:
            f = row[k] / top[k]
            row[:] = [x - f * y for x, y in zip(row, top)]
    return det


def test_int_functionals_are_positive_multiples_of_the_inverse_transpose():
    # F is exactly |det A| A^-T, in ints; the sign agrees with int_det_sign,
    # and a singular matrix has no functionals
    rng = random.Random(409)
    singular = 0
    for _ in range(1500):
        n = rng.randint(0, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5, 7)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[rng.randrange(n)] = [2 * x for x in rows[rng.randrange(n)]]
        sign, F = linalg.int_functionals(rows)
        det = _det_by_fractions(rows)
        assert sign == linalg.int_det_sign([list(r) for r in rows]) == (det > 0) - (det < 0)
        if sign == 0:
            assert F is None
            singular += 1
            continue
        inverse = linalg.inverse(rows)
        assert all(type(x) is int for row in F for x in row)
        assert F == [[abs(det) * inverse[i][k] for i in range(n)] for k in range(n)]
    assert singular > 100


def test_int_functionals_examples():
    assert linalg.int_functionals([]) == (1, [])
    assert linalg.int_functionals([[-2]]) == (-1, [[-1]])
    assert linalg.int_functionals([[0, 1], [1, 0]]) == (-1, [[0, 1], [1, 0]])
    assert linalg.int_functionals([[1, 2], [2, 4]]) == (0, None)
    with pytest.raises(ValueError, match="non-square"):
        linalg.int_functionals([[1, 2]])
