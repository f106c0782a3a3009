"""Exhaustive reference algorithms that the library's faster paths are
tested against.

``circuits_by_subset_search`` is the textbook construction of the signed
valuated circuits of a column set: enumerate the bases by testing every
rank-sized subset for independence, search the subsets up to rank+1 for
the minimal dependent ones, and take the coefficients of each dependence
from Cramer's rule.  It is slow (many more determinants than the
maximal-minor table needs) but shares no code with
``realtrop.matroids.circuits_from_matrix`` beyond the determinant.
"""

from __future__ import annotations

import itertools

from realtrop import RT, RT_ZERO, RankDeficientError, SignedCircuit, hyper_neg
from realtrop.puiseux import columns_independent, det, signed_value


def bases_by_subset_search(cols) -> tuple[tuple[int, ...], ...]:
    """Every independent subset of len(cols[0]) columns, lexicographically."""
    return tuple(
        tup
        for tup in itertools.combinations(range(len(cols)), len(cols[0]))
        if columns_independent([cols[j] for j in tup])
    )


def minimal_dependent_sets(size: int, bases) -> tuple[tuple[int, ...], ...]:
    """Minimal subsets lying in no basis, ascending by size then
    lexicographically."""
    rank = len(bases[0])
    basis_sets = [set(b) for b in bases]
    found: list[tuple[int, ...]] = []
    for k in range(1, rank + 2):
        for tup in itertools.combinations(range(size), k):
            st = set(tup)
            if any(set(c) <= st for c in found):
                continue
            if not any(st <= b for b in basis_sets):
                found.append(tup)
    return tuple(found)


def cramer_dependence(sup_cols, height: int) -> list[RT]:
    """Signed valuations of the coefficients of the one linear dependence
    among the columns of a minimal dependent set."""
    k = len(sup_cols) - 1
    if k == 0:
        return [RT(1, 0)]
    for rowsel in itertools.combinations(range(height), k):
        minors = [
            det([[sup_cols[j][i] for j in range(k + 1) if j != drop] for i in rowsel])
            for drop in range(k + 1)
        ]
        if all(d.is_zero for d in minors):
            continue
        lam = [
            hyper_neg(signed_value(d)) if j % 2 else signed_value(d)
            for j, d in enumerate(minors)
        ]
        if all(x.sign != 0 for x in lam):
            return lam
    raise ValueError("support is not a minimal dependence")


def circuits_by_subset_search(ground) -> tuple[SignedCircuit, ...]:
    """One normalized circuit per minimal dependent set of columns, in the
    order of ``minimal_dependent_sets``."""
    cols = ground.columns
    bases = bases_by_subset_search(cols)
    if not bases:
        raise RankDeficientError("columns do not span")
    out = []
    for support in minimal_dependent_sets(len(cols), bases):
        lam = cramer_dependence([cols[j] for j in support], ground.height)
        entries = [RT_ZERO] * len(cols)
        for pos, e in enumerate(support):
            entries[e] = lam[pos]
        out.append(SignedCircuit(tuple(entries)))
    return tuple(out)
