"""Real tropicalization of points and linear embeddings, membership tests
for real tropical hyperplanes and linear spaces, and real Bergman fans.

A linear embedding is a ground set (``matroids.GroundSet``) whose
columns, the functionals, span the dual space; its circuits come from the
one minor table that the ground set caches.

Projective points carry one sign-and-valuation coordinate per ground
element, normalized so the smallest-index nonzero coordinate is (+, 0).
``trop_r_point`` reads each image coordinate's leading term as ints
(``puiseux.leading_sign_exponent``), normalizes on those ints and builds
each RT once, unchecked (``hyperfields.unchecked_rt``).
A point lies on the hyperplane of a circuit when the coordinatewise
products admit zero, i.e. the least product valuation is reached with
both signs (or everything vanishes); a linear space is the intersection
over all circuits of the embedding's matroid.

``apply`` evaluates each functional as one ``puiseux.dot``, which reads
the series' integer form directly.  An embedding is at most
``puiseux.DET_SIZE_BOUND`` rows high, as its minors need, checked before
its rank (``puiseux.column_rank``: one assignment on the leading terms,
and one elimination only when that leaves the rank open).  The CLI
enumerates the circuits once within its cap (``enumerate_circuits``).
``linear_space_member`` reads the circuits once as signs and valuations
scaled to ints (``matroids.scaled_rt_vectors``), cached on the
embedding, scales the point once to a common denominator, and hands
each circuit's products, as ints, to the rule of ``hyperplane_member``
(``hyperfields.admits_zero``, signed).

A real Bergman fan is the chains of nonzero covectors of a
``matroids.CovectorPoset``.  ``bergman_fan`` counts them against a cap
and keeps the poset and the count; its ``cones`` are a view whose length
is that count and whose elements ``CovectorPoset.chains`` builds on the
first read; ``bergman_member`` reads the poset's ``mask_index`` only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .hyperfields import RT, RT_ZERO, Val, admits_zero, unchecked_rt
from .matroids import (
    DEFAULT_PAIR_CAP,
    CovectorPoset,
    EnumerationCapError,
    GroundSet,
    SignedCircuit,
    circuits_from_matrix,
    normalize_rt_vector,
    scaled_rt_vectors,
)
from .puiseux import (
    PuiseuxSeries,
    as_series,
    check_det_size,
    column_rank,
    dot,
    leading_sign_exponent,
)


@dataclass(frozen=True)
class ProjPoint:
    """Projective point with RT coordinates, canonically normalized."""

    coords: tuple[RT, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        if all(x.sign == 0 for x in coords):
            raise ValueError("projective point cannot be all zero")
        object.__setattr__(self, "coords", normalize_rt_vector(coords))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return f"ProjPoint({list(self.coords)!r})"


def trop_r_point(coords) -> ProjPoint:
    """Componentwise signed value of a vector of ring elements, normalized.

    ``ProjPoint(tuple(signed_value(s) for s in coords))``, read on ints:
    each leading term as (sign, k, q), exponent k/q, from
    ``puiseux.leading_sign_exponent``, divided by the first nonzero one
    (s0, k0, q0) as (s * s0, (k q0 - k0 q) / (q q0)), so each coordinate
    is one valid RT built once."""
    leads = [leading_sign_exponent(as_series(x)) for x in coords]
    first = next((lead for lead in leads if lead[0]), None)
    if first is None:
        raise ValueError("cannot tropicalize the zero vector")
    s0, k0, q0 = first
    return ProjPoint(
        tuple(
            unchecked_rt(s * s0, Fraction(k * q0 - k0 * q, q * q0)) if s else RT_ZERO
            for s, k, q in leads
        )
    )


@dataclass(frozen=True)
class LinearEmbedding(GroundSet):
    """A ground set whose columns span: the functionals of a linear
    embedding.  Its matroid is read off the ground set's minor table."""

    def __post_init__(self):
        super().__post_init__()
        if not self.columns:
            raise ValueError("embedding needs at least one column")
        check_det_size(self.height)
        if column_rank(self.columns) != self.height:
            raise ValueError("columns do not span the dual space")

    def ground(self) -> GroundSet:
        """The embedding itself, as the ground set that caches its minors."""
        return self

    @cached_property
    def circuits(self) -> tuple[SignedCircuit, ...]:
        return circuits_from_matrix(self)

    def enumerate_circuits(self, cap: int) -> tuple[SignedCircuit, ...]:
        """``circuits``, enumerated within ``cap`` (``circuits_from_matrix``)
        and kept as ``circuits``, so membership reads these and enumerates
        nothing again."""
        circuits = circuits_from_matrix(self, cap=cap)
        object.__setattr__(self, "circuits", circuits)
        return circuits

    @cached_property
    def _scaled_circuits(self) -> tuple[int, list[tuple[tuple[int, int, int], ...]]]:
        """The circuits' scale and, per circuit, its support as
        (element, sign, scaled valuation) triples (``scaled_rt_vectors``)."""
        signs, vals, scale = scaled_rt_vectors(c.entries for c in self.circuits)
        supports = [
            tuple((e, s, v) for e, (s, v) in enumerate(zip(sg, vs)) if s)
            for sg, vs in zip(signs, vals)
        ]
        return scale, supports

    def apply(self, x) -> tuple[PuiseuxSeries, ...]:
        """Evaluate every functional at the coordinate vector x."""
        x = tuple(as_series(v) for v in x)
        if len(x) != self.height:
            raise ValueError("point has the wrong dimension")
        return tuple(dot(col, x) for col in self.columns)


def _product_terms(y: ProjPoint, circuit) -> list[tuple[int, Val]]:
    """The nonzero products y_e * C_e as (sign, valuation) pairs."""
    entries = circuit.entries if isinstance(circuit, SignedCircuit) else tuple(circuit)
    if len(entries) != len(y):
        raise ValueError("point and circuit have different lengths")
    pairs = zip(y.coords, entries)
    return [(a.sign * b.sign, a.val + b.val) for a, b in pairs if a.sign and b.sign]


def hyperplane_member(y: ProjPoint, circuit) -> bool:
    """Zero is admitted by the products y_e * C_e over the support."""
    return admits_zero(_product_terms(y, circuit), signed=True)


def linear_space_member(y: ProjPoint, embedding: LinearEmbedding) -> bool:
    """Intersection of the hyperplane conditions over all circuits.

    ``all(hyperplane_member(y, c) for c in embedding.circuits)``, on ints:
    the point's valuations and the embedding's cached circuit valuations
    are scaled to one common denominator, the lcm of the two scales, and
    each circuit's products on its support go to ``admits_zero`` as ints.
    """
    if len(y) != len(embedding):
        raise ValueError("point and embedding have different lengths")
    circuit_scale, circuits = embedding._scaled_circuits
    (ysigns,), (yvals,), point_scale = scaled_rt_vectors([y.coords])
    scale = math.lcm(circuit_scale, point_scale)
    if scale != point_scale:
        yvals = [v * (scale // point_scale) for v in yvals]
    if scale != circuit_scale:
        factor = scale // circuit_scale
        circuits = [tuple((e, s, v * factor) for e, s, v in c) for c in circuits]
    for circuit in circuits:
        terms = ((ysigns[e] * cs, yvals[e] + cv) for e, cs, cv in circuit if ysigns[e])
        if not admits_zero(terms, signed=True):
            return False
    return True


# ---------------------------------------------------------------------------
# Real Bergman fans


class _Chains(Sequence):
    """The chains of a poset as a read-only sequence of known length.

    ``len`` is the count alone; the first element read takes the tuple
    from ``poset.chains()``, once, and every later read uses it.  It
    equals a tuple of the same chains, and hashes as one."""

    def __init__(self, poset: CovectorPoset, count: int):
        self.poset = poset
        self._count = count

    @cached_property
    def _tuple(self) -> tuple[tuple[int, ...], ...]:
        return self.poset.chains(cap=self._count)

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        return self._tuple[i]

    def __iter__(self):
        return iter(self._tuple)

    def __eq__(self, other):
        if isinstance(other, _Chains):
            other = other._tuple
        return self._tuple == other

    def __hash__(self):
        return hash(self._tuple)

    def __repr__(self):
        return repr(self._tuple)


@dataclass(frozen=True)
class BergmanFan:
    """Cones indexed by chains of nonzero covectors of a covector poset.

    ``bergman_fan`` gives a fan whose ``cones`` are a view of its poset's
    chains, counted and not built until an element is read; a fan may
    also be given its cones as a tuple."""

    poset: CovectorPoset
    cones: Sequence[tuple[int, ...]]

    @property
    def rank(self) -> int:
        return max((len(c) for c in self.cones), default=0)

    def maximal_cones(self) -> tuple[tuple[int, ...], ...]:
        """The cones whose chain no other nonzero vector can extend."""
        return self.poset.maximal_chains(self.cones)


def bergman_fan(poset: CovectorPoset, cap: int = DEFAULT_PAIR_CAP) -> BergmanFan:
    """The fan of every chain, once their count is within ``cap``; the
    chains are counted here and built on the first read of one."""
    count = poset.chain_count()
    if count > cap:
        raise EnumerationCapError(count, cap, "chain enumeration")
    return BergmanFan(poset, _Chains(poset, count))


def bergman_member(y: ProjPoint, fan: BergmanFan) -> bool:
    """Greedy level-set decomposition of a point against the fan.

    Reveal the coordinates in increasing valuation order; at each level
    the signs revealed so far must form a covector.  The revealed
    vectors are nested, so they automatically make a chain and the point
    lies in the cone that chain spans.  The nonzero coordinates are
    sorted once, and each level's vector is a (plus, minus) pair of
    bitmasks looked up in the poset's ``mask_index``.
    """
    if len(y) != fan.poset.width:
        raise ValueError("point and fan have different lengths")
    index = fan.poset.mask_index
    revealed = sorted((x.val, e, x.sign) for e, x in enumerate(y.coords) if x.sign)
    plus = minus = 0
    for k, (v, e, s) in enumerate(revealed, 1):
        if s > 0:
            plus |= 1 << e
        else:
            minus |= 1 << e
        if (k == len(revealed) or revealed[k][0] != v) and (plus, minus) not in index:
            return False
    return True
