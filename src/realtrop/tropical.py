"""Real tropicalization of points and linear embeddings, membership tests
for real tropical hyperplanes and linear spaces, and real Bergman fans.

A linear embedding is a ground set (``matroids.GroundSet``) whose
columns, the functionals, span the dual space; its circuits come from the
one minor table that the ground set caches.

Projective points carry one sign-and-valuation coordinate per ground
element, normalized so the smallest-index nonzero coordinate is (+, 0).
A point lies on the hyperplane of a circuit when the coordinatewise
products admit zero, i.e. the least product valuation is reached with
both signs (or everything vanishes); a linear space is the intersection
over all circuits of the embedding's matroid.

Image points are evaluated on an integer view of the embedding that is
computed once, on first use, and cached on it.  ``apply`` reads the
columns once as ``puiseux.IntegerVectors`` (coefficients and exponents
as ints over common denominators), so each functional is one integer
accumulation.  ``linear_space_member`` reads the circuits once as signs
and valuations scaled to ints (``matroids.scaled_rt_vectors``), scales
the point once to a common denominator, and runs the signed fold of
``hyperplane_member`` on ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .hyperfields import INF, RT, admits_zero
from .matroids import (
    CovectorPoset,
    GroundSet,
    SignedCircuit,
    SignVector,
    circuits_from_matrix,
    normalize_rt_vector,
    scaled_rt_vectors,
)
from .puiseux import IntegerVectors, PuiseuxSeries, as_series, column_rank, signed_value


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

    def sign_vector(self) -> SignVector:
        return tuple(x.sign for x in self.coords)

    def __repr__(self):
        return f"ProjPoint({list(self.coords)!r})"


def trop_r_point(coords) -> ProjPoint:
    """Componentwise signed value of a vector of ring elements."""
    series = [as_series(x) for x in coords]
    if all(s.is_zero for s in series):
        raise ValueError("cannot tropicalize the zero vector")
    return ProjPoint(tuple(signed_value(s) for s in series))


@dataclass(frozen=True)
class LinearEmbedding(GroundSet):
    """A ground set whose columns span: the functionals of a linear
    embedding.  Its matroid is read off the ground set's minor table."""

    def __post_init__(self):
        super().__post_init__()
        if not self.columns:
            raise ValueError("embedding needs at least one column")
        if column_rank(self.columns) != self.height:
            raise ValueError("columns do not span the dual space")

    def ground(self) -> GroundSet:
        """The embedding itself, as the ground set that caches its minors."""
        return self

    @cached_property
    def circuits(self) -> tuple[SignedCircuit, ...]:
        return circuits_from_matrix(self)

    @cached_property
    def _integer_columns(self) -> IntegerVectors:
        """The functionals on one integer scale, read once for ``apply``."""
        return IntegerVectors(self.columns)

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
        return self._integer_columns.dots(x)


def hyperplane_member(y: ProjPoint, circuit) -> bool:
    """Zero is admitted by the products y_e * C_e over the support."""
    entries = circuit.entries if isinstance(circuit, SignedCircuit) else tuple(circuit)
    if len(entries) != len(y):
        raise ValueError("point and circuit have different lengths")
    # The signed fold of admits_zero, inline: this runs once per circuit in
    # every membership test, and a shared fold measured about 20 % slower.
    vstar = INF
    signs_at_min = 0  # bitmask: 1 for plus, 2 for minus
    for ye, ce in zip(y.coords, entries):
        s = ye.sign * ce.sign
        if s == 0:
            continue
        v = ye.val + ce.val
        if v < vstar:
            vstar = v
            signs_at_min = 1 if s > 0 else 2
        elif v == vstar:
            signs_at_min |= 1 if s > 0 else 2
    return signs_at_min in (0, 3)


def unsigned_hyperplane_member(y: ProjPoint, circuit) -> bool:
    """Valuation-only membership: the least product valuation repeats."""
    entries = circuit.entries if isinstance(circuit, SignedCircuit) else tuple(circuit)
    if len(entries) != len(y):
        raise ValueError("point and circuit have different lengths")
    terms = [(1, a.val + b.val) for a, b in zip(y.coords, entries) if a.sign and b.sign]
    return admits_zero(terms, signed=False)


def linear_space_member(y: ProjPoint, embedding: LinearEmbedding) -> bool:
    """Intersection of the hyperplane conditions over all circuits.

    ``all(hyperplane_member(y, c) for c in embedding.circuits)``, on ints:
    the point's valuations and the embedding's cached circuit valuations
    are scaled to one common denominator, the lcm of the two scales, and
    the signed fold of ``hyperplane_member`` runs on each circuit's
    support.
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
        vstar = 0
        signs_at_min = 0  # bitmask: 1 for plus, 2 for minus
        for e, cs, cv in circuit:
            s = ysigns[e] * cs
            if not s:
                continue
            v = yvals[e] + cv
            if not signs_at_min or v < vstar:
                vstar = v
                signs_at_min = 1 if s > 0 else 2
            elif v == vstar:
                signs_at_min |= 1 if s > 0 else 2
        if signs_at_min == 1 or signs_at_min == 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Real Bergman fans


@dataclass(frozen=True)
class BergmanFan:
    """Cones indexed by chains of nonzero covectors of a covector poset."""

    poset: CovectorPoset
    cones: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return max((len(c) for c in self.cones), default=0)

    def maximal_cones(self) -> tuple[tuple[int, ...], ...]:
        """The cones whose chain no other nonzero vector can extend."""
        return self.poset.maximal_chains(self.cones)


def bergman_fan(poset: CovectorPoset) -> BergmanFan:
    return BergmanFan(poset, poset.chains())


def bergman_member(y: ProjPoint, fan: BergmanFan) -> bool:
    """Greedy level-set decomposition of a point against the fan.

    Reveal the coordinates in increasing valuation order; at each level
    the signs revealed so far must form a covector.  The revealed
    vectors are nested, so they automatically make a chain and the point
    lies in the cone that chain spans.
    """
    if len(y) != fan.poset.width:
        raise ValueError("point and fan have different lengths")
    levels = sorted({x.val for x in y.coords if x.val != INF})
    for v in levels:
        revealed = tuple(
            x.sign if x.val <= v else 0 for x in y.coords
        )
        if revealed not in fan.poset:
            return False
    return True
