"""Signed seminorms on the dual of K^(n+1): diagonal seminorms, binary
compositions, diagonalization over trivially valued coefficients, flags,
projections to real tropicalized linear spaces, and reconstruction of a
seminorm from a compatible family of projections.

A diagonal seminorm is an ordered invertible basis together with
nondecreasing weight valuations, one per basis vector; evaluating at f
solves f in the basis, keeps only signs and valuations of the
coordinates, and picks the first coordinate of least level (coordinate
valuation plus weight).  Each leaf builds one leading-term certificate
of its basis (``puiseux.BasisCertificate``): an optimal assignment on
the leading exponents and one int Gauss-Jordan elimination of the tight
leading coefficients, which give the basis determinant and int
functionals.  A vector then costs one int dot product per coordinate;
only a coordinate whose leading terms cancel, on a series leaf or for a
series vector, is a Cramer quotient of ``signed_det``s, and ``value``
takes it only when its certified lower bound could still win.  Levels
compare as ints.  The pieces of ``scaled_cocircuit_decomposition``
remember their leaf, so ``decomposition_value`` reads each leaf's
coordinates once per vector.  The composition of two seminorms
evaluates both branches and keeps the one of larger magnitude, the left
branch on ties.

Over constant coefficients, the rows of a leaf's inverse basis, which
``diagonalize`` merges, come from its certificate with no second
elimination; ``diagonalize`` and ``flags_equivalent`` each run one
``linalg.rref``, and ``flag_of`` and ``phi_abs`` read the weights of the
normalized seminorm without building it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from . import linalg
from .hyperfields import INF, RT, RT_ZERO, TV, Val, as_val, hyper_div, hyper_mul, unchecked_rt
from .matroids import DEFAULT_PAIR_CAP, EnumerationCapError
from .puiseux import BasisCertificate, PuiseuxSeries, as_series, signed_det
from .tropical import LinearEmbedding, ProjPoint


class SingularBasisError(ValueError):
    pass


class DiagonalizationError(RuntimeError):
    pass


class FamilyError(ValueError):
    pass


class InconsistentFamilyError(FamilyError):
    pass


class NoApplicableEmbeddingError(FamilyError):
    pass


# ---------------------------------------------------------------------------
# Seminorm expressions


_FRACTION_ZERO = Fraction(0)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class DiagonalSeminorm:
    """Ordered basis (columns) with nondecreasing weight valuations.

    The all-infinite weight vector is allowed here so that the zero
    seminorm can appear as a building block of compositions; operations
    that need a nontrivial normalized representative say so.
    """

    basis: tuple[tuple[PuiseuxSeries, ...], ...]
    weights: tuple[Val, ...]

    def __post_init__(self):
        cols = tuple(tuple(as_series(x) for x in c) for c in self.basis)
        object.__setattr__(self, "basis", cols)
        n = len(cols)
        if n == 0 or any(len(c) != n for c in cols):
            raise ValueError("basis must be square and nonempty")
        weights = tuple(as_val(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != n:
            raise ValueError("one weight per basis vector required")
        for a, b in zip(weights, weights[1:]):
            if b < a:
                raise ValueError("weights must be nondecreasing valuations")
        cert = BasisCertificate(cols)
        if cert.det.sign == 0:
            raise SingularBasisError("basis vectors are dependent")
        object.__setattr__(self, "_cert", cert)
        # the finite weights lead; as ints over one denominator for value
        finite = tuple(w for w in weights if w is not INF)
        wden = math.lcm(*[w.denominator for w in finite])
        object.__setattr__(self, "_finite_weights", finite)
        object.__setattr__(self, "_weight_den", wden)
        object.__setattr__(
            self, "_weight_ints", [w.numerator * (wden // w.denominator) for w in finite]
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero_seminorm(self) -> bool:
        return all(w is INF for w in self.weights)

    @property
    def has_constant_basis(self) -> bool:
        return self._cert.constant

    @property
    def _det(self) -> RT:
        """Signed value of the basis determinant, from the certificate."""
        return self._cert.det

    def _cramer(self, series: tuple[PuiseuxSeries, ...], k: int) -> RT:
        """The k-th coordinate of a series vector as a Cramer quotient."""
        num = signed_det([series if j == k else col for j, col in enumerate(self.basis)])
        return hyper_div(num, self._det) if num.sign else RT_ZERO

    def coordinates(self, f) -> tuple[RT, ...]:
        """Signed values of the basis coordinates of f.

        The leaf's ``BasisCertificate`` gives each coordinate's sign and
        valuation from one int dot product with its functional.  Only a
        coordinate whose leading terms it leaves open, on a series leaf
        or for a series f, is a Cramer quotient of ``signed_det``s.
        """
        f = tuple(f)
        lead = self._cert.solve(f)
        if lead is None:
            return (RT_ZERO,) * self.dim
        y, exps, den, exact = lead
        if y is None:
            y = exps = (0,) * self.dim
        series = None
        out = []
        for k, (yk, e) in enumerate(zip(y, exps)):
            if yk:
                out.append(unchecked_rt(_sign(yk), Fraction(e, den) if e else _FRACTION_ZERO))
            elif exact:
                out.append(RT_ZERO)
            else:
                if series is None:
                    series = tuple(map(as_series, f))
                out.append(self._cramer(series, k))
        return tuple(out)

    def value(self, f) -> RT:
        """The sign and level of the first coordinate of least level,
        val x_k + w_k; levels compare as ints over one denominator.

        On a constant leaf and a constant f every valuation is 0 and the
        weights are nondecreasing, so the first nonzero coordinate of
        finite weight decides.  Otherwise a coordinate the certificate
        leaves open has a level above its certified bound, and takes its
        Cramer quotient only while that bound is below the best level.
        """
        f = tuple(f)
        lead = self._cert.solve(f)
        if lead is None:
            return RT_ZERO
        y, exps, den, exact = lead
        if exact:
            for yk, w in zip(y, self._finite_weights):
                if yk:
                    return unchecked_rt(_sign(yk), w)
            return RT_ZERO
        wden = self._weight_den
        best = None  # (level, k, sign)
        if y is None:  # det L = 0: no certified level and no bound
            open_ = [(k, None) for k in range(len(self._weight_ints))]
        else:
            open_ = []
            for k, (w, yk, e) in enumerate(zip(self._weight_ints, y, exps)):
                level = e * wden + w * den
                if not yk:
                    open_.append((k, level))
                elif best is None or level < best[0]:
                    best = level, k, _sign(yk)
        series = None
        for k, bound in open_:
            if bound is not None and best is not None and bound >= best[0]:
                continue
            if series is None:
                series = tuple(map(as_series, f))
            x = self._cramer(series, k)
            if x.sign:
                level = (x.val * den).numerator * wden + self._weight_ints[k] * den
                if best is None or (level, k) < best[:2]:
                    best = level, k, x.sign
        if best is None:
            return RT_ZERO
        return unchecked_rt(best[2], Fraction(best[0], den * wden))

    def _normalized_weights(self) -> tuple[Val, ...]:
        """The weights less the first finite one, which becomes zero."""
        shift = next((w for w in self.weights if w is not INF), None)
        if shift is None:
            raise ValueError("the zero seminorm has no normalized representative")
        if shift == 0:
            return self.weights
        return tuple(w - shift for w in self.weights)

    def normalized(self) -> "DiagonalSeminorm":
        """Homothety representative with first finite weight zero."""
        weights = self._normalized_weights()
        return self if weights is self.weights else DiagonalSeminorm(self.basis, weights)

    def __repr__(self):
        from .hyperfields import format_val

        ws = ", ".join(format_val(w) for w in self.weights)
        return f"DiagonalSeminorm(dim={self.dim}, weights=[{ws}])"


@dataclass(frozen=True)
class Composition:
    """Binary composition; the branch of larger magnitude wins, left on ties."""

    left: "SeminormExpr"
    right: "SeminormExpr"

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise ValueError("composed seminorms must share a dimension")

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def has_constant_basis(self) -> bool:
        return self.left.has_constant_basis and self.right.has_constant_basis

    def value(self, f) -> RT:
        a = self.left.value(f)
        b = self.right.value(f)
        return a if a.val <= b.val else b


SeminormExpr = Union[DiagonalSeminorm, Composition]


def compose(a: SeminormExpr, b: SeminormExpr) -> Composition:
    return Composition(a, b)


def standard_leaf(dim: int, weights=None) -> DiagonalSeminorm:
    basis = tuple(
        tuple(PuiseuxSeries.constant(1 if i == j else 0) for i in range(dim))
        for j in range(dim)
    )
    if weights is None:
        weights = (Fraction(0),) * dim
    return DiagonalSeminorm(basis, tuple(weights))


# ---------------------------------------------------------------------------
# Diagonalization over trivially valued coefficients
#
# Over constant coefficients a diagonal leaf is the rule "the first nonzero
# basis coordinate in weight order decides"; its coordinate functionals
# are the rows g_k of the inverse basis matrix, g_k = F_k / (F_k . b_k) for
# the int functionals F_k of the leaf's certificate.  A composition merges
# the two ordered functional lists by weight, left branch first on ties.  A
# functional in the span of earlier ones never decides and is dropped, and
# unit vectors of infinite weight complete the rest to a dual basis.  One
# elimination over the columns [phi_1 .. phi_L, e_1 .. e_d] does both: its
# pivot columns are the kept functionals, then the completing unit
# vectors.  The reduced form is E M, E the inverse of M's pivot columns, so
# its unit columns hold E, whose rows are the columns of the diagonal basis.


def _leaf_functionals(leaf: DiagonalSeminorm) -> list[tuple[linalg.Vec, Val]]:
    out = []
    for F, b, w in zip(leaf._cert.functionals, leaf.basis, leaf._finite_weights):
        p, q = sum(map(mul, F, [x.constant_value() for x in b])).as_integer_ratio()
        out.append((tuple(Fraction(x * q, p) for x in F), w))
    return out


def _flatten(expr: SeminormExpr) -> list[tuple[linalg.Vec, Val]]:
    if isinstance(expr, DiagonalSeminorm):
        return _leaf_functionals(expr)
    left = _flatten(expr.left)
    right = _flatten(expr.right)
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j][1] < left[i][1]:
            out.append(right[j])
            j += 1
        else:
            out.append(left[i])
            i += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def diagonalize(expr: SeminormExpr) -> DiagonalSeminorm:
    """Exact diagonal form of a composition over constant coefficients.

    The result evaluates identically to the expression on every vector.
    """
    if not expr.has_constant_basis:
        raise DiagonalizationError("diagonalization needs constant basis entries")
    d = expr.dim
    merged = _flatten(expr)
    rows = [[phi[i] for phi, _ in merged] + [int(i == j) for j in range(d)] for i in range(d)]
    reduced, pivots = linalg.rref(rows)
    cols = tuple(tuple(map(PuiseuxSeries.constant, row[len(merged) :])) for row in reduced)
    weights = tuple(merged[p][1] if p < len(merged) else INF for p in pivots)
    return DiagonalSeminorm(cols, weights)


# ---------------------------------------------------------------------------
# Signed flags


@dataclass(frozen=True)
class FlagStep:
    vector: linalg.Vec
    weight: Val
    region: int  # +1 or -1: which side of the previous subspace is chosen

    def __post_init__(self):
        object.__setattr__(self, "vector", linalg.vec(self.vector))
        object.__setattr__(self, "weight", as_val(self.weight))
        if self.region not in (1, -1):
            raise ValueError("region choice must be +1 or -1")
        if self.weight is INF:
            raise ValueError("flag step weights are finite")


@dataclass(frozen=True)
class SignedFlag:
    """Kernel, then one new direction per step with a side and a weight.

    Steps run bottom-up: weights are nonincreasing and the top step has
    weight zero for normalized flags.  Negating every region gives the
    same flag class.
    """

    kernel: tuple[linalg.Vec, ...]
    steps: tuple[FlagStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(linalg.vec(v) for v in self.kernel))
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a flag needs at least one step")
        for a, b in zip(self.steps, self.steps[1:]):
            if b.weight > a.weight:
                raise ValueError("step weights must not increase bottom-up")
        dim = len(self.steps[0].vector)
        vectors = list(self.kernel) + [s.vector for s in self.steps]
        if linalg.rank(vectors) != len(vectors) or len(vectors) != dim:
            raise ValueError("kernel plus step vectors must form a basis")

    @property
    def dim(self) -> int:
        return len(self.steps[0].vector)


def _normalized_columns(s: DiagonalSeminorm):
    """The constant basis columns, the kernel (the columns of infinite
    weight) and the weights of ``s.normalized()``, which is not built."""
    weights = s._normalized_weights()
    cols = [tuple(x.constant_value() for x in c) for c in s.basis]
    kernel = tuple(c for c, w in zip(cols, weights) if w is INF)
    return cols, kernel, weights


def flag_of(s: DiagonalSeminorm) -> SignedFlag:
    """Flag of a diagonal seminorm: kernel from infinite weights, then
    basis vectors in decreasing weight order, each choosing its own side."""
    if not s.has_constant_basis:
        raise ValueError("flags require constant basis entries")
    cols, kernel, weights = _normalized_columns(s)
    steps = tuple(
        FlagStep(cols[j], weights[j], 1)
        for j in range(s.dim - 1, -1, -1)
        if weights[j] is not INF
    )
    return SignedFlag(kernel, steps)


def seminorm_from_flag(flag: SignedFlag) -> DiagonalSeminorm:
    steps = flag.steps[::-1]
    cols = [linalg.vec_scale(s.region, s.vector) for s in steps] + list(flag.kernel)
    basis = tuple(tuple(map(PuiseuxSeries.constant, c)) for c in cols)
    return DiagonalSeminorm(basis, tuple(s.weight for s in steps) + (INF,) * len(flag.kernel))


def flags_equivalent(F: SignedFlag, G: SignedFlag) -> bool:
    """Same subspace chain and weights, regions equal up to a global flip.

    F's kernel and steps form a basis; one ``rref`` of [F | G] writes G's
    vectors in it.  G's kernel is F's when it is zero on every F step, and
    G's step i keeps the chain when it is zero on the later F steps and
    not on F_i (the dimensions are equal).  That coordinate's sign times
    both regions must be the same at every step.
    """
    if F.dim != G.dim or len(F.steps) != len(G.steps):
        return False
    if any(a.weight != b.weight for a, b in zip(F.steps, G.steps)):
        return False
    k = len(F.kernel)
    vectors = [*F.kernel, *(s.vector for s in F.steps), *G.kernel, *(s.vector for s in G.steps)]
    reduced, _ = linalg.rref([[v[r] for v in vectors] for r in range(F.dim)])
    coords = list(zip(*reduced))[F.dim :]  # G's vectors in F's basis
    if any(any(c[k:]) for c in coords[:k]):
        return False
    flips = set()
    for i, (fs, gs, c) in enumerate(zip(F.steps, G.steps, coords[k:]), k):
        if not c[i] or any(c[i + 1 :]):
            return False
        flips.add(fs.region * gs.region * (1 if c[i] > 0 else -1))
    return len(flips) == 1


# ---------------------------------------------------------------------------
# Forgetting signs


@dataclass(frozen=True)
class UnsignedFlag:
    """Subspace chain with strictly decreasing weights bottom-up; steps
    may add several directions at once."""

    kernel: tuple[linalg.Vec, ...]
    steps: tuple[tuple[tuple[linalg.Vec, ...], Val], ...]

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(linalg.vec(v) for v in self.kernel))
        steps = tuple(
            (tuple(linalg.vec(v) for v in vs), as_val(w)) for vs, w in self.steps
        )
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("a flag needs at least one step")
        for (_, a), (_, b) in zip(steps, steps[1:]):
            if b >= a:
                raise ValueError("unsigned flag weights strictly decrease bottom-up")


@dataclass(frozen=True)
class PhiImage:
    """Magnitude part of a seminorm: valuation-only evaluation, plus the
    weighted subspace flag when the coefficients are constant."""

    expr: SeminormExpr
    flag: UnsignedFlag | None

    def value(self, f) -> TV:
        return TV(self.expr.value(f).val)


def phi_abs(expr: SeminormExpr) -> PhiImage:
    flag = None
    if expr.has_constant_basis and not (
        isinstance(expr, DiagonalSeminorm) and expr.is_zero_seminorm
    ):
        cols, kernel, weights = _normalized_columns(diagonalize(expr))
        groups: dict[Val, list[linalg.Vec]] = {}
        for c, w in zip(cols, weights):
            if w is not INF:
                groups.setdefault(w, []).append(c)
        steps = tuple(
            (tuple(groups[w]), w) for w in sorted(groups, reverse=True)
        )
        flag = UnsignedFlag(kernel, steps)
    return PhiImage(expr, flag)


def phi_fiber(flag: UnsignedFlag) -> tuple[SignedFlag, ...]:
    """All sign choices over a complete strict-weight flag, one
    representative per global-flip class (top step fixed positive).
    The 2^(l-1) flags are counted against ``DEFAULT_PAIR_CAP`` first.
    The flags differ only in their regions, so the first one is checked
    and the others share its kernel and step vectors unchecked."""
    if any(len(vs) != 1 for vs, _ in flag.steps):
        raise ValueError("fiber is infinite: some step adds more than one direction")
    l = len(flag.steps)
    count = 2 ** (l - 1)
    if count > DEFAULT_PAIR_CAP:
        raise EnumerationCapError(count, DEFAULT_PAIR_CAP, "flag fiber")
    choices = itertools.product((1, -1), repeat=l - 1)
    steps = (FlagStep(vs[0], w, r) for (vs, w), r in zip(flag.steps, (*next(choices), 1)))
    first = SignedFlag(flag.kernel, tuple(steps))
    out = [first]
    for bits in choices:
        steps = tuple(FlagStep(s.vector, s.weight, r) for s, r in zip(first.steps, (*bits, 1)))
        signed = object.__new__(SignedFlag)
        object.__setattr__(signed, "kernel", first.kernel)
        object.__setattr__(signed, "steps", steps)
        out.append(signed)
    return tuple(out)


# ---------------------------------------------------------------------------
# Projection to real tropicalized linear spaces


def project_point(s: SeminormExpr, emb: LinearEmbedding) -> ProjPoint:
    """Evaluate the seminorm on every functional of the embedding."""
    values = tuple(s.value(col) for col in emb.columns)
    if all(v.sign == 0 for v in values):
        raise ValueError("seminorm vanishes on every functional of the embedding")
    return ProjPoint(values)


def check_diagram_commutes(
    s: SeminormExpr,
    emb: LinearEmbedding,
    index_map: Sequence[int],
    target: LinearEmbedding | None = None,
) -> bool:
    """Project, then apply the coordinate map; compare with projecting to
    the mapped embedding directly."""
    if not all(0 <= i < len(emb) for i in index_map):
        raise ValueError("index map does not fit the embedding")
    cols = tuple(emb.columns[i] for i in index_map)
    if target is not None:
        if tuple(target.columns) != cols:
            raise ValueError("target embedding does not match the mapped columns")
        emb2 = target
    else:
        emb2 = LinearEmbedding(cols)
    y = project_point(s, emb)
    mapped = tuple(y.coords[i] for i in index_map)
    return ProjPoint(mapped) == project_point(s, emb2)


# ---------------------------------------------------------------------------
# Compatible families and reconstruction


@dataclass(frozen=True)
class Morphism:
    src: int
    dst: int
    index_map: tuple[int, ...]


@dataclass(frozen=True)
class CompatibleFamily:
    """Embedding/point pairs such that every recorded coordinate map sends
    the source point to the target point."""

    members: tuple[tuple[LinearEmbedding, ProjPoint], ...]
    morphisms: tuple[Morphism, ...] = ()

    def __post_init__(self):
        for i, (emb, pt) in enumerate(self.members):
            if len(pt) != len(emb):
                raise FamilyError(f"member {i}: point length {len(pt)}, embedding length {len(emb)}")
        for mor in self.morphisms:
            if not (0 <= mor.src < len(self.members)) or not (
                0 <= mor.dst < len(self.members)
            ):
                raise FamilyError("morphism endpoints out of range")
            src_emb, src_pt = self.members[mor.src]
            dst_emb, dst_pt = self.members[mor.dst]
            if len(mor.index_map) != len(dst_emb):
                raise FamilyError("morphism map length does not match target")
            for k, i in enumerate(mor.index_map):
                if not (0 <= i < len(src_emb)):
                    raise FamilyError("morphism map index out of range")
                if dst_emb.columns[k] != src_emb.columns[i]:
                    raise FamilyError("morphism map does not match the columns")
            mapped = tuple(src_pt.coords[i] for i in mor.index_map)
            if all(x.sign == 0 for x in mapped):
                raise FamilyError("morphism maps the source point to zero")
            if ProjPoint(mapped) != dst_pt:
                raise FamilyError("recorded morphism does not send point to point")


def family_from_seminorm(
    s: SeminormExpr, embeddings: Sequence[LinearEmbedding], morphisms=()
) -> CompatibleFamily:
    members = tuple((emb, project_point(s, emb)) for emb in embeddings)
    return CompatibleFamily(members, tuple(morphisms))


def _first_dual(dim: int) -> tuple[PuiseuxSeries, ...]:
    return tuple(PuiseuxSeries.constant(1 if i == 0 else 0) for i in range(dim))


def reconstruct_from_family(fam: CompatibleFamily, probes) -> tuple[RT, ...]:
    """Recover seminorm values at the probes from projected points.

    For a probe f, any member whose columns contain both the first dual
    vector and f determines the value as the coordinate quotient; all
    applicable members must agree, and the first dual vector is pinned
    to value one, fixing the homothety.
    """
    if not fam.members:
        raise FamilyError("empty family")
    dim = fam.members[0][0].height
    e0 = _first_dual(dim)
    probes = [tuple(as_series(x) for x in p) for p in probes]
    out: list[RT] = []
    for pi, f in enumerate(probes):
        found: list[RT] = []
        for emb, pt in fam.members:
            try:
                a = emb.columns.index(e0)
            except ValueError:
                continue
            if pt.coords[a].sign == 0:
                continue
            try:
                b = emb.columns.index(f)
            except ValueError:
                continue
            found.append(hyper_div(pt.coords[b], pt.coords[a]))
        if not found:
            raise NoApplicableEmbeddingError(
                f"no member contains both the first dual vector and probe {pi}"
            )
        if any(v != found[0] for v in found[1:]):
            raise InconsistentFamilyError(
                f"members disagree on probe {pi}: family is not compatible"
            )
        out.append(found[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# Fixture: a signed seminorm with no diagonal form
#
# Coefficients carry the trivial absolute value while the branch choice
# compares the nonarchimedean magnitudes, so the two coordinate
# directions cannot be separated by any weighted basis.


def nondiag_fixture(x, y) -> int:
    """Sign of the coordinate of larger nonarchimedean magnitude, first
    coordinate on ties."""
    x, y = as_series(x), as_series(y)
    if x.is_zero and y.is_zero:
        raise ValueError("fixture is undefined at the origin")
    return x.sign if x.valuation <= y.valuation else y.sign


# ---------------------------------------------------------------------------
# Decomposition into scaled minor seminorms


def cocircuit_value(mu_columns, f) -> RT:
    """Signed value of the maximal minor with f in front of the mu columns;
    ``signed_det`` coerces the entries."""
    mu = [tuple(c) for c in mu_columns]
    f = tuple(f)
    n = len(f)
    if len(mu) != n - 1:
        raise ValueError("need dimension minus one columns")
    if any(len(c) != n for c in mu):
        raise ValueError("every column needs one entry per coordinate of f")
    return signed_det([f, *mu])


class LeafPiece(tuple):
    """A (mu, scale) piece of ``scaled_cocircuit_decomposition`` that
    remembers its leaf and basis index; it equals, and unpacks like, the
    plain (mu, scale) tuple."""

    def __new__(cls, mu, scale: RT, leaf: DiagonalSeminorm, index: int):
        piece = super().__new__(cls, (mu, scale))
        piece.leaf = leaf
        piece.index = index
        return piece


def scaled_cocircuit_decomposition(s: DiagonalSeminorm) -> tuple[LeafPiece, ...]:
    """Pieces (mu_i, scale_i), one per finite-weight basis vector, whose
    weight-ordered composition reproduces the seminorm: mu_i drops the
    i-th basis vector and the scale matches levels and signs.  Moving b_i
    to the front of the basis takes i transpositions, so the minor
    cocircuit_value(mu_i, b_i) is (-1)^i det B, read off the leaf."""
    pieces = []
    for i, w in enumerate(s.weights):
        if w is INF:
            continue
        mu = tuple(s.basis[:i] + s.basis[i + 1 :])
        lead = -s._det if i % 2 else s._det
        pieces.append(LeafPiece(mu, hyper_div(RT(1, w), lead), s, i))
    return tuple(pieces)


def decomposition_value(pieces, f) -> RT:
    """Evaluate a weight-ordered list of scaled minor seminorms at f.

    By Cramer's rule cocircuit_value(mu_i, f) = (-1)^i x_i det B for the
    i-th coordinate x_i of f in the leaf's basis B, so a ``LeafPiece``
    is scale_i * cocircuit_value(mu_i, f) = RT(sign x_i, w_i + val x_i),
    and each leaf's coordinates are read once per f.  Any other
    (mu, scale) pair takes ``cocircuit_value``.
    """
    f = tuple(f)
    coordinates = {}
    best = RT_ZERO
    for piece in pieces:
        if isinstance(piece, LeafPiece):
            leaf = piece.leaf
            xs = coordinates.get(id(leaf))
            if xs is None:
                xs = coordinates[id(leaf)] = leaf.coordinates(f)
            x = xs[piece.index]
            if not x.sign:
                continue
            v = unchecked_rt(x.sign, x.val + leaf.weights[piece.index])
        else:
            mu, scale = piece
            v = hyper_mul(scale, cocircuit_value(mu, f))
        if v.val < best.val:
            best = v
    return best
