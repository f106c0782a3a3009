"""Seeded inputs and timed instances of the benchmark's four workloads.

Inputs are made from the seed before any timing, as ints, Fractions,
sign/valuation pairs and prebuilt series scalars, so parsing literals
stays out of the library workloads.  Library objects (``GroundSet``,
``LinearEmbedding``, ``ProjPoint``, ``DiagonalSeminorm``) are built inside
the timed instance, because every user pays for them.

Shapes follow a fixed cycle rather than random draws: the cost of these
exact algorithms grows steeply with the shape, and a random large draw
would dominate a run.  Matrices are drawn until every maximal minor is
nonzero, so their matroids are uniform and the circuit and covector
counts of a shape do not depend on the seed; series bases of seminorms
have the same zero pattern for every seed.  This keeps the work of one
shape close across seeds, so runs with different seeds compare.  Every instance checks its own results and raises
``CheckFailed`` when a check does not hold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import realtrop as R
import realtrop.cli

BENCH_DIR = Path(__file__).resolve().parent
CLI_DIR = BENCH_DIR / "cli"

HALF_EXPONENTS = tuple(Fraction(k, 2) for k in range(5))
COEFFS = (-3, -2, -1, 1, 2, 3)
# criterion 5's alphabet: leading terms that cancel against each other
CANCELLATION = ("1", "-1", "1+t", "1-t", "-1+t", "-1-t", "t", "2", "-2", "1/2")
WEIGHT_POOL = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


class CheckFailed(Exception):
    """An instance's result broke one of its checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rt(x) -> tuple:
    return (x.sign, str(x.val))


# ---------------------------------------------------------------------------
# generators


def _series(rng: random.Random) -> R.PuiseuxSeries:
    """Dense series with one or two half-integer-exponent terms."""
    while True:
        terms = [(rng.choice(COEFFS), rng.choice(HALF_EXPONENTS))
                 for _ in range(rng.choice((1, 1, 2)))]
        s = R.PuiseuxSeries.from_terms(terms)
        if not s.is_zero:
            return s


def _monomial(rng: random.Random) -> R.PuiseuxSeries:
    return R.PuiseuxSeries.t_power(rng.choice(HALF_EXPONENTS[:3]), rng.choice(COEFFS))


def _uniform(rows) -> bool:
    """Every maximal minor is nonzero, so the matroid is uniform and the
    circuit and covector counts depend only on the shape."""
    h = len(rows)
    return all(
        not R.det([[row[j] for j in cols] for row in rows]).is_zero
        for cols in itertools.combinations(range(len(rows[0])), h)
    )


def _weights(rng: random.Random, dim: int, allow_inf: bool = False) -> tuple:
    ws = sorted(rng.choice(WEIGHT_POOL) for _ in range(dim))
    ws = [w - ws[0] for w in ws]
    if allow_inf and dim > 1 and rng.random() < 0.25:
        ws[-1] = "inf"
    return tuple(ws)


def _invertible(make_cols):
    while True:
        cols = make_cols()
        n = len(cols)
        if not R.det([[cols[j][i] for j in range(n)] for i in range(n)]).is_zero:
            return cols


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    cycle: tuple = ()
    tiny_cycle: tuple = ()
    set_cycles = 11  # the set holds cycles x len(cycle) >= 100 distinct instances

    def instances(self, seed: int, tiny: bool) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        cycle = self.tiny_cycle if tiny else self.cycle
        cycles = 2 if tiny else self.set_cycles
        return [self.make(rng, shape) for _ in range(cycles) for shape in cycle]

    def trace_count(self, tiny: bool) -> int:
        """Instances in the traced pass: one whole shape cycle."""
        return len(self.tiny_cycle if tiny else self.cycle)

    def make(self, rng, shape):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError


class Valuated(Workload):
    """Series matrices through RT Grassmann-Plucker, circuits and membership."""

    name = "valuated"
    # two (4, 6) shapes per cycle, so that p90 falls inside their band
    # rather than on its lower edge
    cycle = ((2, 4), (2, 5), (3, 5), (3, 5), (4, 5), (4, 5), (4, 5), (4, 5), (3, 6), (4, 6), (4, 6))
    tiny_cycle = ((2, 3), (2, 4))
    points = 8

    def make(self, rng, shape):
        h, w = shape
        while True:
            rows = [[_series(rng) for _ in range(w)] for _ in range(h)]
            if _uniform(rows):
                break
        alphabet = [R.parse_puiseux(s) for s in CANCELLATION]
        points = [[rng.choice(alphabet) for _ in range(h)] for _ in range(self.points)]
        return rows, points

    def run(self, inputs):
        rows, points = inputs
        emb = R.LinearEmbedding.from_matrix(rows)
        gp = R.gp_from_matrix(emb.ground())
        check(R.check_gp_relations(gp).ok, "GP relations")
        circuits = emb.circuits
        check(R.check_circuit_axioms(circuits).ok, "circuit axioms")
        cocircuits = R.rt_cocircuits_from_gp(gp)
        images = []
        for x in points:
            y = R.trop_r_point(emb.apply(x))
            check(R.linear_space_member(y, emb), "image point is a member")
            images.append(y)
        return (
            [(t, _rt(v)) for t, v in sorted(gp.values.items())],
            [[_rt(x) for x in c.entries] for c in circuits],
            [[_rt(x) for x in c.entries] for c in cocircuits],
            [[_rt(x) for x in y.coords] for y in images],
        )


class Oriented(Workload):
    """Constant matrices through covector closure and the Bergman fan."""

    name = "oriented"
    # one shape per band of the latency distribution, so that p50 falls
    # inside the (3, 6) band and p90 inside the (4, 5) band
    cycle = ((2, 7), (3, 5), (3, 5), (3, 5), (3, 6), (3, 6), (3, 6), (3, 6), (4, 5), (4, 5))
    set_cycles = 10
    tiny_cycle = ((2, 3), (2, 4))
    points = 16
    entries = tuple(x for x in range(-9, 10) if x)

    def make(self, rng, shape):
        h, w = shape
        while True:
            rows = [[rng.choice(self.entries) for _ in range(w)] for _ in range(h)]
            if _uniform(rows):
                break
        states = ((0, None), (1, 0), (-1, 0), (1, 1), (-1, 1))
        points = []
        for _ in range(self.points):
            first = rng.randrange(w)
            rest = [rng.choice(states) for _ in range(w - first - 1)]
            points.append([(0, None)] * first + [(1, 0)] + rest)
        return rows, points

    def run(self, inputs):
        rows, points = inputs
        ground = R.ground_from_matrix(rows)
        gp = R.gp_from_matrix(ground, target="S")
        cocircuits = R.cocircuits_from_gp(gp)
        poset = R.covector_closure(cocircuits)
        check(R.check_covector_axioms(poset).ok, "covector axioms")
        fan = R.bergman_fan(poset)
        emb = R.LinearEmbedding(ground.columns)
        members = []
        for coords in points:
            y = R.ProjPoint(tuple(R.RT_ZERO if s == 0 else R.RT(s, v) for s, v in coords))
            member = R.bergman_member(y, fan)
            check(member == R.linear_space_member(y, emb), "fan membership equals circuit membership")
            members.append(member)
        return cocircuits, len(poset), len(poset.covers), len(fan.cones), members


class Seminorm(Workload):
    """Series-basis evaluation, constant-basis decomposition and projection,
    and diagonalization of constant compositions."""

    name = "seminorm"
    cycle = (
        ("series", 4, 1), ("series", 5, 1), ("diag", 3, 2), ("diag", 4, 3), ("const", 3, 5),
        ("series", 6, 2), ("series", 6, 2), ("series", 6, 2), ("const", 4, 6),
        ("series", 7, 3), ("const", 5, 6), ("series", 8, 4), ("series", 8, 4),
    )
    tiny_cycle = (("series", 3, 0), ("const", 3, 4), ("diag", 2, 2))
    # p90 lies among the dim-8 series instances, whose cost varies with the
    # seed; 32 of them keep it steady from seed to seed
    set_cycles = 16
    vectors = 24

    def make(self, rng, shape):
        kind, dim, k = shape
        if kind == "series":
            # column j is zero in rows j..j+k-1 (mod dim): one zero pattern
            # per dimension keeps the Laplace expansions equal in size
            def column(j):
                return tuple(R.PuiseuxSeries.zero() if (i - j) % dim < k else _monomial(rng)
                             for i in range(dim))

            basis = _invertible(lambda: tuple(column(j) for j in range(dim)))
            vec = tuple(_monomial(rng) for _ in range(dim))
            return kind, basis, _weights(rng, dim), vec
        if kind == "const":
            basis = _invertible(lambda: tuple(
                tuple(rng.choice(COEFFS) for _ in range(dim)) for _ in range(dim)))
            while True:
                rows = [[rng.choice(COEFFS) for _ in range(k)] for _ in range(dim)]
                if _uniform(rows):
                    break
            return kind, basis, _weights(rng, dim), rows
        leaves = [
            (_invertible(lambda: tuple(
                tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim))),
             _weights(rng, dim, allow_inf=True))
            for _ in range(k)
        ]
        vecs = []
        while len(vecs) < self.vectors:
            v = tuple(Fraction(rng.randint(-6, 6)) for _ in range(dim))
            if any(v):
                vecs.append(v)
        return kind, leaves, vecs

    def run(self, inputs):
        kind = inputs[0]
        if kind == "series":
            _, basis, weights, vec = inputs
            value = R.DiagonalSeminorm(basis, weights).value(vec)
            check(value.sign != 0, "seminorm of a nonzero vector is nonzero")
            return _rt(value)
        if kind == "const":
            _, basis, weights, rows = inputs
            s = R.DiagonalSeminorm(basis, weights)
            emb = R.LinearEmbedding.from_matrix(rows)
            pieces = R.scaled_cocircuit_decomposition(s)
            for f in emb.columns:
                check(R.decomposition_value(pieces, f) == s.value(f), "decomposition equals value")
            y = R.project_point(s, emb)
            check(R.linear_space_member(y, emb), "projected point is a member")
            return [_rt(scale) for _, scale in pieces], [_rt(x) for x in y.coords]
        _, leaves, vecs = inputs
        exprs = [R.DiagonalSeminorm(basis, weights) for basis, weights in leaves]
        expr = exprs[0]
        for leaf in exprs[1:]:
            expr = R.compose(expr, leaf)
        diag = R.diagonalize(expr)
        values = []
        for v in vecs:
            value = diag.value(v)
            check(value == expr.value(v), "diagonal form equals the expression")
            values.append(_rt(value))
        return [str(w) for w in diag.weights], values


class Cli(Workload):
    """Every CLI subcommand in-process on checked-in fixtures; the seed
    shuffles the call order of each pass."""

    name = "cli"
    passes = 6

    def __init__(self):
        self.cases = json.loads((CLI_DIR / "cases.json").read_text(encoding="utf-8"))

    @staticmethod
    def argv(case) -> list:
        return [str(CLI_DIR / "fixtures" / a[1:]) if a.startswith("@") else a
                for a in case["argv"]]

    def instances(self, seed: int, tiny: bool) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(1 if tiny else self.passes):
            order = list(self.cases)
            rng.shuffle(order)
            for case in order:
                golden = (CLI_DIR / "golden" / f"{case['name']}.out").read_text(encoding="utf-8")
                out.append((self.argv(case), golden))
        return out

    def trace_count(self, tiny: bool) -> int:
        return len(self.cases) * (1 if tiny else 4)

    def run(self, inputs):
        argv, golden = inputs
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = realtrop.cli.main(argv)
        out = buf.getvalue()
        check(code == 0, "exit code 0")
        check(out == golden, "stdout matches the golden output")
        return out


WORKLOADS = {w.name: w for w in (Valuated, Oriented, Seminorm, Cli)}
