import json
import random
from pathlib import Path

import pytest

from realtrop import (
    RT,
    CompatibleFamily,
    FamilyError,
    InconsistentFamilyError,
    LinearEmbedding,
    Morphism,
    NoApplicableEmbeddingError,
    ProjPoint,
    PuiseuxSeries,
    check_diagram_commutes,
    family_from_seminorm,
    hyper_div,
    project_point,
    reconstruct_from_family,
    rt,
    standard_leaf,
)
from realtrop.cli import main

from helpers import random_diagonal, random_embedding

E0 = tuple(PuiseuxSeries.constant(1 if i == 0 else 0) for i in range(2))
E1 = tuple(PuiseuxSeries.constant(1 if i == 1 else 0) for i in range(2))


def _c(x):
    from realtrop.puiseux import as_series

    return as_series(x)


# -- diagram commutation -----------------------------------------------------------


def test_pure_permutation_commutes():
    rng = random.Random(179)
    emb = random_embedding(rng, 2, 4, constant=True)
    s = random_diagonal(rng, 2)
    assert check_diagram_commutes(s, emb, (3, 1, 2, 0))


def test_dropping_redundant_functional_commutes():
    rng = random.Random(181)
    emb = random_embedding(rng, 2, 5, constant=True)
    s = random_diagonal(rng, 2)
    assert check_diagram_commutes(s, emb, (0, 1, 2, 3))


def test_dropping_the_normalization_coordinate_commutes():
    # the first nonzero coordinate carries the normalization; dropping it
    # forces a renormalization on both sides
    s = standard_leaf(2, (0, 1))
    emb = LinearEmbedding(
        (_vec("1", "0"), _vec("0", "1"), _vec("1", "1"), _vec("1", "-1"))
    )
    y = project_point(s, emb)
    assert y.coords[0] == rt(1, 0)
    assert check_diagram_commutes(s, emb, (1, 2, 3))


def _vec(*entries):
    return tuple(_c(x) for x in entries)


def test_diagram_with_explicit_target_checks_columns():
    rng = random.Random(191)
    emb = random_embedding(rng, 2, 4, constant=True)
    s = random_diagonal(rng, 2)
    good = LinearEmbedding(tuple(emb.columns[i] for i in (2, 0, 1)))
    assert check_diagram_commutes(s, emb, (2, 0, 1), target=good)
    other = LinearEmbedding((_vec("1", "0"), _vec("0", "1")))
    with pytest.raises(ValueError):
        check_diagram_commutes(s, emb, (2, 0), target=other)


@pytest.mark.parametrize("index_map", [(-1, 0), (0, 4)], ids=["negative", "past-end"])
def test_diagram_rejects_indices_outside_the_embedding(index_map):
    # a negative index would wrap around; CompatibleFamily rejects it too
    rng = random.Random(193)
    emb = random_embedding(rng, 2, 4, constant=True)
    s = random_diagonal(rng, 2)
    with pytest.raises(ValueError, match="^index map does not fit the embedding$"):
        check_diagram_commutes(s, emb, index_map)


# -- compatible families ------------------------------------------------------------


def make_family(s, probes):
    # four embeddings containing the first dual vector and every probe twice
    embs = [
        LinearEmbedding((E0,) + tuple(probes[0:3])),
        LinearEmbedding((E0,) + tuple(probes[2:6])),
        LinearEmbedding((E0,) + tuple(probes[3:6]) + (probes[0],)),
        LinearEmbedding((E0, probes[1], probes[4], probes[0])),
    ]
    return family_from_seminorm(s, embs), embs


PROBES = [
    E1,
    _vec("1", "1"),
    _vec("1", "-1"),
    _vec("2", "1"),
    _vec("1", "2"),
    _vec("1", "-2"),
]


def test_reconstruction_recovers_values_up_to_homothety():
    rng = random.Random(193)
    for _ in range(5):
        s = random_diagonal(rng, 2, allow_inf=False)
        fam, _ = make_family(s, PROBES)
        table = reconstruct_from_family(fam, PROBES)
        anchor = s.value(tuple(E0))
        assert anchor.sign != 0
        for probe, got in zip(PROBES, table):
            assert got == hyper_div(s.value(probe), anchor)


def test_identity_embedding_reconstruction():
    s = standard_leaf(2, (0, 1))
    emb = LinearEmbedding((E0, E1))
    fam = family_from_seminorm(s, [emb])
    table = reconstruct_from_family(fam, [E0, E1])
    assert table == (rt(1, 0), rt(1, 1))


def test_corrupted_point_is_detected():
    rng = random.Random(197)
    s = random_diagonal(rng, 2, allow_inf=False)
    fam, embs = make_family(s, PROBES)
    members = list(fam.members)
    emb, pt = members[1]
    coords = list(pt.coords)
    k = next(i for i, x in enumerate(coords) if x.sign != 0 and i > 0)
    coords[k] = RT(-coords[k].sign, coords[k].val + 1)
    members[1] = (emb, ProjPoint(tuple(coords)))
    corrupted = CompatibleFamily(tuple(members))
    with pytest.raises(InconsistentFamilyError):
        reconstruct_from_family(corrupted, PROBES)


def test_missing_probe_is_an_error():
    s = standard_leaf(2)
    fam = family_from_seminorm(s, [LinearEmbedding((E0, E1))])
    with pytest.raises(NoApplicableEmbeddingError):
        reconstruct_from_family(fam, [_vec("1", "1")])


def test_recorded_morphisms_are_validated():
    s = standard_leaf(2, (0, 1))
    big = LinearEmbedding((E0, E1, _vec("1", "1")))
    small = LinearEmbedding((_vec("1", "1"), E0))
    fam = family_from_seminorm(
        s, [big, small], morphisms=[Morphism(0, 1, (2, 0))]
    )
    assert fam.morphisms[0].index_map == (2, 0)
    # a wrong map must be rejected at construction
    with pytest.raises(FamilyError):
        family_from_seminorm(s, [big, small], morphisms=[Morphism(0, 1, (1, 0))])


def test_mismatched_point_in_morphism_is_rejected():
    big = LinearEmbedding((E0, E1, _vec("1", "1")))
    small = LinearEmbedding((_vec("1", "1"), E0))
    s = standard_leaf(2, (0, 1))
    good_members = (
        (big, project_point(s, big)),
        (small, ProjPoint((rt(1, 0), rt(-1, 0)))),  # wrong signs
    )
    with pytest.raises(FamilyError):
        CompatibleFamily(good_members, (Morphism(0, 1, (2, 0)),))


FAMILY_FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "cli" / "fixtures" / "family.json"


@pytest.mark.parametrize("length", [2, 5])
def test_member_point_of_the_wrong_length_is_rejected(capsys, length):
    # member 1 has four columns; a cut point once indexed out of range and
    # a padded one was accepted
    blob = json.loads(FAMILY_FIXTURE.read_text(encoding="utf-8"))
    coords = blob["members"][1]["point"]["coords"]
    coords = (coords + [{"sign": "+", "val": "1"}])[:length]
    blob["members"][1]["point"] = {"coords": coords}
    message = f"member 1: point length {length}, embedding length 4"
    assert main(["limit", "check", json.dumps(blob)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "FamilyError", "message": message}}
    emb, pt = make_family(standard_leaf(2), PROBES)[0].members[0]
    with pytest.raises(FamilyError, match=f"^member 0: point length 2, embedding length {len(emb)}$"):
        CompatibleFamily(((emb, ProjPoint(pt.coords[:2])),))
