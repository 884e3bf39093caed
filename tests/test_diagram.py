import pytest

from fillperm.diagram import PairDiagram, diagram_of
from fillperm.filling import FillingPermutation, GenusContext
from fillperm.perms import Permutation


def test_torus_diagrams():
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    d = diagram_of(fp)
    assert d.m == 1
    assert d.beta_seq == (1,)
    assert d.is_filling_pair()
    assert d.to_filling_permutation().perm == fp.perm


def test_two_torus_solutions_have_opposite_chirality():
    d1 = diagram_of(FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1])))
    d2 = diagram_of(FillingPermutation(GenusContext(1), Permutation([4, 1, 2, 3])))
    assert d1.signs[0] == -d2.signs[0]


def test_round_trip_all_g3(g3_solutions):
    for fp in g3_solutions:
        d = diagram_of(fp)
        assert d.m == 5
        assert d.is_filling_pair()
        assert d.to_filling_permutation().perm == fp.perm


def test_face_count_euler():
    # a diagram with more than one face is not a minimal filling pair
    d = PairDiagram(3, (1, 2, 3), (1, 1, 1))
    faces = d.faces()
    assert sum(len(f) for f in faces) == 12
    assert d.genus() is None or d.genus() >= 0


def test_validation():
    with pytest.raises(ValueError):
        PairDiagram(2, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        PairDiagram(2, (1, 2), (1, 0))
    with pytest.raises(ValueError):
        PairDiagram(2, (1, 2), (1, 1)).to_filling_permutation()
    with pytest.raises(ValueError, match="single disk"):
        PairDiagram(3, (1, 2, 3), (1, 1, 1)).to_filling_permutation()
