"""Property tests of invariants that span several modules."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fillperm.diagram import PairDiagram, diagram_of
from fillperm.filling import FillingPermutation, reconstruct
from fillperm.gluing import euler_genus, from_filling, pattern_of_diagram, t1
from fillperm.perms import Permutation, format_perm, parse
from fillperm.zpiece import LSequence, build_from_sequence, detect_zpieces, splice


@st.composite
def diagrams(draw):
    m = draw(st.sampled_from([1, 3, 5, 7, 9]))
    beta_seq = draw(st.permutations(range(1, m + 1)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m))
    return PairDiagram(m, tuple(beta_seq), tuple(signs))


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(diagrams())
def test_one_face_diagram_round_trip(d):
    # no three-crossing diagram has a single face: genus 2 has no
    # minimally intersecting filling pair
    assume(d.is_filling_pair())
    fp = d.to_filling_permutation()
    assert diagram_of(fp) == d
    # fp keeps d, so read the diagram afresh from the permutation too
    assert diagram_of(FillingPermutation(fp.ctx, fp.perm)) == d
    assert diagram_of(fp).to_filling_permutation() == fp
    rep = reconstruct(fp)
    assert rep.genus == (d.m + 1) // 2
    assert len(rep.vertex_classes) == d.m
    assert all(len(c) == 4 for c in rep.vertex_classes)
    assert rep.alpha_is_single_curve and rep.beta_is_single_curve
    assert from_filling(fp) == pattern_of_diagram(d)
    assert euler_genus(pattern_of_diagram(d)) == d.genus()


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_parse_inverts_format_perm(images):
    # fixed points are dropped from the cycles, so the degree rides on
    # the "n=K" token
    p = Permutation(images)
    assert parse(format_perm(p)) == p


def inserted_piece_is_detected(fp, k, template):
    # splice gives the five new crossings labels k..k+4
    points = frozenset(range(k, k + 5))
    return any(z.interior_points == points for z in detect_zpieces(fp, template))


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 599), st.integers(1, 5))
def test_detect_finds_the_spliced_piece(g3_solutions, template, index, k):
    out = splice(g3_solutions[index], k, template)
    assert inserted_piece_is_detected(out, k, template)


@st.composite
def attachment_sequences(draw):
    g = draw(st.sampled_from([3, 5, 7, 9]))
    entries = []
    for i in range(1, (g - 1) // 2 + 1):
        low = entries[-1] + 1 if entries else 1
        entries.append(draw(st.integers(low, 4 * i - 3)))
    return LSequence(g, tuple(entries))


@settings(max_examples=160, deadline=None, database=None)
@given(attachment_sequences())
def test_detect_finds_the_last_attached_piece(template, seq):
    out = build_from_sequence(seq, template)
    assert inserted_piece_is_detected(out, seq.entries[-1], template)


@pytest.mark.parametrize("genus", [1, 3, 4])
def test_the_two_one_polygon_cuts_agree(genus, request):
    # from_filling cuts the pair's polygon from its boundary word and
    # pattern_of_diagram from its diagram's one face; every pair of genus
    # 1 and 3, and a seeded sample at genus 4
    solutions = request.getfixturevalue(f"g{genus}_solutions")
    if genus == 4:
        solutions = random.Random(3000).sample(solutions, 2000)
    for listed in solutions:
        fp = FillingPermutation(listed.ctx, listed.perm)
        i = fp.ctx.i_min
        cut, face = from_filling(fp), pattern_of_diagram(diagram_of(fp))
        assert cut == face
        assert cut._polygon == face._polygon == [0] * (4 * i + 1)
        assert t1(cut) == t1(face) == 2 * i
        assert euler_genus(cut) == euler_genus(face) == genus
