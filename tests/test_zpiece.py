from itertools import combinations

import pytest

from fillperm.enumeration import count_Lg, enumerate_filling
from fillperm.filling import FillingPermutation, GenusContext, canonical_perms
from fillperm.perms import Permutation
from fillperm.zpiece import (
    LSequence,
    ZTemplate,
    build_from_sequence,
    derive_template,
    detect_zpieces,
    splice,
)

TORUS = lambda: FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))


def all_L5_sequences():
    return [LSequence(5, (1, a2)) for a2 in (2, 3, 4, 5)]


def all_L7_sequences():
    return [
        LSequence(7, (1, a2, a3))
        for a2 in range(2, 6)
        for a3 in range(a2 + 1, 10)
    ]


def assert_pairwise_disjoint(matches):
    for z1, z2 in combinations(matches, 2):
        assert not (set(z1.alpha_interior) & set(z2.alpha_interior))
        assert not (set(z1.beta_interior) & set(z2.beta_interior))


def test_template_shape(template):
    assert sorted(template.order) == [1, 2, 3, 4, 5]
    assert len(template.signs) == 5
    assert len(template.incidence) == 5


def test_template_json_round_trip(template):
    again = ZTemplate.from_json(template.to_json())
    assert again == template


def test_swap_dual_is_an_involution(template):
    assert template.swap_dual().swap_dual() == template


def test_torus_splice_is_valid_genus3(template, g3_solutions):
    out = splice(TORUS(), 1, template)
    assert out.ctx.g == 3
    assert out.perm in {fp.perm for fp in g3_solutions}


def test_splice_every_class_rep_every_vertex(template, g3_class_reps):
    for rep in g3_class_reps:
        for k in range(1, 6):
            out = splice(rep, k, template)
            assert out.ctx.g == 5
            assert any(z.position == k for z in detect_zpieces(out, template))


def test_splice_vertex_out_of_range(template):
    with pytest.raises(ValueError, match="vertex out of range"):
        splice(TORUS(), 2, template)


def test_splice_crossing_count(template):
    g3 = splice(TORUS(), 1, template)
    assert g3.ctx.i_min == 5  # 2(g+2) - 1 with one crossing excised, five added
    g5 = splice(g3, 2, template)
    assert g5.ctx.i_min == 9


def test_detect_on_torus_is_empty(template):
    assert detect_zpieces(TORUS(), template) == []


def test_detect_finds_spliced_occurrence(template):
    out = splice(TORUS(), 1, template)
    matches = detect_zpieces(out, template)
    assert any(z.position == 1 for z in matches)


def test_detect_swap_symmetry(template):
    # exchanging the curves of a spliced pair still yields a detection
    out = build_from_sequence(LSequence(5, (1, 3)), template)
    cp = canonical_perms(out.ctx)
    swapped = FillingPermutation(out.ctx, out.perm.conjugate_by(cp.mu))
    assert detect_zpieces(swapped, template)


def test_lsequence_validation():
    LSequence(5, (1, 5))
    with pytest.raises(ValueError):
        LSequence(5, (1, 6))  # cap is 4*2-3 = 5
    with pytest.raises(ValueError):
        LSequence(5, (2, 3))  # first cap is 1
    with pytest.raises(ValueError):
        LSequence(5, (1, 1))  # strictly increasing
    with pytest.raises(ValueError):
        LSequence(4, (1, 2))


def test_build_single_stage_equals_splice(template):
    assert build_from_sequence(LSequence(3, (1,)), template).perm == splice(
        TORUS(), 1, template
    ).perm


def test_L5_builds_distinct_and_valid(template):
    results = [build_from_sequence(s, template) for s in all_L5_sequences()]
    assert len(results) == count_Lg(5) == 4
    assert len({fp.perm for fp in results}) == 4
    for s, fp in zip(all_L5_sequences(), results):
        assert fp.ctx.g == 5
        matches = detect_zpieces(fp, template)
        assert any(z.position == s.entries[-1] for z in matches)
        assert_pairwise_disjoint(matches)


def test_L7_builds_distinct_and_valid(template):
    seqs = all_L7_sequences()
    assert len(seqs) == count_Lg(7) == 22
    results = [build_from_sequence(s, template) for s in seqs]
    assert len({fp.perm for fp in results}) == 22
    for s, fp in zip(seqs, results):
        assert fp.ctx.g == 7
        matches = detect_zpieces(fp, template)
        assert any(z.position == s.entries[-1] for z in matches)
        assert_pairwise_disjoint(matches)


def test_genus4_solutions_contain_no_pieces(template, g4_solutions):
    # a piece inside a genus-4 minimal pair would excise to a genus-2
    # minimal pair, which does not exist
    seed = min(g4_solutions, key=lambda fp: fp.perm)
    assert detect_zpieces(seed, template) == []
    for fp in g4_solutions[:300]:
        assert detect_zpieces(fp, template) == []


def test_derivation_is_deterministic(template):
    # a fresh search, bypassing the per-process cache
    assert derive_template.__wrapped__() == template


def test_all_valid_decorations_recorded(template):
    from fillperm.zpiece import derive_all_templates

    everything = derive_all_templates()
    assert everything
    assert everything[0] == template
    assert len(set(everything)) == len(everything)
