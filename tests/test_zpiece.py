import os
import random
import subprocess
import sys
from itertools import combinations, islice, permutations, product
from typing import Iterable, Sequence

import pytest

import fillperm.diagram
import fillperm.zpiece
from fillperm.diagram import PairDiagram
from fillperm.enumeration import canonical_class_rep, count_Lg, enumerate_filling
from fillperm.filling import (
    FillingPermutation,
    GenusContext,
    alpha_reversal,
    beta_reversal,
    canonical_perms,
    corner_orbits,
)
from fillperm.perms import Permutation
from fillperm.zpiece import (
    TORUS_DIAGRAM,
    LSequence,
    ZMatch,
    ZTemplate,
    _splice_diagram,
    build_from_sequence,
    derive_template,
    detect_zpieces,
    diagram_of,
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


def incidence(t: ZTemplate) -> tuple[tuple[int, int, int], ...]:
    """(crossing index along a, index along b, relative sign) triples."""
    along_b = {a: m for m, a in enumerate(t.order, start=1)}
    return tuple((i, along_b[i], t.signs[i - 1]) for i in range(1, 6))


def swap_dual(t: ZTemplate) -> ZTemplate:
    """The same piece with the roles of the two arcs exchanged."""
    inv = [0] * 5
    for m, a in enumerate(t.order, start=1):
        inv[a - 1] = m
    dual_signs = tuple(-t.signs[t.order[m - 1] - 1] for m in range(1, 6))
    return ZTemplate(tuple(inv), dual_signs)


# The search for the least decoration passing the defining sweep: the
# oracle for the template constant.
def _candidate_templates() -> Iterable[ZTemplate]:
    for order in permutations(range(1, 6)):
        for signs in product((-1, 1), repeat=5):
            yield ZTemplate(order, signs)


def _passes(t: ZTemplate, torus: PairDiagram, g3_diagrams: list[PairDiagram],
            g3_set: set[Permutation]) -> bool:
    d3 = _splice_diagram(torus, 1, t)
    if not d3.is_filling_pair():
        return False
    if d3.to_filling_permutation().perm not in g3_set:
        return False
    for d in g3_diagrams:
        for k in range(1, 6):
            if not _splice_diagram(d, k, t).is_filling_pair():
                return False
    return True


def _g3_data():
    # a fixed-size sweep of the library's own, not a user-requested genus
    sols = enumerate_filling(GenusContext(3), force=True)
    return [diagram_of(s) for s in sols], {s.perm for s in sols}


def reference_derive_template() -> ZTemplate:
    """Search the 3840 candidate decorations for the least valid one.

    Validity is checked against the independently enumerated genus-3
    solution set: the torus splice must land in it, and every genus-3
    solution must splice at every vertex.
    """
    g3_diagrams, g3_set = _g3_data()
    torus = TORUS_DIAGRAM
    for t in _candidate_templates():
        if _passes(t, torus, g3_diagrams, g3_set):
            return t
    raise RuntimeError("template derivation failed")


def derive_all_templates() -> list[ZTemplate]:
    """Every decoration passing the full validity sweep, in sort order."""
    g3_diagrams, g3_set = _g3_data()
    torus = TORUS_DIAGRAM
    return [t for t in _candidate_templates()
            if _passes(t, torus, g3_diagrams, g3_set)]


# The set-based detector that the order-anchored `detect_zpieces`
# replaced, kept verbatim as its reference.
def reference_detect_zpieces(fp: FillingPermutation, t: ZTemplate) -> list[ZMatch]:
    """All occurrences of the piece's crossing pattern, either framing.

    A direct match puts the a-role on the first curve; a swapped match
    (the piece's arc-exchange symmetry) puts it on the second.  A match
    may be mirrored, which flips all five signs at once.  Matches are
    deduplicated by their arc footprint, so the two framings of one
    occurrence collapse to a single record.

    Matching is purely by the crossing pattern (consecutive runs on both
    curves, visit order, signs).  The four run endpoints are reported on
    each match but not required to be distinct: at genus 3 the runs wrap
    around the whole curve, and even embedded occurrences may have the
    a-run's exit point equal to the b-run's entry point when the excised
    vertex's neighbours coincided that way in the parent pair.
    """
    d = diagram_of(fp)
    m = d.m
    if m < 5:
        return []
    wrap = lambda x: (x - 1) % m + 1
    bpos = {label: j for j, label in enumerate(d.beta_seq)}  # 0-based position
    found: dict[tuple[frozenset[int], frozenset[int]], ZMatch] = {}

    def pattern_match(order_obs, signs_obs) -> int | None:
        for chir in (1, -1):
            if order_obs == t.order and signs_obs == tuple(chir * s for s in t.signs):
                return chir
        return None

    def record(alpha_start: int, beta_start: int, orientation: str, chir: int,
               interior: Sequence[int], ends: tuple[int, int, int, int]) -> None:
        a_int = frozenset(wrap(alpha_start + i) for i in range(1, 5))
        b_int = frozenset(wrap(beta_start + i) for i in range(1, 5))
        key = (a_int, b_int)
        if key not in found:
            found[key] = ZMatch(
                position=alpha_start, orientation=orientation, chirality=chir,
                beta_start=beta_start,
                alpha_interior=tuple(wrap(alpha_start + i) for i in range(1, 5)),
                beta_interior=tuple(wrap(beta_start + i) for i in range(1, 5)),
                interior_points=frozenset(interior),
                endpoints=ends,
            )

    # direct: the first curve carries the a role, run = arcs k..k+5
    for k in range(1, m + 1):
        u = [wrap(k + i) for i in range(5)]
        positions = {bpos[x] for x in u}
        for j0 in positions:
            if not all((j0 + i) % m in positions for i in range(5)):
                continue
            visit = [d.beta_seq[(j0 + i) % m] for i in range(5)]
            order_obs = tuple(u.index(x) + 1 for x in visit)
            signs_obs = tuple(d.signs[x - 1] for x in u)
            chir = pattern_match(order_obs, signs_obs)
            if chir is None:
                continue
            ends = (wrap(k - 1), d.beta_seq[(j0 - 1) % m],
                    d.beta_seq[(j0 + 5) % m], wrap(k + 5))
            record(k, j0 + 1, "direct", chir, u, ends)

    # swapped: the second curve carries the a role, run = beta arcs r..r+5
    for r in range(1, m + 1):
        u = [d.beta_seq[(r - 1 + i) % m] for i in range(5)]
        uset = set(u)
        for c in u:
            if not all(wrap(c + i) in uset for i in range(5)):
                continue
            visit = [wrap(c + i) for i in range(5)]
            order_obs = tuple(u.index(x) + 1 for x in visit)
            signs_obs = tuple(-d.signs[x - 1] for x in u)
            chir = pattern_match(order_obs, signs_obs)
            if chir is None:
                continue
            ends = (d.beta_seq[(r - 2) % m], wrap(c - 1),
                    wrap(c + 5), d.beta_seq[(r + 4) % m])
            record(c, r, "swapped", chir, u, ends)

    return sorted(found.values(), key=lambda z: (z.position, z.orientation))


@pytest.fixture(scope="module")
def g5_splices(template, g3_solutions):
    """One splice of every genus-3 solution at each of its five vertices."""
    return [splice(fp, k, template) for fp in g3_solutions for k in range(1, 6)]


def assert_pairwise_disjoint(matches):
    for z1, z2 in combinations(matches, 2):
        assert not (set(z1.alpha_interior) & set(z2.alpha_interior))
        assert not (set(z1.beta_interior) & set(z2.beta_interior))


def test_template_shape(template):
    assert sorted(template.order) == [1, 2, 3, 4, 5]
    assert len(template.signs) == 5
    assert len(incidence(template)) == 5


def test_template_json_round_trip(template):
    again = ZTemplate.from_json(template.to_json())
    assert again == template


def test_swap_dual_is_an_involution(template):
    assert swap_dual(swap_dual(template)) == template


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
    assert reference_derive_template() == template


# Run in a fresh process, so that nothing computed earlier in this one
# can stand in for a search.
SPLICE_WITHOUT_ENUMERATION = """
import contextlib, io, json
import fillperm.enumeration
from fillperm.cli import main
from fillperm.filling import FillingPermutation, GenusContext
from fillperm.perms import Permutation
from fillperm.zpiece import ZTemplate, derive_template, splice

def refuse(*args, **kwargs):
    raise AssertionError("enumeration called")

fillperm.enumeration._solution_images = refuse
template = derive_template()
assert isinstance(template, ZTemplate)
torus = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
assert splice(torus, 1, template).ctx.g == 3
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["extend", "[2,3,4,1]", "--genus", "1", "--vertex", "1"])
assert code == 0
assert json.loads(out.getvalue())["genus"] == 3
"""


def test_splicing_needs_no_enumeration():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fillperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SPLICE_WITHOUT_ENUMERATION],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_all_valid_decorations_recorded(template):
    everything = derive_all_templates()
    assert everything
    assert everything[0] == template
    assert len(set(everything)) == len(everything)


def test_detect_matches_the_reference_detector(template, g3_solutions,
                                               g4_solutions, g5_splices):
    builds = [build_from_sequence(s, template)
              for s in all_L5_sequences() + all_L7_sequences()]
    for fp in [*g3_solutions, *g5_splices, *builds, *g4_solutions[::8]]:
        assert detect_zpieces(fp, template) == reference_detect_zpieces(fp, template)
    # other decorations, on pairs where they match now and then
    pairs = [*g3_solutions[::20], *g5_splices[::100]]
    matches = 0
    for t in islice(_candidate_templates(), 0, None, 61):
        for fp in pairs:
            found = detect_zpieces(fp, t)
            assert found == reference_detect_zpieces(fp, t)
            matches += len(found)
    assert matches


def test_genus5_pieces_mark_the_classes_one_splice_reaches(
        template, g5_splices, g5_class_reps):
    # detection reads the pair in its own curve orientations, so a class
    # shows a piece in some orientation of its representative, not
    # necessarily in the representative itself
    ctx = GenusContext(5)
    reached = {canonical_class_rep(ctx, fp.perm) for fp in g5_splices}
    ra, rb = alpha_reversal(ctx), beta_reversal(ctx)
    flips = (ra, rb, ra.compose(rb))
    plain, oriented = set(), set()
    for rep in g5_class_reps:
        if detect_zpieces(rep, template):
            plain.add(rep.perm)
            oriented.add(rep.perm)
        elif any(detect_zpieces(FillingPermutation(ctx, rep.perm.conjugate_by(f)),
                                template) for f in flips):
            oriented.add(rep.perm)
    assert len(reached) == 56
    assert oriented == reached
    assert len(plain) == 12


# The per-stage round trip through the permutation encoding that the
# diagram-side `build_from_sequence` replaced, kept verbatim as its
# reference.
def reference_build_from_sequence(seq: LSequence, t: ZTemplate) -> FillingPermutation:
    """Iterate the splice along an attachment sequence, torus upward.

    Stage i excises the crossing labelled seq.entries[i-1]; the caps
    4i - 3 guarantee the label exists at each stage.  Distinct sequences
    give distinct oriented pairs.
    """
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    for a in seq.entries:
        fp = splice(fp, a, t)
    assert fp.ctx.g == seq.g
    return fp


def all_L9_sequences():
    return [
        LSequence(9, (1, a2, a3, a4))
        for a2 in range(2, 6)
        for a3 in range(a2 + 1, 10)
        for a4 in range(a3 + 1, 14)
    ]


def seeded_sequences(g: int, k: int, seed: int) -> list[LSequence]:
    """k random attachment sequences at genus g, each entry drawn
    uniformly above its predecessor and under its cap."""
    rng = random.Random(seed)
    out = []
    for _ in range(k):
        entries = [1]
        for i in range(2, (g - 1) // 2 + 1):
            entries.append(rng.randint(entries[-1] + 1, 4 * i - 3))
        out.append(LSequence(g, tuple(entries)))
    return out


def build_outcome(build, seq: LSequence, t: ZTemplate):
    """The built permutation, or None when the build raises ValueError."""
    try:
        return build(seq, t).perm
    except ValueError:
        return None


def test_torus_diagram_is_the_torus_pair():
    assert TORUS_DIAGRAM == diagram_of(TORUS())
    assert TORUS_DIAGRAM.to_filling_permutation().perm == TORUS().perm


def test_build_matches_the_reference_build(template):
    seqs = all_L5_sequences() + all_L7_sequences() + all_L9_sequences()
    assert len(all_L9_sequences()) == count_Lg(9)
    seqs += seeded_sequences(21, 200, seed=2013)
    for seq in seqs:
        fp = build_from_sequence(seq, template)
        assert fp.ctx.g == seq.g
        assert fp.perm == reference_build_from_sequence(seq, template).perm


def test_build_fails_where_the_reference_build_fails():
    seqs = all_L5_sequences() + all_L7_sequences()
    built = failed = 0
    for t in islice(_candidate_templates(), 0, None, 61):
        for seq in seqs:
            out = build_outcome(build_from_sequence, seq, t)
            assert out == build_outcome(reference_build_from_sequence, seq, t)
            built += out is not None
            failed += out is None
    assert built and failed


def test_build_checks_every_stage():
    # the second stage has three faces, yet the third stage closes them
    # back into one disk: only a check at every stage rejects the build
    t = ZTemplate((1, 3, 2, 5, 4), (-1,) * 5)
    seq = LSequence(7, (1, 2, 7))
    d = TORUS_DIAGRAM
    for a in seq.entries:
        d = _splice_diagram(d, a, t)
    assert d.is_filling_pair()
    with pytest.raises(ValueError, match="stage 2 .vertex 2."):
        build_from_sequence(seq, t)
    with pytest.raises(ValueError):
        reference_build_from_sequence(seq, t)


def test_build_converts_to_a_permutation_once(template, monkeypatch):
    calls = {"FillingPermutation": 0, "diagram_of": 0, "splice": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(fillperm.diagram, "FillingPermutation")
    count(fillperm.zpiece, "FillingPermutation")
    count(fillperm.zpiece, "diagram_of")
    count(fillperm.zpiece, "splice")
    seq = seeded_sequences(21, 1, seed=2013)[0]
    assert build_from_sequence(seq, template).ctx.g == 21
    assert calls == {"FillingPermutation": 1, "diagram_of": 0, "splice": 0}


def test_splices_and_builds_keep_their_diagram(template, g5_splices, monkeypatch):
    seqs = all_L5_sequences() + all_L7_sequences() + all_L9_sequences()
    results = g5_splices + [build_from_sequence(seq, template) for seq in seqs]
    assert len(g5_splices) == 3000
    fresh = [diagram_of(FillingPermutation(fp.ctx, fp.perm)) for fp in results]
    reads = []

    def counted(*args):
        reads.append(args)
        return corner_orbits(*args)

    monkeypatch.setattr(fillperm.diagram, "corner_orbits", counted)
    assert [diagram_of(fp) for fp in results] == fresh
    assert reads == []


def test_a_kept_diagram_is_not_part_of_the_value(g5_splices):
    for fp in g5_splices:
        plain = FillingPermutation(fp.ctx, fp.perm)
        assert fp == plain
        assert hash(fp) == hash(plain)
        assert repr(fp) == repr(plain)
