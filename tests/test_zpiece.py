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
    canonical_perms,
    reconstruct,
)
from fillperm.gluing import euler_genus, from_filling, pattern_of_diagram, t1
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
from test_filling import alpha_reversal, beta_reversal
from test_diagram import reference_next_arc
from test_enumeration import every_conjugate

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


@pytest.mark.parametrize("g, entries", [
    (5, (1.0, 2)), (5, (1, 2.0)), (5, (True, 2)), (5.0, (1, 2)), (True, (1,)),
    (5, (1, "2")), (5, (1, None))])
def test_lsequence_rejects_entries_that_are_not_ints(g, entries):
    # a float entry would fail only inside a build, and a True entry
    # would equal 1
    with pytest.raises(ValueError, match="must be ints"):
        LSequence(g, entries)


@pytest.mark.parametrize("entries", [[1, 2], range(1, 3)])
def test_lsequence_rejects_entries_that_are_not_a_tuple(entries):
    # a list would construct a sequence that no hash can take
    with pytest.raises(ValueError, match="must be a tuple"):
        LSequence(5, entries)


@pytest.mark.parametrize("order, signs, match", [
    ([1, 3, 2, 5, 4], (1, -1, -1, -1, -1), "must be tuples"),
    ((1, 3, 2, 5, 4), [1, -1, -1, -1, -1], "must be tuples"),
    ((1.0, 3, 2, 5, 4), (1, -1, -1, -1, -1), "must be ints"),
    ((True, 3, 2, 5, 4), (1, -1, -1, -1, -1), "must be ints"),
    ((1, 3, 2, 5, 4), (True, -1, -1, -1, -1), "must be ints"),
    ((1, 3, 2, 5, 4), (1, -1, -1, -1, -1.0), "must be ints"),
    ((1, 3, 2, 5, 4), (1, -1, -1, -1), "five crossings"),
    ((1, 3, 2, 5, 4), (1, -1, -1, -1, -1, 1), "five crossings"),
    ((1, 3, 2, 5, 4), (1, -1, -1, -1, 0), "five crossings"),
    ((1, 3, 2, 5, 5), (1, -1, -1, -1, -1), "permutation of 1..5")])
def test_template_rejects_what_is_not_a_decoration(order, signs, match):
    with pytest.raises(ValueError, match=match):
        ZTemplate(order, signs)


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

fillperm.enumeration._iter_solution_images = refuse
fillperm.enumeration._orderly = refuse
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
    walk_back = PairDiagram._next_arc

    def counted(d):
        reads.append(d)
        return walk_back(d)

    # a fresh read would check its diagram by walking it back
    monkeypatch.setattr(PairDiagram, "_next_arc", counted)
    assert [diagram_of(fp) for fp in results] == fresh
    assert reads == []


def test_a_kept_diagram_is_not_part_of_the_value(g5_splices):
    for fp in g5_splices:
        plain = FillingPermutation(fp.ctx, fp.perm)
        assert fp == plain
        assert hash(fp) == hash(plain)
        assert repr(fp) == repr(plain)


def test_a_made_pair_shares_its_diagrams_table(template, g5_splices):
    # the pair that to_filling_permutation makes and the diagram it keeps
    # hold one successor table, not two equal copies
    built = build_from_sequence(seeded_sequences(21, 1, seed=2013)[0], template)
    for out in (g5_splices[0], g5_splices[-1], built):
        assert out._diagram._succ is out.perm.padded


def test_canonical_rep_is_the_least_of_every_conjugate(g4_solutions, g5_splices):
    # only the conjugates with first byte 2 are built; the least of all
    # |G| conjugates is among them
    for fp in [*g4_solutions[::331], *g5_splices[::100]]:
        least = min(every_conjugate(fp.ctx, bytes(fp.perm.images)))
        assert canonical_class_rep(fp.ctx, fp.perm).images == tuple(least)


def count_reads(monkeypatch):
    """Stand-ins that count each diagram `diagram_of` reads off a pair
    (the diagram its one constructor, `_trusted_diagram`, builds) and
    each call of `diagram_of` through zpiece's module global, which the
    benchmark's tracer wraps."""
    counts = {"reads": 0, "calls": 0}
    build, read = fillperm.diagram._trusted_diagram, fillperm.zpiece.diagram_of

    def counted_diagram(*args):
        counts["reads"] += 1
        return build(*args)

    def counted_read(fp):
        counts["calls"] += 1
        return read(fp)

    monkeypatch.setattr(fillperm.diagram, "_trusted_diagram", counted_diagram)
    monkeypatch.setattr(fillperm.zpiece, "diagram_of", counted_read)
    return counts


def test_a_census_item_reads_each_diagram_once(g4_solutions, template, monkeypatch):
    # the per-pair invariants of a genus-4 census item, on fresh pairs
    ctx = GenusContext(4)
    sample = [FillingPermutation(ctx, fp.perm)
              for fp in random.Random(2800).sample(g4_solutions, 300)]
    counts = count_reads(monkeypatch)
    for fp in sample:
        rep = reconstruct(fp)
        d = diagram_of(fp)
        assert d.to_filling_permutation() == fp
        assert 0 <= t1(from_filling(fp)) <= 14
        assert euler_genus(pattern_of_diagram(d)) == rep.genus == 4
        detect_zpieces(fp, template)
    # one read by the item's diagram_of; detection gets the kept diagram
    # back through the module global
    assert counts == {"reads": len(sample), "calls": len(sample)}


def test_splicing_a_pair_at_every_vertex_reads_its_diagram_once(
        g3_solutions, template, monkeypatch):
    ctx = GenusContext(3)
    pairs = [FillingPermutation(ctx, fp.perm) for fp in g3_solutions[::60]]
    counts = count_reads(monkeypatch)
    spliced = {splice(fp, k, template).perm for fp in pairs for k in range(1, 6)}
    assert len(spliced) == 5 * len(pairs)
    assert counts == {"reads": len(pairs), "calls": 5 * len(pairs)}


def count_contexts(monkeypatch):
    """A counter of the `GenusContext` objects constructed from now on."""
    counts = {"contexts": 0}
    check = GenusContext.__post_init__

    def counted(ctx):
        counts["contexts"] += 1
        check(ctx)

    monkeypatch.setattr(GenusContext, "__post_init__", counted)
    return counts


def test_warm_census_items_and_splices_build_no_context(
        g3_solutions, g4_solutions, template, monkeypatch):
    # the per-pair calls take their contexts from the per-genus cache
    ctx3, ctx4 = GenusContext(3), GenusContext(4)
    items = [FillingPermutation(ctx4, fp.perm)
             for fp in random.Random(3000).sample(g4_solutions, 101)]
    pairs = [FillingPermutation(ctx3, fp.perm) for fp in g3_solutions[::30]]

    def census_item(fp):
        reconstruct(fp)
        d = diagram_of(fp)
        assert d.to_filling_permutation() == fp
        t1(from_filling(fp))
        euler_genus(pattern_of_diagram(d))
        detect_zpieces(fp, template)

    # one item and one splice warm the caches
    census_item(items.pop())
    splice(pairs[0], 1, template)
    counts = count_contexts(monkeypatch)
    for fp in items:
        census_item(fp)
    assert counts == {"contexts": 0}
    spliced = [splice(fp, k, template) for fp in pairs for k in range(1, 6)]
    assert len(spliced) == 100 and all(out.ctx.g == 5 for out in spliced)
    assert counts == {"contexts": 0}
    # the counter does see a construction
    GenusContext(5)
    assert counts == {"contexts": 1}


def test_detect_reads_an_equal_template_as_the_constant(
        template, g3_solutions, g4_solutions, g5_splices):
    # the per-template tables are cached by value; the benchmark builds
    # its own template
    own = ZTemplate(tuple(list(template.order)), tuple(list(template.signs)))
    assert own == template and own is not template
    assert own.order is not template.order and own.signs is not template.signs
    matches = 0
    for fp in [*g3_solutions, *g4_solutions[::16], *g5_splices]:
        found = detect_zpieces(fp, own)
        assert found == detect_zpieces(fp, template)
        matches += len(found)
    assert matches >= len(g5_splices)


# The splice kernel and stage loop that the one-pass `_splice_diagram`
# and the last-stage walk of `build_from_sequence` replaced, kept
# verbatim as their reference, the one-face check read off the face
# count.
def reference_splice_diagram(d: PairDiagram, k: int, t: ZTemplate) -> PairDiagram:
    vsign = d.signs[k - 1]
    relabel = lambda x: x if x < k else x + 4
    block = [k - 1 + o for o in t.order]
    bseq: list[int] = []
    for entry in d.beta_seq:
        if entry == k:
            bseq.extend(block)
        else:
            bseq.append(relabel(entry))
    signs = [0] * (d.m + 4)
    for p in range(1, d.m + 1):
        if p != k:
            signs[relabel(p) - 1] = d.signs[p - 1]
    for i in range(5):
        signs[k - 1 + i] = t.signs[i] * vsign
    return PairDiagram(d.m + 4, tuple(bseq), tuple(signs))


def reference_diagram_build(seq: LSequence, t: ZTemplate) -> FillingPermutation:
    d = TORUS_DIAGRAM
    for stage, a in enumerate(seq.entries, start=1):
        if not 1 <= a <= d.m:
            raise ValueError(f"vertex out of range at stage {stage} (vertex {a})")
        d = reference_splice_diagram(d, a, t)
        if not (d.m % 2 == 1 and d.face_count() == 1):
            raise ValueError(
                f"complement is not a single disk at stage {stage} (vertex {a})")
    fp = d.to_filling_permutation()
    assert fp.ctx.g == seq.g
    return fp


def assert_same_diagram(d: PairDiagram, ref: PairDiagram) -> None:
    """Equal diagrams, field by field, and d's table is the dart model's."""
    assert d == ref
    assert (d.m, d.beta_seq, d.signs) == (ref.m, ref.beta_seq, ref.signs)
    assert type(d.beta_seq) is type(d.signs) is tuple
    assert d._succ == tuple(reference_next_arc(ref))


def test_splice_kernel_matches_the_reference_stage_by_stage(template):
    seqs = all_L5_sequences() + all_L7_sequences() + all_L9_sequences()
    seqs += seeded_sequences(21, 200, seed=2013)
    stages = 0
    for seq in seqs:
        d = ref = TORUS_DIAGRAM
        for a in seq.entries:
            d = _splice_diagram(d, a, template)
            ref = reference_splice_diagram(ref, a, template)
            assert_same_diagram(d, ref)
            assert d.is_filling_pair()
            stages += 1
        assert build_from_sequence(seq, template).perm.padded == d._succ
    assert stages == 4 * 2 + 22 * 3 + 140 * 4 + 200 * 10


def test_splice_kernel_matches_the_reference_on_every_genus3_splice(
        template, g3_solutions, g5_splices):
    refs = [reference_splice_diagram(diagram_of(fp), k, template)
            for fp in g3_solutions for k in range(1, 6)]
    assert len(refs) == len(g5_splices) == 3000
    for out, ref in zip(g5_splices, refs):
        assert_same_diagram(out._diagram, ref)
        assert out.perm.padded == out._diagram._succ


def test_build_fails_where_the_reference_diagram_build_fails():
    # every outcome, and the text of every failure, with the decorations
    # that fail at some stage as well as those that pass
    seqs = all_L5_sequences() + all_L7_sequences()
    failed = set()
    for t in islice(_candidate_templates(), 0, None, 29):
        for seq in seqs:
            outcomes = []
            for build in (build_from_sequence, reference_diagram_build):
                try:
                    outcomes.append(build(seq, t).perm)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], str):
                failed.add(outcomes[0].split(" at ")[1].split(" (")[0])
    # builds fail at the last stage and at earlier ones
    assert failed == {"stage 1", "stage 2", "stage 3"}


def test_the_last_stage_fails_with_its_stage_message():
    # the torus stage gives a genus-3 pair, and the second stage's face
    # is first walked by the conversion to a filling permutation
    t = ZTemplate((1, 2, 4, 5, 3), (1, 1, 1, 1, 1))
    seq = LSequence(5, (1, 2))
    d = _splice_diagram(TORUS_DIAGRAM, 1, t)
    assert d.is_filling_pair()
    assert not _splice_diagram(d, 2, t).is_filling_pair()
    with pytest.raises(ValueError,
                       match=r"^complement is not a single disk at stage 2 \(vertex 2\)$"):
        build_from_sequence(seq, t)
