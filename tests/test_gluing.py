import hashlib
import random
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillperm import enumeration, gluing
from fillperm.diagram import PairDiagram, diagram_of
from fillperm.enumeration import (
    _choice_table,
    _count_and_classify,
    _moves,
    _orderly,
    count_classes,
    enumerate_filling,
)
from fillperm.filling import FillingPermutation, GenusContext
from fillperm.filling import relabeling_group, signed_ids, twisting_closure
from fillperm.gluing import (
    GluingPattern,
    _check,
    _crossing_choices,
    _crossing_rows,
    _search_all,
    euler_genus,
    from_filling,
    pattern_of_diagram,
    search_patterns,
    t1,
    validate,
    ValidationReport,
)
from fillperm.perms import Permutation, table_orbits
from fillperm.zpiece import LSequence, build_from_sequence, splice
from test_enumeration import _least_members, orderly_leaves

TORUS_SQUARE = GluingPattern.make(1, [[1, 2, -1, -2]])
SEARCH_SIZES = [(1, 1), (2, 4), (2, 6), (3, 5), (3, 6)]


def faces_pattern(m, faces):
    """The pattern whose polygons are the given faces of an m-crossing
    diagram, read from arc symbols into signed arc ids.  It is built by
    `GluingPattern.make`, so it carries no polygon table."""
    ids = signed_ids(m)
    return GluingPattern.make(m, [[ids[s] for s in face] for face in faces])


@lru_cache(maxsize=None)
def relabeling_tables(i):
    """The relabelling group on signed arc ids, one table per element.

    Each element of `relabeling_group(i)` is carried from symbols to
    signed ids.  A table has 4i + 1 entries and is indexed by the signed
    id itself: the negative ids wrap around to the top half of the tuple.
    """
    ids = signed_ids(i)
    sym = [0] * (4 * i + 1)
    for s in range(1, 4 * i + 1):
        sym[ids[s]] = s
    return tuple((0, *(ids[t(sym[v])] for v in range(1, 4 * i + 1)))
                 for t in relabeling_group(i))


def normalize(polygons):
    """Start each polygon at its least id (its least rotation) and sort them."""
    normed = []
    for poly in polygons:
        k = poly.index(min(poly))
        normed.append(tuple(poly[k:]) + tuple(poly[:k]))
    return tuple(sorted(normed))


def orbit(pat):
    """The normalized forms of a pattern under every arc relabeling."""
    return {normalize([[t[v] for v in p] for p in pat.polygons])
            for t in relabeling_tables(pat.i)}


# The least relabelled form of one pattern, an oracle of the search's
# class sweep, which acts on successor tables instead.
def canonical_key(pat: GluingPattern) -> tuple[tuple[int, ...], ...]:
    """Least normalized form over the arc relabelings.

    Polygon rotations are absorbed by the normalization; the polygon
    order is sorted away.  Full surface homeomorphism is deliberately
    not quotiented, so the count may split some topological classes.
    ValueError if a signed id repeats or is not one of +-1..+-2i.
    """
    values = [v for poly in pat.polygons for v in poly]
    if len(set(values) & set(signed_ids(pat.i)[1:])) < len(values):
        raise ValueError("signed arc ids must be distinct and in range")
    return min(orbit(pat))


def test_torus_square_valid():
    report = validate(TORUS_SQUARE)
    assert report.ok and report.failures == ()
    assert euler_genus(TORUS_SQUARE) == 1
    assert t1(TORUS_SQUARE) == 2


def test_sphere_like_pattern_invalid():
    bad = GluingPattern.make(1, [[1, -1, 2, -2]])
    report = validate(bad)
    assert not report.ok
    assert any("orbit" in f for f in report.failures)


def test_validate_missing_inverse():
    report = validate(GluingPattern.make(1, [[1, 2, 1, -2]]))
    assert not report.ok


def test_validate_disconnected():
    # two separate squares: each id used once per sign but the complex
    # splits into two components
    pat = GluingPattern.make(2, [[1, 3, -1, -3], [2, 4, -2, -4]])
    report = validate(pat)
    assert not report.ok


def test_json_round_trip():
    again = GluingPattern.from_json(TORUS_SQUARE.to_json())
    assert again == TORUS_SQUARE


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '{"polygons": [[1, 2, -1, -2]]}',
    '{"i": "1", "polygons": [[1, 2, -1, -2]]}',
    '{"i": true, "polygons": [[1, 2, -1, -2]]}',
    '{"i": 1.0, "polygons": [[1, 2, -1, -2]]}',
    '{"i": 1}',
    '{"i": 1, "polygons": [1, 2, -1, -2]}',
    '{"i": 1, "polygons": [["a", 2, -1, -2]]}',
    '{"i": 1, "polygons": [[true, 2, -1, -2]]}',
    '{"i": 1, "polygons": [[1.5, 2, -1, -2]]}',
])
def test_from_json_checks_the_schema(text):
    with pytest.raises(ValueError):
        GluingPattern.from_json(text)


def test_from_filling_torus():
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    pat = from_filling(fp)
    assert pat.i == 1
    assert canonical_key(pat) == canonical_key(TORUS_SQUARE)


def test_from_filling_g3(g3_solutions):
    for fp in g3_solutions[:60]:
        pat = from_filling(fp)
        assert pat.i == 5
        assert len(pat.polygons) == 1
        assert validate(pat).ok
        assert euler_genus(pat) == 3
        assert t1(pat) == 10


def test_single_polygon_count_identity(g3_solutions):
    pat = from_filling(g3_solutions[0])
    assert len(pat.polygons) == pat.i - 2 * 3 + 2 == 1


def test_search_torus():
    res = search_patterns(1, 1, 10)
    assert len(res) == 1
    assert canonical_key(res[0]) == canonical_key(TORUS_SQUARE)


def test_search_g2_i3_empty():
    assert search_patterns(2, 3, 10) == []


def test_search_g2_i4():
    res = search_patterns(2, 4, 100)
    assert res
    for pat in res:
        assert validate(pat).ok
        assert euler_genus(pat) == 2
        assert len(pat.polygons) == 2
        assert t1(pat) <= 6
        assert all(len(p) >= 4 for p in pat.polygons)
    # the two-octagon configuration is among them
    assert any(sorted(len(p) for p in pat.polygons) == [8, 8] for pat in res)


def test_search_non_divisible_by_four_bound():
    for genus, intersections in ((2, 4), (3, 6)):
        for pat in search_patterns(genus, intersections, 10000):
            if any(len(p) % 4 for p in pat.polygons):
                assert t1(pat) <= 4 * genus - 4


def test_search_g3_minimal_equality():
    res = search_patterns(3, 5, 10000)
    assert res
    for pat in res:
        assert len(pat.polygons) == 1
        assert t1(pat) == 4 * 3 - 2


def test_search_g3_i6_bound():
    res = search_patterns(3, 6, 10000)
    assert res
    for pat in res:
        assert t1(pat) <= 4 * 3 - 2
        assert euler_genus(pat) == 3
        assert len(pat.polygons) == 2


def test_search_guard():
    with pytest.raises(ValueError, match="search space too large"):
        search_patterns(4, 8, 1)
    # seven crossings are admitted: three polygons at genus 3
    res = search_patterns(3, 7, 10**6)
    assert res
    for pat in res:
        assert validate(pat).ok
        assert euler_genus(pat) == 3
        assert len(pat.polygons) == 3


def test_search_rejects_a_negative_limit():
    with pytest.raises(ValueError, match="non-negative"):
        search_patterns(2, 4, -1)
    assert search_patterns(2, 4, 0) == []


def test_search_below_minimum_returns_empty():
    assert search_patterns(3, 4, 10) == []


def test_search_limit():
    assert len(search_patterns(2, 4, 1)) == 1


def test_canonical_key_invariant_under_relabeling():
    # rotating the second curve's numbering must not change the key
    pat = search_patterns(2, 4, 10)[0]
    i = pat.i
    remap = {}
    for k in range(1, i + 1):
        remap[k] = k
        remap[-k] = -k
        shifted = (k % i) + 1 + i
        remap[i + k] = shifted
        remap[-(i + k)] = -shifted
    rotated = GluingPattern.make(
        i, [[remap[v] for v in poly] for poly in pat.polygons]
    )
    assert canonical_key(rotated) == canonical_key(pat)


def nested_loop_relabelings(i):
    """Reference: the relabelling group on signed arc ids written out
    directly, per curve a rotation of the arc numbering and an optional
    reversal (which renumbers along the new direction and negates the
    signs together), plus the swap of the two curves."""
    def dihedral(k, r, eps):
        return (eps * (k - 1) + r) % i + 1

    for swap in (False, True):
        for ra in range(i):
            for ea in (1, -1):
                for rb in range(i):
                    for eb in (1, -1):
                        table = {}
                        for k in range(1, i + 1):
                            na = dihedral(k, ra, ea) + (i if swap else 0)
                            table[k] = ea * na
                            table[-k] = -ea * na
                            nb = dihedral(k, rb, eb) + (0 if swap else i)
                            table[i + k] = eb * nb
                            table[-(i + k)] = -eb * nb
                        yield table


@pytest.mark.parametrize("i", range(1, 9))
def test_relabeling_tables_match_the_nested_loops(i):
    ids = [v for k in range(1, 2 * i + 1) for v in (k, -k)]
    cached = {tuple(table[v] for v in ids) for table in relabeling_tables(i)}
    reference = {tuple(table[v] for v in ids)
                 for table in nested_loop_relabelings(i)}
    assert cached == reference
    assert len(relabeling_tables(i)) == len(reference) == 8 * i * i


@pytest.mark.parametrize("g, classes", [(1, 1), (3, 5)])
def test_one_polygon_patterns_are_the_twisting_classes(g, classes):
    ctx = GenusContext(g)
    keys = {canonical_key(from_filling(fp)) for fp in enumerate_filling(ctx)}
    found = {canonical_key(p) for p in search_patterns(g, 2 * g - 1, 10**6)}
    assert keys == found
    assert len(keys) == count_classes(ctx) == classes


def test_search_reproduces_the_genus_4_class_count():
    res = search_patterns(4, 7, 10**6)
    assert len(res) == count_classes(GenusContext(4)) == 168
    for pat in res:
        assert validate(pat).ok
        assert len(pat.polygons) == 1
        assert euler_genus(pat) == 4


@pytest.mark.parametrize("g, i, classes", [(4, 8, 4_549), (5, 9, 25_908)])
def test_search_runs_past_the_bound_of_search_patterns(g, i, classes, monkeypatch):
    # search_patterns refuses 4 * intersections > 28, but the search
    # itself runs there in about 0.2 s and 0.8 s; at (5, 9) it counts
    # N(5) by crossing diagrams, with none of the enumeration's choice
    # tables.  The orderly search yields no leaf but the classes' least,
    # of the 1,845,504 anchored one-face diagrams at nine crossings.
    leaves = Counter()
    search = gluing._orderly

    def counted(choices, first, cycles, prefix, stop):
        for node in search(choices, first, cycles, prefix, stop):
            leaves[prefix] += 1
            yield node

    monkeypatch.setattr(gluing, "_orderly", counted)
    res = _search_all.__wrapped__(g, i)
    assert len(res) == sum(leaves.values()) == classes
    assert set(leaves) <= {(0,), (1,)}
    for pat in res[::97]:
        assert validate(pat).ok
        assert euler_genus(pat) == g
    if (g, i) == (5, 9):
        assert classes == count_classes(GenusContext(5))


# t1 counts over the patterns of each size: {t1: number of patterns}
T1_TABLE = {
    (1, 1): {2: 1},
    (2, 4): {4: 2},
    (2, 6): {0: 3, 1: 2, 2: 5, 3: 2, 4: 1},
    (3, 5): {10: 5},
    (3, 6): {0: 2, 4: 15, 6: 15, 8: 17},
    (4, 7): {14: 168},
    (3, 7): {0: 8, 1: 8, 2: 46, 3: 48, 4: 80, 5: 50, 6: 59, 7: 22, 8: 6},
    (2, 7): {0: 5, 1: 8, 2: 7},
    (1, 7): {0: 3},
}


@pytest.mark.parametrize("g, i", T1_TABLE)
def test_t1_table_is_pinned(g, i):
    res = search_patterns(g, i, 10**6)
    assert Counter(t1(pat) for pat in res) == T1_TABLE[g, i]
    # only the one-polygon patterns reach t1 = 2i, the paper's optimum
    for pat in res:
        assert (t1(pat) == 2 * i) == (len(pat.polygons) == 1)


# sha256 prefixes of the search's own output, in its order: the
# patterns cut from each class's least leaf
OUTPUT_DIGESTS = {
    (1, 1): "c9322e9ccd71518f",
    (2, 4): "2aa89c207f5fef3a",
    (2, 6): "70d2e547ec5fe173",
    (3, 5): "4b509ab33219c278",
    (3, 6): "d83e852ea7e1e469",
    (1, 7): "9a1706ef3cb68798",
    (2, 7): "c2c4c5aba4d6eae5",
    (3, 7): "e04d376d6aa4cc44",
    (4, 7): "e512c785eab6e0a4",
}


def short_sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# digest: of the sorted canonical keys, so of the set of classes found,
# whatever pattern stands for each class
@pytest.mark.parametrize("g, i, digest", [
    (1, 1, "2ffd82ff4bfcfcc9"),
    (2, 4, "dba7097ac6e859f0"),
    (2, 6, "799d25cd75384fa1"),
    (3, 5, "6b466fb4283df178"),
    (3, 6, "5a121f108452015e"),
    (1, 7, "4e2de71189610b27"),
    (2, 7, "796d65f9a2673804"),
    (3, 7, "9a4b3e626ba81482"),
    (4, 7, "6ee980cea6a0e903"),
])
def test_search_output_is_pinned(g, i, digest):
    res = search_patterns(g, i, 10**6)
    assert short_sha(repr(sorted(canonical_key(p) for p in res))) == digest
    assert short_sha(repr([p.polygons for p in res])) == OUTPUT_DIGESTS[g, i]


# ----------------------------------------------------------------------
# Reference: the brute-force search over every complete diagram
# ----------------------------------------------------------------------


# The loop that the pruned depth-first search replaced in `_search_all`,
# kept verbatim as its reference.
@lru_cache(maxsize=None)
def reference_search_all(genus: int, intersections: int) -> tuple[GluingPattern, ...]:
    """Orbit sweep: a diagram of a seen class is skipped; a new class
    adds its whole orbit to `seen` and its least form to the output."""
    m = intersections
    want_faces = intersections - 2 * genus + 2
    if want_faces < 1:
        return ()
    seen: set[tuple[tuple[int, ...], ...]] = set()
    keys = []
    orders = permutations(range(2, m + 1))
    for rest, signs in product(orders, product((-1, 1), repeat=m)):
        d = PairDiagram(m, (1, *rest), signs)
        faces = d.faces()
        if len(faces) != want_faces or any(len(f) == 2 for f in faces):
            continue
        pat = faces_pattern(m, faces)
        if normalize(pat.polygons) in seen:
            continue
        forms = orbit(pat)
        seen |= forms
        keys.append(min(forms))
    return tuple(GluingPattern.make(m, key) for key in sorted(keys))


def reference_leaves(m, want_faces):
    """(beta_seq, signs) of every complete diagram anchored at point 1
    that passes the filter of `reference_search_all`."""
    for rest, signs in product(permutations(range(2, m + 1)),
                               product((-1, 1), repeat=m)):
        d = PairDiagram(m, (1, *rest), signs)
        faces = d.faces()
        if len(faces) == want_faces and all(len(f) > 2 for f in faces):
            yield d.beta_seq, d.signs


def reference_tables(m, want_faces):
    """The successor tables of `reference_leaves`, padded at 0."""
    return [PairDiagram(m, beta_seq, signs)._next_arc()
            for beta_seq, signs in reference_leaves(m, want_faces)]


def least_reference_tables(m, want_faces):
    """The tables of `reference_tables` that the streaming least-member
    test keeps, sorted: one per class, its least."""
    images = (bytes(nxt[1:]) for nxt in reference_tables(m, want_faces))
    _, kept = _least_members(m, images, 2, (3, 2 * m + 1))
    return [[0, *img] for img in sorted(kept)]


def orderly_tables(m, want_faces):
    """The leaf tables of the orderly search over `_crossing_choices`,
    padded at 0, sorted: first beta arc 1 ends at point 1 with sign -1,
    then with +1, as `_search_all` runs it."""
    choices, first = _crossing_choices(m)
    return sorted([*nxt[:-1]] for k in (0, 1)
                  for _, nxt, _ in _orderly(choices, first, want_faces, (k,), m))


def search_leaves(m, want_faces):
    """(beta_seq, signs, successor table) of each diagram that
    `_search_all` gets from the orderly search, read off the table:
    alpha arc p steps to 2j + 2m at a +1 point and to 2(j mod m) + 2 at
    a -1 point, where p is the end of beta arc j."""
    half = 2 * m
    for nxt in orderly_tables(m, want_faces):
        beta_seq = [0] * m
        signs = []
        for p in range(1, m + 1):
            y = nxt[2 * p - 1]
            signs.append(1 if y > half else -1)
            j = (y - half) // 2 if y > half else (y - 2) // 2 or m
            beta_seq[j - 1] = p
        yield tuple(beta_seq), tuple(signs), nxt


@pytest.mark.parametrize("m, cycles", [
    (m, c) for m in range(1, 6) for c in range(1, m + 3)])
def test_grow_cycles_yields_each_diagram_with_that_face_count(m, cycles):
    """At every face count, also those that no searched genus asks for
    (the sphere's m + 2 and counts of the wrong parity, whose answer is
    empty), the orderly search over the crossings yields, once each, the
    anchored diagrams with `cycles` faces and no bigon that the
    streaming least-member test keeps.  With one face and an admission
    table whose cells are all empty, as listing runs it, the same search
    yields every such diagram once."""
    tables = orderly_tables(m, cycles)
    assert tables == least_reference_tables(m, cycles)
    if (cycles - m) % 2 or (m, cycles) == (3, 1):  # genus 2 has no minimal pair
        assert tables == []
    if cycles == 1:
        n = 4 * m
        choices, first = _choice_table(n, _crossing_rows(m), range(2, 2 * m + 1, 2),
                                       range(1, 2 * m, 2), (((),) * (n + 1),) * n, 1)
        listed = [tuple(nxt[:-1]) for k in (0, 1)
                  for _, nxt, _ in _orderly(choices, first, 1, (k,), m)]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(map(tuple, reference_tables(m, 1)))


def test_both_class_searches_run_through_the_orderly_search(monkeypatch):
    calls = Counter()
    orderly = enumeration._orderly

    def counting(choices, first, cycles, prefix, stop):
        calls[len(choices) - 1, cycles] += 1
        return orderly(choices, first, cycles, prefix, stop)

    monkeypatch.setattr("fillperm.enumeration._orderly", counting)
    monkeypatch.setattr("fillperm.gluing._orderly", counting)
    assert count_classes(GenusContext(3)) == 5
    assert calls == {(20, 1): 1 + 7}  # the split of the shard, then its 7 tasks
    assert len(_search_all.__wrapped__(3, 6)) == 49
    assert calls[24, 2] == 2  # beta arc 1 ends at point 1 with either sign
    assert len(enumerate_filling(GenusContext(3))) == 600
    assert calls[20, 1] == 1 + 7 + 1  # one listing of the shard where s(1) = 2
    assert sum(calls.values()) == 11


def test_no_search_row_writes_an_arc_within_one_parity():
    """Every arc that a row of either search writes changes parity, so
    no row writes a fixed point x -> x: `_orderly` needs that to read a
    closed 2-cycle off its table."""
    searches = [*(_moves(GenusContext(g)) for g in range(1, 7)),
                *(_crossing_rows(m) for m in range(1, 10))]
    arcs = [arc for rows in searches for row in rows
            for _, choice in row for arc in choice]
    assert len(arcs) == 4_568  # 8i^2 per size, i = 1, 3, ..., 11 and 1..9
    assert all((x ^ y) & 1 for x, y in arcs)


def test_both_searches_share_one_class_test(monkeypatch):
    # both searches prune by an index of admitted conjugates
    # (`_admitting`) in the one orderly search, with no leaf test after:
    # it reaches only the 5 least members of the genus-3 shard, and only
    # the 49 least of the 2-face diagrams at six crossings, the tables
    # that the streaming least-member test keeps
    orderly = orderly_leaves(monkeypatch)
    assert _count_and_classify(GenusContext(3))[:2] == (600, 5)
    assert len(orderly) == len(set(orderly)) == 5
    leaves = []
    search = gluing._orderly

    def counted(choices, first, cycles, prefix, stop):
        for node in search(choices, first, cycles, prefix, stop):
            leaves.append(node[1][:-1])
            yield node

    monkeypatch.setattr(gluing, "_orderly", counted)
    assert len(_search_all.__wrapped__(3, 6)) == 49
    assert sorted(leaves) == least_reference_tables(6, 2)
    ctx = GenusContext(3)
    assert twisting_closure(ctx) is relabeling_group(ctx.i_min)


def test_pattern_sweep_keeps_no_orbit():
    # the first run builds the caches of the size; the search then holds
    # the 49 least leaf tables and the patterns, about 26 KiB, while a
    # set of the normalized relabelled forms of every class found takes
    # about 2 MiB
    _search_all.__wrapped__(3, 6)
    tracemalloc.start()
    try:
        assert len(_search_all.__wrapped__(3, 6)) == 49
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_pruned_search_keeps_every_leaf(g, i):
    # the least leaf of every class, cut into the search's patterns
    want_faces = i - 2 * g + 2
    leaves = [(beta_seq, signs) for beta_seq, signs, _ in search_leaves(i, want_faces)]
    assert len(leaves) == len(set(leaves)) == len(_search_all(g, i))
    assert set(leaves) <= set(reference_leaves(i, want_faces))
    assert [list(successor_table(pat)) for pat in _search_all(g, i)] == (
        least_reference_tables(i, want_faces))


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_search_matches_the_brute_force_search(g, i):
    keys = sorted(canonical_key(p) for p in search_patterns(g, i, 10**6))
    assert keys == [p.polygons for p in reference_search_all(g, i)]


def test_leaves_yield_the_diagram_successor_table():
    for beta_seq, signs, nxt in search_leaves(6, 2):
        assert nxt == PairDiagram(6, beta_seq, signs)._next_arc()


def test_search_builds_no_diagram(monkeypatch):
    def refuse(self):
        raise AssertionError("a PairDiagram was built")

    monkeypatch.setattr(PairDiagram, "__post_init__", refuse)
    assert len(_search_all.__wrapped__(3, 6)) == 49


# ----------------------------------------------------------------------
# Reference: the canonical key as least rotation over every relabeling
# ----------------------------------------------------------------------


def reference_normalize(polygons):
    """Rotate each polygon to its least phase and sort the polygons."""
    normed = []
    for poly in polygons:
        best = None
        for r in range(len(poly)):
            cand = tuple(poly[r:]) + tuple(poly[:r])
            if best is None or cand < best:
                best = cand
        normed.append(best)
    return tuple(sorted(normed))


def reference_canonical_key(pat):
    """Least normalized form over the arc relabelings, each polygon
    tried at every phase."""
    best = None
    for table in relabeling_tables(pat.i):
        cand = reference_normalize([[table[v] for v in poly] for poly in pat.polygons])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def successor_table(pat):
    """The face-successor table of a pattern on the arc symbols, padded
    at 0: each edge steps to the next edge of its polygon."""
    ids = signed_ids(pat.i)
    sym = {v: s for s, v in enumerate(ids) if s}
    succ = [0] * (4 * pat.i + 1)
    for poly in pat.polygons:
        for v, w in zip(poly, poly[1:] + poly[:1]):
            succ[sym[v]] = sym[w]
    return tuple(succ)


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_canonical_key_matches_the_reference_on_searched_patterns(g, i):
    # each pattern found is cut from a leaf of the search, and no leaf of
    # its class is smaller: relabelling conjugates the successor table
    leaves = set(map(tuple, reference_tables(i, i - 2 * g + 2)))
    group = [(0, *t.images) for t in relabeling_group(i)]
    for pat in search_patterns(g, i, 10**6):
        assert canonical_key(pat) == reference_canonical_key(pat)
        succ = successor_table(pat)
        assert succ in leaves
        for t in group:
            conj = [0] * len(succ)
            for x in range(1, len(succ)):
                conj[t[x]] = t[succ[x]]
            assert tuple(conj) not in leaves or tuple(conj) >= succ



def test_canonical_key_matches_the_reference_on_genus_3_pairs(g3_solutions):
    assert len(g3_solutions) == 600
    for fp in g3_solutions:
        pat = from_filling(fp)
        assert canonical_key(pat) == reference_canonical_key(pat)


@st.composite
def moved_patterns(draw):
    """A searched pattern and a copy under a random relabeling, with each
    polygon rotated at random and the polygons shuffled."""
    pat = draw(st.sampled_from(
        search_patterns(*draw(st.sampled_from(SEARCH_SIZES)), 10**6)))
    table = draw(st.sampled_from(relabeling_tables(pat.i)))
    moved = []
    for poly in pat.polygons:
        r = draw(st.integers(0, len(poly) - 1))
        moved.append([table[v] for v in poly[r:] + poly[:r]])
    return pat, GluingPattern.make(pat.i, draw(st.permutations(moved)))


@settings(max_examples=200, deadline=None, database=None)
@given(moved_patterns())
def test_canonical_key_is_invariant_on_the_orbit(pair):
    pat, moved = pair
    assert canonical_key(moved) == canonical_key(pat)


@pytest.mark.parametrize("polygons", [
    [[1, 2, 1, -2]],
    [[1, 2, -1], [-2, 2]],
    [[1, 2, -1, -3]],
    [[0, 2, -1, -2]],
])
def test_canonical_key_rejects_repeated_or_foreign_ids(polygons):
    with pytest.raises(ValueError, match="distinct"):
        canonical_key(GluingPattern.make(1, polygons))


# ----------------------------------------------------------------------
# Reference: validation on (polygon, position) slots
# ----------------------------------------------------------------------


def slot_validate(pat):
    """The pattern conditions checked on a dict of (polygon, position)
    slots, with the quarter turn stepping to the next slot of the
    polygon and then to the slot of its inverse."""
    failures = []
    if pat.i < 1:
        return ValidationReport(False, ("arc count must be positive",))
    if not pat.polygons:
        return ValidationReport(False, ("no polygons",))
    for poly in pat.polygons:
        if len(poly) < 2 or len(poly) % 2:
            failures.append(f"polygon {list(poly)} must have even length >= 2")
    where = {}
    for pi, poly in enumerate(pat.polygons):
        for qi, v in enumerate(poly):
            if v == 0 or abs(v) > 2 * pat.i or v in where:
                where = None
                break
            where[v] = (pi, qi)
        if where is None:
            break
    if where is None or len(where) != 4 * pat.i:
        failures.append("each signed arc id must occur exactly once")
        return ValidationReport(False, tuple(failures))

    on_first = lambda v: abs(v) <= pat.i

    for pi, poly in enumerate(pat.polygons):
        for qi in range(len(poly)):
            if on_first(poly[qi]) == on_first(poly[(qi + 1) % len(poly)]):
                failures.append(f"polygon {pi}: consecutive edges on one curve")
                break

    M = {}
    for pi, poly in enumerate(pat.polygons):
        for qi in range(len(poly)):
            M[(pi, qi)] = where[-poly[(qi + 1) % len(poly)]]
    seen = set()
    orbits = 0
    for slot in M:
        if slot in seen:
            continue
        orbit = []
        s = slot
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = M[s]
        orbits += 1
        if len(orbit) != 4:
            failures.append(f"corner orbit of size {len(orbit)} at {orbit[0]}")
        else:
            curves = [on_first(pat.polygons[p][q]) for p, q in orbit]
            if curves[0] == curves[1] or curves[1] == curves[2]:
                failures.append(f"crossing at {orbit[0]} is not transverse")
    if orbits != pat.i and not failures:
        failures.append(f"{orbits} crossings found, expected {pat.i}")

    if not failures:
        for a in range(1, 2 * pat.i + 1):
            if a <= pat.i:
                nxt = a % pat.i + 1
            else:
                nxt = (a - pat.i) % pat.i + pat.i + 1
            if M[M[where[a]]] != where[-nxt]:
                failures.append(f"arc {a} does not continue into arc {nxt}")

    if not failures and len(pat.polygons) > 1:
        adj = {p: set() for p in range(len(pat.polygons))}
        for a in range(1, 2 * pat.i + 1):
            p1, p2 = where[a][0], where[-a][0]
            adj[p1].add(p2)
            adj[p2].add(p1)
        todo = [0]
        reached = {0}
        while todo:
            for q in adj[todo.pop()]:
                if q not in reached:
                    reached.add(q)
                    todo.append(q)
        if len(reached) != len(pat.polygons):
            failures.append("glued complex is disconnected")

    return ValidationReport(not failures, tuple(failures))


def split_polygons(draw, values):
    """values cut into 1-3 consecutive polygons (some may be empty)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=2)))
    bounds = [0, *cuts, len(values)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def random_patterns(draw):
    """All 4i ids in random order, perhaps with one id duplicated,
    dropped or replaced, cut into 1-3 polygons."""
    i = draw(st.integers(1, 5))
    values = draw(st.permutations(
        [v for k in range(1, 2 * i + 1) for v in (k, -k)]))
    edit = draw(st.sampled_from(["none", "duplicate", "drop", "replace"]))
    at = draw(st.integers(0, len(values) - 1))
    if edit == "duplicate":
        values.insert(at, values[draw(st.integers(0, len(values) - 1))])
    elif edit == "drop":
        del values[at]
    elif edit == "replace":
        values[at] = draw(st.integers(-2 * i - 1, 2 * i + 1))
    return GluingPattern.make(i, split_polygons(draw, values))


@st.composite
def swapped_patterns(draw):
    """A searched valid pattern with two of its entries exchanged."""
    pats = search_patterns(*draw(st.sampled_from(SEARCH_SIZES[:4])), 10**6)
    pat = draw(st.sampled_from(pats))
    slots = [(p, q) for p, poly in enumerate(pat.polygons)
             for q in range(len(poly))]
    (p1, q1), (p2, q2) = draw(st.lists(st.sampled_from(slots), min_size=2,
                                       max_size=2, unique=True))
    polygons = [list(poly) for poly in pat.polygons]
    polygons[p1][q1], polygons[p2][q2] = polygons[p2][q2], polygons[p1][q1]
    return GluingPattern.make(pat.i, polygons)


@st.composite
def renamed_patterns(draw):
    """A searched valid pattern with the arcs of each curve renumbered at
    random: the corners keep their shape but the arcs may no longer
    chain head to tail."""
    pat = draw(st.sampled_from(
        search_patterns(*draw(st.sampled_from(SEARCH_SIZES[:4])), 10**6)))
    i = pat.i
    first = draw(st.permutations(range(1, i + 1)))
    second = draw(st.permutations(range(i + 1, 2 * i + 1)))
    new = [0, *first, *second]
    return GluingPattern.make(
        i, [[new[v] if v > 0 else -new[-v] for v in poly] for poly in pat.polygons])


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(random_patterns(), swapped_patterns(), renamed_patterns()))
def test_validate_matches_the_slot_reference(pat):
    assert validate(pat) == slot_validate(pat)


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_validate_matches_the_slot_reference_on_searched_patterns(g, i):
    for pat in search_patterns(g, i, 10**6):
        assert validate(pat) == slot_validate(pat) == ValidationReport(True, ())


# ----------------------------------------------------------------------
# Reference: pattern validation before the cached tables
# ----------------------------------------------------------------------


# `_check` before it read its tables from a per-i cache and wrote each
# polygon in one pass, kept verbatim as its reference.
def reference_check(pat: GluingPattern) -> tuple[list[str], list[int]]:
    """Every failed pattern condition, in a fixed order, and the polygon
    of each directed-arc symbol once each signed arc id is used once."""
    if pat.i < 1:
        return ["arc count must be positive"], []
    if not pat.polygons:
        return ["no polygons"], []
    failures = [
        f"polygon {list(poly)} must have even length >= 2"
        for poly in pat.polygons
        if len(poly) < 2 or len(poly) % 2
    ]
    i = pat.i
    n = 4 * i
    values = [v for poly in pat.polygons for v in poly]
    # nothing is sized by i before the ids are known to number 4i
    if len(values) != n or len(set(values)) != n or not all(
        0 < abs(v) <= 2 * i for v in values
    ):
        failures.append("each signed arc id must occur exactly once")
        return failures, []

    # the edges as the symbols of `signed_ids`, whose negative ids wrap
    # to the top of `sym`: odd symbols are the first curve's arcs and
    # s + 2i is the inverse of s
    ids = signed_ids(i)
    sym = [0] * (n + 1)
    for s in range(1, n + 1):
        sym[ids[s]] = s
    iota = [0, *range(2 * i + 1, n + 1), *range(1, 2 * i + 1)]
    succ = [0] * (n + 1)
    polygon = [0] * (n + 1)
    position = [0] * (n + 1)
    for pi, poly in enumerate(pat.polygons):
        for qi, v in enumerate(poly):
            succ[sym[v]] = sym[poly[(qi + 1) % len(poly)]]
            polygon[sym[v]] = pi
            position[sym[v]] = qi
        if any(sym[v] % 2 == succ[sym[v]] % 2 for v in poly):
            failures.append(f"polygon {pi}: consecutive edges on one curve")

    _, orbits = table_orbits([iota[s] for s in succ], [sym[v] for v in values])
    for orbit in orbits:
        at = (polygon[orbit[0]], position[orbit[0]])
        if len(orbit) != 4:
            failures.append(f"corner orbit of size {len(orbit)} at {at}")
        elif orbit[0] % 2 == orbit[1] % 2 or orbit[1] % 2 == orbit[2] % 2:
            failures.append(f"crossing at {at} is not transverse")
    if len(orbits) != i and not failures:
        failures.append(f"{len(orbits)} crossings found, expected {i}")

    if not failures:
        # consecutive arcs of each curve chain head to tail: the filling
        # equation succ(iota(succ(s))) = tau(s) on the forward arcs,
        # where tau steps s to s + 2 along its curve
        for a in range(1, 2 * i + 1):
            s = sym[a]
            nxt = s + 2 if s + 2 <= 2 * i else s + 2 - 2 * i
            if succ[iota[succ[s]]] != nxt:
                failures.append(f"arc {a} does not continue into arc {ids[nxt]}")

    # connectivity of polygons through arc pairings
    if not failures and len(pat.polygons) > 1:
        reached: set[int] = set()
        grown = {0}
        while len(grown) > len(reached):
            reached = grown
            grown = reached | {
                polygon[iota[s]] for s in range(1, n + 1) if polygon[s] in reached
            }
        if len(reached) != len(pat.polygons):
            failures.append("glued complex is disconnected")

    return failures, polygon


def leaf_patterns(g, i):
    """The pattern of every `search_leaves` diagram at one search size."""
    return [faces_pattern(i, table_orbits(nxt, range(1, 4 * i + 1))[1])
            for _, _, nxt in search_leaves(i, i - 2 * g + 2)]


FAILURE_KINDS = (
    "arc count must be positive", "no polygons", "must have even length",
    "each signed arc id", "consecutive edges on one curve",
    "corner orbit of size", "is not transverse", "crossings found",
    "does not continue into", "disconnected")


def assert_check_matches_the_reference(pats):
    """_check gives the reference's failures, in order, and polygon table;
    the kinds of failure met."""
    kinds = set()
    for pat in pats:
        failures, polygon = _check(pat)
        assert (failures, polygon) == reference_check(pat), pat
        kinds.update(k for f in failures for k in FAILURE_KINDS if k in f)
    return kinds


@pytest.mark.parametrize("g", [1, 3, 4])
def test_check_matches_the_reference_on_one_polygon_patterns(
        g, g1_solutions, g3_solutions, g4_solutions):
    sols = {1: g1_solutions, 3: g3_solutions, 4: g4_solutions}[g]
    sample = random.Random(1310 + g).sample(sols, min(len(sols), 400))
    assert assert_check_matches_the_reference(
        from_filling(fp) for fp in sample) == set()


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_check_matches_the_reference_on_every_leaf(g, i):
    pats = leaf_patterns(g, i)
    assert pats
    assert assert_check_matches_the_reference(pats) == set()


def mutated(pat, rng):
    """pat under one random edit: entries swapped, an arc reversed or
    moved to the other curve, the polygons rotated and shuffled, a
    polygon split or two merged, an id duplicated or out of range, an
    entry moved to another polygon, or the arcs renumbered."""
    i = pat.i
    polygons = [list(poly) for poly in pat.polygons]
    slots = [(p, q) for p, poly in enumerate(polygons) for q in range(len(poly))]
    (p1, q1), (p2, q2) = rng.sample(slots, 2)
    v = polygons[p1][q1]
    where = {polygons[p][q]: (p, q) for p, q in slots}
    edit = rng.choice(["swap", "reverse", "other curve", "shuffle", "split",
                       "merge", "duplicate", "out of range", "move", "renumber"])
    if edit == "swap":
        polygons[p1][q1], polygons[p2][q2] = polygons[p2][q2], v
    elif edit in ("reverse", "other curve"):
        other = abs(v) + i if abs(v) <= i else abs(v) - i
        w = -v if edit == "reverse" else other if v > 0 else -other
        p3, q3 = where[w]
        polygons[p1][q1], polygons[p3][q3] = w, v
    elif edit == "shuffle":
        polygons = [poly[r:] + poly[:r] for poly in polygons
                    for r in [rng.randrange(len(poly))]]
        rng.shuffle(polygons)
    elif edit == "split":
        poly = polygons.pop(p1)
        polygons += [poly[:q1 + 1], poly[q1 + 1:]]
    elif edit == "merge" and len(polygons) > 1:
        polygons[0] += polygons.pop()
    elif edit == "duplicate":
        polygons[p1][q1] = polygons[p2][q2]
    elif edit == "out of range":
        polygons[p1][q1] = rng.choice([0, 2 * i + 1, -2 * i - 1])
    elif edit == "move":
        polygons[p1].pop(q1)
        if p1 == p2 or rng.random() < 0.5:
            polygons.append([v])
        else:
            polygons[p2].insert(q2, v)
    elif edit == "renumber":
        first = rng.sample(range(1, i + 1), i)
        second = rng.sample(range(i + 1, 2 * i + 1), i)
        new = [0, *first, *second]
        polygons = [[new[w] if w > 0 else -new[-w] for w in poly]
                    for poly in polygons]
    return GluingPattern.make(i, polygons)


def test_check_matches_the_reference_on_mutations(g3_solutions):
    rng = random.Random(1313)
    valid = [pat for g, i in SEARCH_SIZES if i > 1 for pat in leaf_patterns(g, i)]
    valid += [from_filling(fp) for fp in g3_solutions]
    pats = [mutated(rng.choice(valid), rng) for _ in range(3000)]
    # two squares glued apart, a four-corner orbit on one curve, the arc
    # count and polygon list checks, and an arc count no table can hold
    pats += [GluingPattern.make(2, [[1, 3, -1, -3], [2, 4, -2, -4]]),
             GluingPattern.make(2, [[3, -1, 4, -4], [-2], [2, -3, 1]]),
             GluingPattern.make(0, [[1, -1]]), GluingPattern.make(2, []),
             GluingPattern.make(10**12, [[1, 2, -1, -2]])]
    # a wrong crossing count is reported only when every corner orbit has
    # four corners, and then the 4i corners make i crossings; no input
    # here that chains head to tail is disconnected
    assert assert_check_matches_the_reference(pats) == set(FAILURE_KINDS) - {
        "crossings found", "disconnected"}


# ----------------------------------------------------------------------
# Cut patterns: the polygon table from_filling and _cut attach
# ----------------------------------------------------------------------


def assert_cut_needs_no_check(pat):
    """`_check` finds no failure in a cut pattern and returns the
    polygon table the pattern carries."""
    assert _check(pat) == ([], pat._polygon), pat


def every_diagram(m):
    """Every diagram with m crossings, m! 2^m of them."""
    for beta_seq, signs in product(permutations(range(1, m + 1)),
                                   product((-1, 1), repeat=m)):
        yield PairDiagram(m, beta_seq, signs)


@pytest.mark.parametrize("g", [1, 3, 4])
def test_one_polygon_cut_carries_the_checked_table(
        g, g1_solutions, g3_solutions, g4_solutions):
    sols = {1: g1_solutions, 3: g3_solutions, 4: g4_solutions}[g]
    for fp in sols:
        assert_cut_needs_no_check(from_filling(fp))


def test_diagram_cut_carries_the_checked_table():
    count = 0
    for m in range(1, 6):
        for d in every_diagram(m):
            assert_cut_needs_no_check(pattern_of_diagram(d))
            count += 1
    assert count == 4282


@pytest.mark.parametrize("g, i", SEARCH_SIZES)
def test_searched_patterns_carry_the_checked_table(g, i, monkeypatch):
    pats = search_patterns(g, i, 10**6)
    for pat in pats:
        assert_cut_needs_no_check(pat)
    calls = []
    check = gluing._check
    monkeypatch.setattr(gluing, "_check", lambda pat: calls.append(pat) or check(pat))
    answers = [(t1(pat), euler_genus(pat)) for pat in pats]
    assert calls == []
    assert {genus for _, genus in answers} == {g}


@st.composite
def attachment_sequences(draw):
    """An attachment sequence of odd genus up to 21, where n = 164."""
    g = draw(st.sampled_from(range(3, 22, 2)))
    entries = []
    for i in range(1, (g - 1) // 2 + 1):
        low = entries[-1] + 1 if entries else 1
        entries.append(draw(st.integers(low, 4 * i - 3)))
    return LSequence(g, tuple(entries))


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 599), st.integers(1, 5), attachment_sequences())
def test_spliced_and_built_cuts_carry_the_checked_table(
        g3_solutions, template, index, k, seq):
    spliced = splice(g3_solutions[index], k, template)
    built = build_from_sequence(seq, template)
    for fp in (spliced, built):
        assert_cut_needs_no_check(pattern_of_diagram(diagram_of(fp)))
        assert_cut_needs_no_check(from_filling(fp))


def genus_or_error(pat):
    try:
        return euler_genus(pat)
    except ValueError as exc:
        return str(exc)


def test_cut_patterns_skip_the_check_and_equal_their_copies(
        g3_solutions, monkeypatch):
    cut = [from_filling(fp) for fp in g3_solutions[:50]]
    cut += [pattern_of_diagram(d) for m in range(1, 5) for d in every_diagram(m)]
    calls = []
    check = gluing._check
    monkeypatch.setattr(gluing, "_check", lambda pat: calls.append(pat) or check(pat))
    answers = [(t1(pat), genus_or_error(pat)) for pat in cut]
    assert calls == []
    assert answers[:50] == [(10, 3)] * 50
    # a pattern built by make carries no table, so each call checks it once
    copies = [GluingPattern.make(pat.i, pat.polygons) for pat in cut]
    assert [(t1(c), genus_or_error(c)) for c in copies] == answers
    assert len(calls) == 2 * len(copies)
    for pat, copy in zip(cut, copies):
        assert copy._polygon is None
        assert (copy, hash(copy), repr(copy)) == (pat, hash(pat), repr(pat))
