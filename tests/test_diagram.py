import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillperm import diagram
from fillperm.diagram import PairDiagram, crossing_steps, diagram_of
from fillperm.filling import FillingPermutation, GenusContext, corner_orbits, genus_context
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


def test_diagram_of_keeps_what_it_reads(g3_solutions, monkeypatch):
    listed = g3_solutions[0]
    # a fresh pair: the session's listed pairs may have been read before
    fp = FillingPermutation(listed.ctx, listed.perm)
    reads = []
    walk_back = PairDiagram._next_arc

    def counted(d):
        reads.append(d)
        return walk_back(d)

    # the first read checks that its diagram walks back to fp; the
    # second hands back the diagram the first one kept
    monkeypatch.setattr(PairDiagram, "_next_arc", counted)
    d = diagram_of(fp)
    assert diagram_of(fp) is d
    assert len(reads) == 1
    # the kept diagram's successor table is the pair's own, not a copy
    assert d._succ is fp.perm.padded
    plain = FillingPermutation(fp.ctx, fp.perm)
    assert fp == plain
    assert hash(fp) == hash(plain)
    assert repr(fp) == repr(plain)
    # a permutation that fails the round trip raises and keeps nothing
    images = list(listed.perm.images)
    images[0], images[2] = images[2], images[0]
    fake = unvalidated(3, images)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a transverse 4-valent pair"):
            diagram_of(fake)
    assert len(reads) == 3
    assert vars(fake).keys() == {"ctx", "perm"}


def test_a_made_pair_is_the_checked_pair_of_its_images(g1_solutions, g3_solutions,
                                                       g4_solutions):
    # to_filling_permutation takes its context from the per-genus cache
    pairs = [*g1_solutions, *g3_solutions[::7], *g4_solutions[::997]]
    for listed in pairs:
        d = diagram_of(FillingPermutation(listed.ctx, listed.perm))
        made = d.to_filling_permutation()
        g = (d.m + 1) // 2
        checked = FillingPermutation(GenusContext(g), Permutation(list(made.perm.images)))
        assert made == checked and hash(made) == hash(checked)
        assert repr(made) == repr(checked) and str(made) == str(checked)
        assert made.ctx == GenusContext(g) and made.ctx is genus_context(g)
        assert (made.ctx.n, made.ctx.i_min) == (8 * g - 4, 2 * g - 1)


def test_a_diagram_builds_its_successor_table_once(g4_solutions, monkeypatch):
    turns = diagram._quarter_turns
    builds = []

    def counted(succ, m, first, ends, signs):
        builds.append((len(succ), m, first, len(ends)))
        return turns(succ, m, first, ends, signs)

    monkeypatch.setattr(diagram, "_quarter_turns", counted)
    fp = g4_solutions[4321]
    d = diagram_of(fp)
    assert d.to_filling_permutation() == fp
    assert len(d.faces()) == 1 and d.is_filling_pair()
    # one table build, which writes all of its crossings in one call
    assert builds == [(4 * 7 + 1, 7, 1, 7)] and d.m == 7


@pytest.mark.parametrize("m, beta_seq, signs", [
    (1, (1.0,), (1,)), (1, (True,), (1,)), (1, (1,), (True,)),
    (1, (1,), (1.0,)), (1.0, (1,), (1,)), (True, (1,), (1,)),
    (3, (1, 2, 3.0), (1, -1, 1))])
def test_diagram_rejects_entries_that_are_not_ints(m, beta_seq, signs):
    # a float label would fail only inside the successor table, and a
    # True sign would equal the +1 diagram
    with pytest.raises(ValueError, match="must be ints"):
        PairDiagram(m, beta_seq, signs)


@pytest.mark.parametrize("beta_seq, signs", [
    ([1], (1,)), ((1,), [1]), ([1], [1]), (range(1, 2), (1,))])
def test_diagram_rejects_sequences_that_are_not_tuples(beta_seq, signs):
    # a list would construct a diagram that no hash can take
    with pytest.raises(ValueError, match="must be tuples"):
        PairDiagram(1, beta_seq, signs)


# `PairDiagram.__post_init__` before its checks became set operations,
# kept verbatim as their reference.
def reference_post_init(self):
    # a list would construct, but leave the diagram unhashable
    if not (isinstance(self.beta_seq, tuple) and isinstance(self.signs, tuple)):
        raise ValueError("beta_seq and signs must be tuples")
    # type(), not isinstance(): bool is an int subclass
    if type(self.m) is not int or any(
            type(v) is not int for v in (*self.beta_seq, *self.signs)):
        raise ValueError("m, beta_seq and signs must be ints")
    if self.m < 1:
        raise ValueError("diagram needs at least one crossing")
    if sorted(self.beta_seq) != list(range(1, self.m + 1)):
        raise ValueError("beta_seq must visit each point exactly once")
    if len(self.signs) != self.m or any(s not in (-1, 1) for s in self.signs):
        raise ValueError("signs must be +1/-1 per point")
    # The face-walk successor table, built once.  Not a field: it
    # takes no part in ==, hash or repr.
    object.__setattr__(self, "_succ", tuple(self._next_arc()))


class ReferenceDiagram(PairDiagram):
    __post_init__ = reference_post_init


def construction(cls, m, beta_seq, signs):
    """The fields and table of cls(m, beta_seq, signs), or the type and
    text of what it raised."""
    try:
        d = cls(m, beta_seq, signs)
    except Exception as exc:
        return type(exc), str(exc)
    return d.m, d.beta_seq, d.signs, d._succ


def test_diagram_checks_match_the_reference():
    cases = [
        # the rejections tested above
        (1, [1], (1,)), (1, (1,), [1]), (1, [1], [1]), (1, range(1, 2), (1,)),
        (1, (1.0,), (1,)), (1, (True,), (1,)), (1, (1,), (True,)),
        (1, (1,), (1.0,)), (1.0, (1,), (1,)), (True, (1,), (1,)),
        (3, (1, 2, 3.0), (1, -1, 1)), (2, (1, 1), (1, 1)), (2, (1, 2), (1, 0)),
        # empty tuples, no crossing, and signs 0, 2 and True
        (0, (), ()), (1, (), ()), (1, (1,), ()), (1, (), (1,)), (0, (1,), (1,)),
        (-1, (), ()), (1, (1,), (0,)), (1, (1,), (2,)), (1, (1,), (True,)),
        (3, (1, 2, 3), (1, 0, -1)), (3, (1, 2, 3), (-1, 1, 2)),
        (3, (1, 2, 3), (1, True, -1)), (3, (2, 3, 1), (False, 1, 1)),
        # several faults at once: the first check to fail names one
        (1.0, [1], (0,)), (0, (1.0,), (2,)), (0, (5,), (2,)), (2, (1, 1), (0, 0)),
        (2, (1, 2), (1,)), (2, (1, 2), (1, 1, 1)), (2, (1, 3), (1, 1)),
    ]
    cases += [(d.m, d.beta_seq, d.signs) for m in range(1, 5) for d in all_diagrams(m)]
    rng = random.Random(2700)
    entries = [-1, 0, 1, 2, 3, 4, 1.0, True, False, "1", None]
    for _ in range(3000):
        m = rng.choice([-1, 0, 1, 2, 3, 3, 4, 4, True, 3.0])
        beta_seq = tuple(rng.choice(entries) if rng.random() < 0.1 else k
                         for k in rng.sample(range(1, 5), rng.randint(0, 4)))
        signs = tuple(rng.choice(entries) if rng.random() < 0.1 else rng.choice((-1, 1))
                      for _ in range(rng.randint(0, 4)))
        cases.append((m, beta_seq, signs))
    seen = set()
    for case in cases:
        got = construction(PairDiagram, *case)
        assert got == construction(ReferenceDiagram, *case), case
        seen.add(got[1] if isinstance(got[0], type) else "built")
    assert seen == {
        "built", "beta_seq and signs must be tuples",
        "m, beta_seq and signs must be ints", "diagram needs at least one crossing",
        "beta_seq must visit each point exactly once", "signs must be +1/-1 per point"}


def unvalidated(g, images):
    fake = object.__new__(FillingPermutation)
    object.__setattr__(fake, "ctx", GenusContext(g))
    object.__setattr__(fake, "perm", Permutation(images))
    return fake


def test_diagram_of_rejects_a_permutation_that_is_not_a_solution(g3_solutions):
    # two alpha images swapped: a visit order whose diagram does not
    # walk back to the permutation
    for j in range(0, 18, 2):
        images = list(g3_solutions[0].perm.images)
        images[j], images[j + 2] = images[j + 2], images[j]
        with pytest.raises(ValueError, match="not a transverse 4-valent pair"):
            diagram_of(unvalidated(3, images))
    # alpha images that end some beta arc twice: no visit order
    bad = unvalidated(2, [12, 1, 2, 9, 8, 6, 11, 5, 3, 4, 10, 7])
    with pytest.raises(ValueError, match="beta_seq"):
        diagram_of(bad)
    # an odd alpha image, s(1) = 2m + 1 = 11, reads as beta arc 0
    images = list(g3_solutions[0].perm.images)
    k = images.index(11)
    images[0], images[k] = images[k], images[0]
    with pytest.raises(ValueError,
                       match="^beta_seq must visit each point exactly once$"):
        diagram_of(unvalidated(3, images))


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


# The dart model that the corner-map `PairDiagram._next_arc` and
# `diagram_of` replaced, kept verbatim as their reference.

# Dart slots at each point: the germ of the incoming/outgoing strand of
# either curve.
AI, AO, BI, BO = 0, 1, 2, 3


def reference_rotation(d: PairDiagram) -> list[int]:
    """rho[dart] = next dart around the same point (fixed direction)."""
    rho = [0] * (4 * d.m)
    for p in range(1, d.m + 1):
        base = 4 * (p - 1)
        if d.signs[p - 1] > 0:
            order = (AI, BI, AO, BO)
        else:
            order = (AI, BO, AO, BI)
        for a, b in zip(order, order[1:] + order[:1]):
            rho[base + a] = base + b
    return rho


def reference_arcs(d: PairDiagram):
    """Head and tail dart of each directed arc, padded at index 0.

    Arcs are indexed by their filling symbols: 2k-1 is alpha arc k,
    2k is beta arc k and s+2m is the inverse of s.
    """
    m = d.m
    bseq = d.beta_seq
    head = [0] * (4 * m + 1)
    tail = [0] * (4 * m + 1)
    for k in range(1, m + 1):
        # alpha arc k ends at point k; beta arc k ends at bseq[k-1]
        prev = k - 1 if k > 1 else m
        for s, h, t in (
            (2 * k - 1, 4 * (k - 1) + AI, 4 * (prev - 1) + AO),
            (2 * k, 4 * (bseq[k - 1] - 1) + BI, 4 * (bseq[k - 2] - 1) + BO),
        ):
            head[s] = tail[s + 2 * m] = h
            tail[s] = head[s + 2 * m] = t
    return head, tail


def reference_next_arc(d: PairDiagram) -> list[int]:
    """The face-walk successor on directed arc symbols, padded at 0."""
    head, tail = reference_arcs(d)
    rho = reference_rotation(d)
    n = 4 * d.m
    leaving = [0] * n
    for s in range(1, n + 1):
        leaving[tail[s]] = s
    return [0] + [leaving[rho[head[s]]] for s in range(1, n + 1)]


def reference_diagram_of(fp: FillingPermutation) -> PairDiagram:
    """Extract the crossing diagram of a filling permutation.

    Points are labelled along the first curve; the rotation at each point
    is read off the quarter-turn corner map of the glued polygon.
    """
    ctx = fp.ctx
    m = ctx.i_min
    cls, orbit_lists = corner_orbits(fp.perm.padded, fp.boundary_word())
    if len(orbit_lists) != m or any(len(o) != 4 for o in orbit_lists):
        raise ValueError("corner structure is not 4-valent")

    # label classes along alpha: terminal of alpha arc k gets label k
    label_of_class = [0] * m
    for k in range(1, m + 1):
        if label_of_class[cls[2 * k - 1]]:
            raise ValueError("first curve revisits a crossing")
        label_of_class[cls[2 * k - 1]] = k

    beta_seq = tuple(label_of_class[cls[2 * j]] for j in range(1, m + 1))

    # classify each corner's incoming arc into a dart slot: odd symbols
    # lie on the first curve, symbols above 4g-2 are inverse arcs
    half = 4 * ctx.g - 2

    def slot_of(sym: int) -> int:
        return (BI if sym % 2 == 0 else AI) + (sym > half)

    signs = [0] * m
    for label, orbit in zip(label_of_class, orbit_lists):
        slots = [slot_of(s) for s in orbit]
        if slots.count(AI) != 1:
            raise ValueError("crossing is not transverse")
        at = slots.index(AI)
        ring = slots[at:] + slots[:at]
        if ring == [AI, BI, AO, BO]:
            signs[label - 1] = 1
        elif ring == [AI, BO, AO, BI]:
            signs[label - 1] = -1
        else:
            raise ValueError("crossing is not transverse")
    return PairDiagram(m, beta_seq, tuple(signs))


def all_diagrams(m, anchored=False):
    """Every diagram with m points; with the second curve's first arc
    ending at point 1 if anchored."""
    if anchored:
        orders = ((1, *rest) for rest in permutations(range(2, m + 1)))
    else:
        orders = permutations(range(1, m + 1))
    for order, signs in product(orders, product((-1, 1), repeat=m)):
        yield PairDiagram(m, order, signs)


def test_next_arc_matches_the_reference_dart_model():
    count = 0
    for d in [d for m in range(1, 6) for d in all_diagrams(m)]:
        assert d._next_arc() == reference_next_arc(d)
        count += 1
    assert count == 2 + 8 + 48 + 384 + 3840
    anchored = list(all_diagrams(6, anchored=True))
    assert len(anchored) == 7680
    for d in anchored:
        assert d._next_arc() == reference_next_arc(d)


def test_diagram_of_matches_the_reference(g3_solutions, g4_solutions):
    assert len(g3_solutions) == 600
    for fp in [*g3_solutions, *g4_solutions[::8]]:
        assert diagram_of(fp) == reference_diagram_of(fp)


def test_is_filling_pair_walks_one_face_to_the_face_count_answer():
    diagrams = [d for m in range(1, 6) for d in all_diagrams(m)]
    diagrams += all_diagrams(6, anchored=True)
    filling = 0
    for d in diagrams:
        expected = d.m % 2 == 1 and d.face_count() == 1
        assert d.is_filling_pair() == expected
        filling += expected
    assert filling


# The tuple-returning `crossing_steps` that `_quarter_turns` replaced,
# kept verbatim as its reference.
def reference_crossing_steps(m: int, j: int, p: int, sign: int
                             ) -> tuple[tuple[int, int], ...]:
    half = 2 * m
    a, b = 2 * p - 1, 2 * j
    a2, b2 = 2 * (p % m) + 1, 2 * (j % m) + 2
    if sign > 0:
        return (a, b + half), (b, a2), (a2 + half, b2), (b2 + half, a + half)
    return (a, b2), (b2 + half, a2), (a2 + half, b + half), (b, a + half)


def test_crossing_steps_match_the_reference():
    # the pattern search writes these steps in this order
    cases = [(m, j, p, sign) for m in range(1, 10) for j in range(1, m + 1)
             for p in range(1, m + 1) for sign in (-1, 1)]
    assert len(cases) == 570
    for case in cases:
        assert crossing_steps(*case) == reference_crossing_steps(*case)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 41).flatmap(lambda m: st.tuples(
    st.permutations(range(1, m + 1)),
    st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m))))
def test_kernels_match_the_references_up_to_41_crossings(case):
    beta_seq, signs = case
    d = PairDiagram(len(beta_seq), tuple(beta_seq), tuple(signs))
    assert d._next_arc() == reference_next_arc(d)
    assert d.is_filling_pair() == (d.m % 2 == 1 and d.face_count() == 1)
