from itertools import permutations, product

import pytest

from fillperm import diagram
from fillperm.diagram import PairDiagram, diagram_of
from fillperm.filling import FillingPermutation, GenusContext, corner_orbits
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


def test_diagram_of_writes_nothing_back(g3_solutions, monkeypatch):
    fp = g3_solutions[0]
    reads = []
    walk_back = PairDiagram._next_arc

    def counted(d):
        reads.append(d)
        return walk_back(d)

    # every fresh read checks that its diagram walks back to fp
    monkeypatch.setattr(PairDiagram, "_next_arc", counted)
    assert diagram_of(fp) == diagram_of(fp)
    assert len(reads) == 2
    assert vars(fp) == {"ctx": fp.ctx, "perm": fp.perm}


def test_a_diagram_builds_its_successor_table_once(g4_solutions, monkeypatch):
    steps = diagram.crossing_steps
    calls = []

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(diagram, "crossing_steps", counted)
    fp = g4_solutions[4321]
    d = diagram_of(fp)
    assert d.to_filling_permutation() == fp
    assert len(d.faces()) == 1 and d.is_filling_pair()
    assert len(calls) == d.m == 7  # one per crossing, for the one table


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
