import random
from itertools import permutations
from operator import itemgetter

import pytest

from fillperm.perms import (
    ParseError,
    Permutation,
    PermutationError,
    closure,
    format_perm,
    from_cycles,
    identity,
    parse,
)
from fillperm.filling import relabeling_generators, relabeling_group
from conftest import is_n_cycle


def cycle_type(p):
    """Cycle lengths of p, longest first."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


def rand_perm(rng, n):
    imgs = list(range(1, n + 1))
    rng.shuffle(imgs)
    return Permutation(imgs)


def test_construction_rejects_non_bijections():
    with pytest.raises(PermutationError):
        Permutation([1, 1, 3])
    with pytest.raises(PermutationError):
        Permutation([0, 1])
    with pytest.raises(PermutationError):
        Permutation([])
    with pytest.raises(PermutationError):
        Permutation([True])
    with pytest.raises(PermutationError):
        Permutation([2, True])


def test_compose_identity_and_inverse():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 40)
        p = rand_perm(rng, n)
        assert identity(n).compose(p) == p
        assert p.compose(identity(n)) == p
        assert p.compose(p.inverse()) == identity(n)
        assert p.inverse().compose(p) == identity(n)


def test_compose_applies_right_operand_first():
    p = from_cycles([(1, 2, 3, 4)], 4)
    assert p.compose(p) == from_cycles([(1, 3), (2, 4)], 4)
    q = Permutation([2, 1, 3])
    r = Permutation([1, 3, 2])
    # (q o r)(2) = q(r(2)) = q(3) = 3
    assert q.compose(r)(2) == 3


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation([2, 1]).compose(Permutation([1, 2, 3]))


def test_inverse_examples():
    assert identity(5).inverse() == identity(5)
    assert from_cycles([(1, 2, 3, 4)], 4).inverse() == from_cycles([(1, 4, 3, 2)], 4)
    invol = from_cycles([(1, 3), (2, 4)], 4)
    assert invol.inverse() == invol


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 64)
        p, q, r = (rand_perm(rng, n) for _ in range(3))
        assert p.compose(q).compose(r) == p.compose(q.compose(r))


def test_power():
    Q4 = from_cycles([(1, 2, 3, 4)], 4)
    assert Q4.power(2) == from_cycles([(1, 3), (2, 4)], 4)
    assert Q4.power(0) == identity(4)
    assert Q4.power(-1) == Q4.inverse()
    Q12 = from_cycles([list(range(1, 13))], 12)
    assert Q12.power(6) == from_cycles(
        [(1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)], 12
    )


def test_power_order_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_perm(rng, rng.randint(1, 30))
        assert p.power(p.order()) == identity(p.n)
        assert p.power(-2) == p.inverse().compose(p.inverse())


def test_cycles():
    assert identity(3).cycles() == [(1,), (2,), (3,)]
    assert from_cycles([(1, 2, 3, 4)], 4).cycles() == [(1, 2, 3, 4)]
    p = from_cycles([(2, 5), (3, 4)], 6)
    assert p.cycles() == [(1,), (2, 5), (3, 4), (6,)]
    rng = random.Random(5)
    for _ in range(20):
        p = rand_perm(rng, rng.randint(1, 50))
        cycles = p.cycles()
        assert sum(len(c) for c in cycles) == p.n
        assert sorted(v for c in cycles for v in c) == list(range(1, p.n + 1))
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


def test_is_n_cycle():
    assert is_n_cycle(from_cycles([(1, 2, 3, 4)], 4))
    assert not is_n_cycle(from_cycles([(1, 3), (2, 4)], 4))
    assert is_n_cycle(identity(1))
    assert not is_n_cycle(identity(2))


def test_is_parity_respecting():
    assert from_cycles([(1, 2, 3, 4)], 4).is_parity_respecting()
    assert not Permutation([2, 3, 1, 4]).is_parity_respecting()
    assert identity(6).is_parity_respecting()
    with pytest.raises(ValueError, match="parity undefined"):
        identity(3).is_parity_respecting()


def test_conjugate():
    rng = random.Random(13)
    p = from_cycles([(1, 2)], 3)
    assert p.conjugate_by(identity(3)) == p
    assert p.conjugate_by(from_cycles([(1, 3)], 3)) == from_cycles([(2, 3)], 3)
    for _ in range(25):
        n = rng.randint(1, 40)
        p, h = rand_perm(rng, n), rand_perm(rng, n)
        c = p.conjugate_by(h)
        assert c == h.compose(p).compose(h.inverse())
        assert cycle_type(c) == cycle_type(p)


def test_parse_image_list():
    assert parse("[2,3,4,1]") == from_cycles([(1, 2, 3, 4)], 4)
    assert parse(" [ 1 , 2 ] ") == identity(2)
    with pytest.raises(PermutationError, match="not a permutation"):
        parse("[1,1,3]")


def test_parse_cycle_form():
    assert parse("(1 3)(2 4)") == from_cycles([(1, 3), (2, 4)], 4)
    assert parse("(1,3)(2,4) n=4") == from_cycles([(1, 3), (2, 4)], 4)
    assert parse("(1 3) n=5") == from_cycles([(1, 3)], 5)
    assert parse("() n=3") == identity(3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("(1 3")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("[2,3,x]")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(1 \u00b2)")  # a digit that int() rejects


def test_format_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = rand_perm(rng, rng.randint(1, 20))
        text = format_perm(p)
        assert parse(text) == p
        assert format_perm(parse(text)) == text


def test_ordering_is_lexicographic_on_images():
    a = Permutation([1, 2, 3])
    b = Permutation([1, 3, 2])
    assert a < b
    assert min([b, a]) == a


@pytest.mark.parametrize("other", [None, 5, (2, 1), [2, 1]])
def test_ordering_against_a_non_permutation_raises_type_error(other):
    p = Permutation([2, 1])
    for compare in (lambda: p < other, lambda: p <= other,
                    lambda: other < p, lambda: other <= p,
                    lambda: p > other, lambda: p >= other):
        with pytest.raises(TypeError):
            compare()
    # equality stays defined: a permutation equals no other type
    assert p != other


def test_sorting_permutations_is_unchanged():
    perms = [Permutation(list(q)) for q in permutations([1, 2, 3, 4])]
    shuffled = perms[:]
    random.Random(30).shuffle(shuffled)
    assert sorted(shuffled) == perms
    assert sorted(shuffled, reverse=True) == perms[::-1]
    assert max(shuffled) == perms[-1] and min(shuffled) == perms[0]
    p, q = perms[0], perms[1]
    assert p < q and p <= q and p <= p and not q < p and q > p and q >= p


def test_closure_small_group():
    gens = [from_cycles([(1, 2)], 3), from_cycles([(1, 2, 3)], 3)]
    assert len(closure(gens)) == 6


def test_closure_is_sorted_and_rejects_bad_generators():
    gens = [from_cycles([(1, 2, 3, 4)], 4), from_cycles([(1, 3)], 4)]
    group = closure(gens)
    assert len(group) == 8 and group == sorted(set(group))
    assert group[0] == identity(4)
    with pytest.raises(ValueError, match="closure of empty set"):
        closure([])
    with pytest.raises(ValueError, match="degree mismatch"):
        closure([identity(2), identity(3)])


def test_closure_refuses_what_its_byte_strings_cannot_hold():
    with pytest.raises(ValueError, match="^closure of empty set$"):
        closure([])
    with pytest.raises(ValueError, match="^degree mismatch$"):
        closure([identity(2), identity(3)])
    # one line naming the limit, raised before any byte string is built
    with pytest.raises(ValueError, match=r"^closure of degree 256: .* up to 255$"):
        closure([from_cycles([range(1, 257)], 256)])
    assert len(closure([from_cycles([range(1, 256)], 255)])) == 255


def tuple_closure(generators):
    """The closure's earlier breadth-first search, on padded tuples with
    a o b composed as itemgetter(*b)(a): the oracle for the byte-string
    search."""
    gens = [g.padded for g in generators]
    rights = [itemgetter(*b) for b in gens]
    group = set(gens)
    frontier = gens
    while frontier:
        nxt = []
        for a in frontier:
            for right in rights:
                c = right(a)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return [Permutation(c[1:]) for c in sorted(group)]


def test_closure_matches_the_tuple_search():
    for i in range(1, 13):
        gens = relabeling_generators(i)
        group = closure(gens)
        assert group == tuple_closure(gens)
        assert list(relabeling_group(i)) == group and len(group) == 8 * i * i
        kappa, delta, _, _ = gens
        assert closure([kappa, delta]) == tuple_closure([kappa, delta])
    # a mixed set: a transposition, a 3-cycle on other symbols and a
    # fixed-point-free involution, of degree 9
    mixed = [from_cycles([(1, 2)], 9), from_cycles([(4, 6, 9)], 9),
             from_cycles([(1, 9), (2, 8), (3, 7), (4, 6)], 9)]
    group = closure(mixed)
    assert group == tuple_closure(mixed) and len(group) > 100


def map_closure(generators):
    """The closure's breadth-first search, composing a o b as
    tuple(map(a.__getitem__, b)): the oracle for its getter products."""
    gens = [g.padded for g in generators]
    group = set(gens)
    frontier = gens
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = tuple(map(a.__getitem__, b))
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return [Permutation(c[1:]) for c in sorted(group)]


def test_closure_matches_the_map_composition():
    for i in range(1, 9):
        gens = relabeling_generators(i)
        assert closure(gens) == map_closure(gens)
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        gens = [rand_perm(rng, n) for _ in range(rng.randint(1, 3))]
        group = closure(gens)
        assert group == map_closure(gens)
        assert all(type(p) is Permutation and len(p.padded) == n + 1 for p in group)


def test_the_unchecked_closure_equals_the_checked_one():
    # closure builds its elements without the per-symbol checks
    # (Permutation._unchecked): each must equal the checked Permutation
    # of its images, and the group the one that checked compositions reach
    for i in range(1, 9):
        gens = relabeling_generators(i)
        group = closure(gens)
        assert group == [Permutation(list(p.images)) for p in group]
        reached, frontier = set(gens), list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for b in gens:
                    c = a.compose(b)
                    if c not in reached:
                        reached.add(c)
                        nxt.append(c)
            frontier = nxt
        assert set(group) == reached and len(group) == 8 * i * i
