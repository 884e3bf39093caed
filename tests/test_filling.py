import dataclasses
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillperm.filling import (
    FillingPermutation,
    GenusContext,
    ReconstructionError,
    SurfaceReport,
    _check_twisting_generators,
    arc_tables,
    canonical_perms,
    corner_orbits,
    genus_context,
    is_filling,
    reconstruct,
    relabeling_generators,
    relabeling_group,
    signed_ids,
    twisting_closure,
)
from fillperm.diagram import diagram_of
from fillperm.enumeration import canonical_class_rep
from fillperm.perms import Permutation, closure, from_cycles, identity
from conftest import is_n_cycle
from test_diagram import reference_diagram_of, unvalidated


# The curve reversals as relabellings, oracles of the twisting tests.
def alpha_reversal(ctx: GenusContext) -> Permutation:
    """Relabelling induced by reversing the first curve's direction.

    This is the form that commutes with tau and hence maps solutions of
    the filling equation to solutions; the index-preserving eta does not
    for g >= 2.
    """
    return relabeling_generators(ctx.i_min)[2]


def beta_reversal(ctx: GenusContext) -> Permutation:
    """Relabelling induced by reversing the second curve's direction."""
    _, _, rho, mu = relabeling_generators(ctx.i_min)
    return rho.conjugate_by(mu)


def test_context_derived_fields():
    ctx = GenusContext(3)
    assert ctx.n == 20
    assert ctx.i_min == 5
    with pytest.raises(ValueError):
        GenusContext(0)


@pytest.mark.parametrize("g", [1.5, 3.0, True, "3", None])
def test_context_rejects_a_genus_that_is_not_an_int(g):
    # 1.5 would give n = 8.0, and True would pass for genus 1
    with pytest.raises(ValueError, match="genus must be an int"):
        GenusContext(g)
    # the per-genus cache keys by type too, so it builds and rejects
    with pytest.raises(ValueError, match="genus must be an int"):
        genus_context(g)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 9])
def test_context_value_is_the_genus_alone(g):
    ctx = GenusContext(g)
    assert (ctx.n, ctx.i_min) == (8 * g - 4, 2 * g - 1)
    # n and i_min are stored, not fields
    assert tuple(f.name for f in dataclasses.fields(ctx)) == ("g",)
    assert repr(ctx) == f"GenusContext(g={g})"
    other = GenusContext(g)
    assert other is not ctx and other == ctx and hash(other) == hash(ctx)
    assert ctx != GenusContext(g + 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.n = 0
    cached = genus_context(g)
    assert cached is genus_context(g)
    assert cached == ctx and hash(cached) == hash(ctx) and repr(cached) == repr(ctx)
    assert (cached.n, cached.i_min) == (ctx.n, ctx.i_min)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_context_round_trips_through_pickle(protocol):
    # the pool tasks of a genus >= 5 count pickle their context
    for g in (1, 4, 5):
        ctx = genus_context(g)
        back = pickle.loads(pickle.dumps(ctx, protocol))
        assert back == ctx and hash(back) == hash(ctx) and repr(back) == repr(ctx)
        assert (back.n, back.i_min) == (8 * g - 4, 2 * g - 1)
        assert canonical_perms(back) is canonical_perms(ctx)


def test_canonical_perms_g1():
    cp = canonical_perms(GenusContext(1))
    assert cp.tau == identity(4)
    assert cp.iota == from_cycles([(1, 3), (2, 4)], 4)
    assert cp.kappa == identity(4)
    assert cp.delta == identity(4)
    assert cp.eta == from_cycles([(1, 3)], 4)
    assert cp.mu == from_cycles([(1, 2), (3, 4)], 4)


def test_canonical_perms_g2_iota():
    cp = canonical_perms(GenusContext(2))
    assert cp.iota == from_cycles(
        [(1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)], 12
    )
    assert cp.iota == cp.Q.power(6)


def test_canonical_perms_g3_kappa():
    cp = canonical_perms(GenusContext(3))
    assert cp.kappa == from_cycles([(1, 3, 5, 7, 9), (11, 13, 15, 17, 19)], 20)


def test_tau_structure():
    # tau advances forward arcs and retreats on the inverse labels
    cp = canonical_perms(GenusContext(2))
    assert cp.tau == from_cycles([(1, 3, 5), (2, 4, 6), (11, 9, 7), (12, 10, 8)], 12)
    assert canonical_perms(GenusContext(1)).tau.cycles() == [(1,), (2,), (3,), (4,)]
    assert canonical_perms(GenusContext(3)).tau.is_parity_respecting()


def test_arc_tables_are_the_named_iota_and_tau():
    for g in range(1, 9):
        ctx = GenusContext(g)
        cp = canonical_perms(ctx)
        assert arc_tables(ctx.i_min) == (cp.iota.padded, cp.tau.padded)
        # the constructions they replaced: a power of the full rotation,
        # and tau as four cycles
        assert cp.iota == cp.Q.power(4 * g - 2)
        assert cp.tau == from_cycles([
            range(1, 4 * g - 2, 2), range(2, 4 * g - 1, 2),
            range(8 * g - 5, 4 * g - 2, -2), range(8 * g - 4, 4 * g - 1, -2),
        ], ctx.n)


def test_arc_tables_step_each_forward_arc_along_its_curve():
    for i in range(1, 13):
        iota, tau = arc_tables(i)
        assert iota == (0, *(s + 2 * i if s <= 2 * i else s - 2 * i
                             for s in range(1, 4 * i + 1)))
        # the step gluing's chaining test made before it read tau
        assert tau[1:2 * i + 1] == tuple(
            s + 2 if s + 2 <= 2 * i else s + 2 - 2 * i for s in range(1, 2 * i + 1))
        assert sorted(tau) == list(range(4 * i + 1))
        # tau o iota = iota o tau^-1
        assert all(tau[iota[tau[iota[s]]]] == s for s in range(1, 4 * i + 1))


def test_symbol_info():
    # signed_ids(i) is the symbol -> signed arc id table: odd symbols lie on
    # the first curve, even ones on the second, s+2i is the inverse of s
    ids = signed_ids(5)  # genus 3
    assert len(ids) == 21 and ids[0] == 0
    assert ids[1] == 1  # first curve, arc 1, forward
    assert ids[2] == 6  # second curve, arc 1
    assert ids[11] == -1  # first curve, arc 1, inverse
    for i in range(1, 9):
        ids = signed_ids(i)
        assert len(ids) == 4 * i + 1
        assert (ids[1], ids[2], ids[2 * i + 1]) == (1, i + 1, -1)
        for s in range(1, 4 * i + 1):
            assert (abs(ids[s]) <= i) == (s % 2 == 1)
            assert (ids[s] > 0) == (s <= 2 * i)


def test_symbol_info_iota_flips_direction():
    for i in range(1, 9):
        ids = signed_ids(i)
        iota = lambda s: s + 2 * i if s <= 2 * i else s - 2 * i
        if i % 2:  # i = 2g-1: the genus-g label inversion is that map
            assert canonical_perms(GenusContext((i + 1) // 2)).iota.images == tuple(
                map(iota, range(1, 4 * i + 1)))
        for s in range(1, 4 * i + 1):
            assert ids[iota(s)] == -ids[s]


def test_symbol_of_inverts_symbol_info():
    for i in range(1, 9):
        ids = signed_ids(i)
        # a bijection from the symbols 1..4i onto the ids +-1..+-2i
        assert sorted(ids[1:]) == [*range(-2 * i, 0), *range(1, 2 * i + 1)]
        symbol_of = {v: s for s, v in enumerate(ids) if s}
        assert all(ids[symbol_of[v]] == v for v in symbol_of)


def test_is_filling_torus():
    ctx = GenusContext(1)
    assert is_filling(ctx, Permutation([2, 3, 4, 1])) == (True, None)
    ok, why = is_filling(ctx, Permutation([3, 4, 1, 2]))
    assert not ok and why == "not an n-cycle"


def test_is_filling_diagnostic_order():
    ctx = GenusContext(1)
    # an n-cycle that mixes parities
    ok, why = is_filling(ctx, Permutation([2, 4, 1, 3]))
    assert not ok and why == "not parity respecting"
    with pytest.raises(ValueError, match="degree mismatch"):
        is_filling(ctx, identity(6))


def test_q12_is_not_filling_at_g2():
    ctx = GenusContext(2)
    ok, _ = is_filling(ctx, from_cycles([list(range(1, 13))], 12))
    assert not ok


def composed_is_filling(ctx, p):
    """The three conditions, the equation checked by composing
    permutations."""
    if not is_n_cycle(p):
        return False, "not an n-cycle"
    if not p.is_parity_respecting():
        return False, "not parity respecting"
    cp = canonical_perms(ctx)
    if p.compose(cp.iota.compose(p)) != cp.tau:
        return False, "does not solve the filling equation"
    return True, None


def test_is_filling_diagnostics_at_genus_3():
    ctx = GenusContext(3)
    assert is_filling(ctx, identity(20)) == (False, "not an n-cycle")
    mixed = from_cycles([[1, 3, 2, *range(4, 21)]], 20)
    assert is_filling(ctx, mixed) == (False, "not parity respecting")
    rotation = from_cycles([range(1, 21)], 20)
    assert is_filling(ctx, rotation) == (
        False, "does not solve the filling equation")


def test_is_filling_matches_the_composed_equation(g3_solutions):
    ctx = GenusContext(3)
    rng = random.Random(3)
    odds, evens = list(range(1, 21, 2)), list(range(2, 21, 2))
    perms = [fp.perm for fp in g3_solutions]
    for _ in range(300):
        # a parity-respecting relabelling of a solution, a random
        # parity-respecting 20-cycle and a random permutation
        rng.shuffle(odds)
        rng.shuffle(evens)
        images = [0] * 20
        for old, new in zip(range(1, 21, 2), odds):
            images[old - 1] = new
        for old, new in zip(range(2, 21, 2), evens):
            images[old - 1] = new
        perms.append(rng.choice(perms[:600]).conjugate_by(Permutation(images)))
        perms.append(from_cycles([[x for pair in zip(odds, evens) for x in pair]], 20))
        perms.append(Permutation(rng.sample(range(1, 21), 20)))
    verdicts = [is_filling(ctx, p) for p in perms]
    assert verdicts == [composed_is_filling(ctx, p) for p in perms]
    assert {why for _, why in verdicts} == {
        None, "not an n-cycle", "not parity respecting",
        "does not solve the filling equation"}


# `is_filling` before the one-walk check, kept verbatim as its reference.
def reference_is_filling(ctx: GenusContext, p: Permutation) -> tuple[bool, str | None]:
    """Test the three filling conditions; on failure name the first broken one.

    The equation is checked on the image tuples, s(iota(s(j))) = tau(j)
    for every j, without building the products as permutations.
    """
    if p.n != ctx.n:
        raise ValueError("degree mismatch")
    if not is_n_cycle(p):
        return False, "not an n-cycle"
    if not p.is_parity_respecting():
        return False, "not parity respecting"
    iota, tau = arc_tables(ctx.i_min)
    s = (0, *p.images)
    if any(s[iota[s[j]]] != tau[j] for j in range(1, ctx.n + 1)):
        return False, "does not solve the filling equation"
    return True, None


def sampled_perms(ctx, solutions, rng, rounds):
    """Permutations of degree n = ctx.n around the filling conditions:
    solutions and their parity-respecting relabellings, random n-cycles
    (which mostly break parity, some at just two steps), alternating
    n-cycles, parity-respecting products of two alternating cycles,
    random permutations, and parity-respecting permutations s that solve
    the equation on the odd symbols only."""
    n = ctx.n
    iota, tau = arc_tables(ctx.i_min)
    odds, evens = list(range(1, n + 1, 2)), list(range(2, n + 1, 2))
    perms = [fp.perm for fp in solutions]
    for _ in range(rounds):
        rng.shuffle(odds)
        rng.shuffle(evens)
        relabel = [0] * n
        for old, new in zip(range(1, n + 1, 2), odds):
            relabel[old - 1] = new
        for old, new in zip(range(2, n + 1, 2), evens):
            relabel[old - 1] = new
        if solutions:
            perms.append(rng.choice(solutions).perm.conjugate_by(Permutation(relabel)))
        cycle = [x for pair in zip(odds, evens) for x in pair]
        perms.append(from_cycles([cycle], n))
        a, b = rng.sample(range(n), 2)
        cycle[a], cycle[b] = cycle[b], cycle[a]
        perms.append(from_cycles([cycle], n))
        perms.append(from_cycles([rng.sample(range(1, n + 1), n)], n))
        cut = 2 * rng.randrange(1, n // 2)
        perms.append(from_cycles([cycle[:cut], cycle[cut:]], n))
        perms.append(Permutation(rng.sample(range(1, n + 1), n)))
        # C = iota o s maps the odd symbols to the even ones at random;
        # on the even ones it is then forced by C(C(j)) = iota(tau(j))
        # for odd j, which is the equation at j
        C = [0] * (n + 1)
        for j, k in zip(range(1, n + 1, 2), evens):
            C[j] = k
            C[k] = iota[tau[j]]
        perms.append(Permutation([iota[C[j]] for j in range(1, n + 1)]))
    return perms


def test_is_filling_matches_the_reference_on_every_degree_4_permutation():
    ctx = GenusContext(1)
    perms = [Permutation(list(p)) for p in permutations(range(1, 5))]
    assert len(perms) == 24
    verdicts = [is_filling(ctx, p) for p in perms]
    assert verdicts == [reference_is_filling(ctx, p) for p in perms]
    assert {why for _, why in verdicts} == {
        None, "not an n-cycle", "not parity respecting"}


@pytest.mark.parametrize("g", [2, 3, 4])
def test_is_filling_matches_the_reference(g, g3_solutions, g4_solutions):
    ctx = GenusContext(g)
    rng = random.Random(1300 + g)
    solutions = {2: [], 3: g3_solutions, 4: rng.sample(g4_solutions, 300)}[g]
    perms = sampled_perms(ctx, solutions, rng, 300)
    verdicts = [is_filling(ctx, p) for p in perms]
    assert verdicts == [reference_is_filling(ctx, p) for p in perms]
    reasons = {"not an n-cycle", "not parity respecting",
               "does not solve the filling equation"}
    assert {why for _, why in verdicts} == reasons | ({None} if solutions else set())


def test_filling_equation_holds_for_solutions(g3_solutions):
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    for fp in g3_solutions[:80]:
        assert fp.perm.compose(cp.iota.compose(fp.perm)) == cp.tau


def test_boundary_word_torus():
    fp = FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1]))
    assert fp.boundary_word() == (1, 2, 3, 4)
    fp2 = FillingPermutation(GenusContext(1), Permutation([4, 1, 2, 3]))
    assert fp2.boundary_word() == (1, 4, 3, 2)


def test_boundary_word_is_a_traversal(g3_solutions):
    for fp in g3_solutions[:40]:
        word = fp.boundary_word()
        assert len(word) == 20
        assert sorted(word) == list(range(1, 21))


def test_reconstruct_torus():
    rep = reconstruct(FillingPermutation(GenusContext(1), Permutation([2, 3, 4, 1])))
    assert rep.genus == 1
    assert len(rep.vertex_classes) == 1
    assert len(rep.vertex_classes[0]) == 4
    assert rep.alpha_is_single_curve and rep.beta_is_single_curve


def test_reconstruct_all_g3(g3_solutions):
    for fp in g3_solutions:
        rep = reconstruct(fp)
        assert rep.genus == 3
        assert len(rep.vertex_classes) == 5
        assert all(len(c) == 4 for c in rep.vertex_classes)
        assert rep.alpha_is_single_curve and rep.beta_is_single_curve


def position_corner_orbits(fp):
    """Reference: the quarter-turn corner map on boundary-word positions.

    Corner p sits after the edge at position p (0-based) and steps to
    the position of the label inverse to the next edge.  Orbits are
    listed by least position, as 1-based positions."""
    word = fp.boundary_word()
    n = len(word)
    half = n // 2
    pos_of = {s: p for p, s in enumerate(word)}
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        p = start
        while not seen[p]:
            seen[p] = True
            orbit.append(p + 1)
            s = word[(p + 1) % n]
            p = pos_of[s - half if s > half else s + half]
        orbits.append(tuple(orbit))
    return tuple(orbits)


@pytest.mark.parametrize("g", [1, 3, 4])
def test_reconstruct_matches_the_position_walk(g, request):
    for fp in request.getfixturevalue(f"g{g}_solutions"):
        assert reconstruct(fp).vertex_classes == position_corner_orbits(fp)


# `reconstruct` before its generator expressions were dropped, kept
# verbatim as its reference.
def reference_reconstruct(fp: FillingPermutation) -> SurfaceReport:
    """Glue each polygon edge to its inverse and report the surface.

    Checks carried out: every corner orbit has size exactly 4, there are
    2g-1 of them, and the arcs of each curve chain head-to-tail into one
    closed curve.  A validated filling permutation that failed any of
    these would indicate an implementation bug, hence the hard error.
    Vertex classes list 1-based boundary-word positions, in the order of
    their first position.
    """
    ctx = fp.ctx
    n = ctx.n
    iota = arc_tables(ctx.i_min)[0]
    word = fp.boundary_word()
    cls, orbits = corner_orbits(fp.perm.padded, word)
    if any(len(o) != 4 for o in orbits) or len(orbits) != ctx.i_min:
        raise ReconstructionError("corner orbits are not 4-valent")

    # the head of edge s is corner s; its tail is the corner before it,
    # which turns a quarter into the inverse of s
    def single_curve(first_symbol: int) -> bool:
        arcs = ctx.i_min
        heads = [cls[first_symbol + 2 * (k - 1)] for k in range(1, arcs + 1)]
        if len(set(heads)) != arcs:
            return False
        for k in range(1, arcs + 1):
            nxt = first_symbol + 2 * (k % arcs)
            if heads[k - 1] != cls[iota[nxt]]:
                return False
        return True

    alpha_ok = single_curve(1)
    beta_ok = single_curve(2)

    # V - E + F with E = n/2, F = 1
    chi = len(orbits) - n // 2 + 1
    genus = (2 - chi) // 2
    pos_of = [0] * (n + 1)
    for p, s in enumerate(word, 1):
        pos_of[s] = p
    return SurfaceReport(
        genus=genus,
        vertex_classes=tuple(tuple(pos_of[s] for s in o) for o in orbits),
        alpha_is_single_curve=alpha_ok,
        beta_is_single_curve=beta_ok,
        boundary_word=word,
    )


def outcome(fn, fp):
    """The report of fn(fp), or the type and text of what it raised."""
    try:
        return fn(fp)
    except Exception as exc:
        return type(exc), str(exc)


def test_reconstruct_matches_the_reference(g3_solutions, g4_solutions):
    rng = random.Random(2500)
    pairs = [*g3_solutions, *rng.sample(g4_solutions, 2000)]
    # permutations that are no solution, built without the check: random
    # ones, solutions with two images swapped, and the sampled families
    fakes = []
    for g, solutions in ((2, []), (3, g3_solutions), (4, g4_solutions)):
        ctx = GenusContext(g)
        for _ in range(200):
            fakes.append(unvalidated(g, rng.sample(range(1, ctx.n + 1), ctx.n)))
        for fp in rng.sample(solutions, min(len(solutions), 200)):
            images = list(fp.perm.images)
            a, b = rng.sample(range(ctx.n), 2)
            images[a], images[b] = images[b], images[a]
            fakes.append(unvalidated(g, images))
        sampled = sampled_perms(ctx, rng.sample(solutions, min(len(solutions), 100)),
                                rng, 200)
        fakes += [unvalidated(g, p.images) for p in sampled]
    # a corner orbit {1, 3, 9, 11}: alpha arcs 1 and 2 end at one vertex
    # and every head is the tail of the next arc, so only the check that
    # the heads are distinct finds the first curve not single
    fakes.append(unvalidated(2, [3, 6, 5, 8, 12, 4, 11, 10, 9, 1, 7, 2]))
    errors, curves = set(), set()
    for fp in pairs + fakes:
        got = outcome(reconstruct, fp)
        assert got == outcome(reference_reconstruct, fp)
        if isinstance(got, SurfaceReport):
            curves.add((got.alpha_is_single_curve, got.beta_is_single_curve))
        else:
            errors.add(got)
    # the hard error, and both outcomes of each curve's check
    assert errors == {(ReconstructionError, "corner orbits are not 4-valent")}
    assert {a for a, _ in curves} == {b for _, b in curves} == {True, False}


def reference_inputs(g3_solutions, g4_solutions):
    """The pairs and the unvalidated fakes that
    `test_reconstruct_matches_the_reference` builds, from the same seed
    in the same order."""
    rng = random.Random(2500)
    pairs = [*g3_solutions, *rng.sample(g4_solutions, 2000)]
    fakes = []
    for g, solutions in ((2, []), (3, g3_solutions), (4, g4_solutions)):
        ctx = GenusContext(g)
        for _ in range(200):
            fakes.append(unvalidated(g, rng.sample(range(1, ctx.n + 1), ctx.n)))
        for fp in rng.sample(solutions, min(len(solutions), 200)):
            images = list(fp.perm.images)
            a, b = rng.sample(range(ctx.n), 2)
            images[a], images[b] = images[b], images[a]
            fakes.append(unvalidated(g, images))
        sampled = sampled_perms(ctx, rng.sample(solutions, min(len(solutions), 100)),
                                rng, 200)
        fakes += [unvalidated(g, p.images) for p in sampled]
    fakes.append(unvalidated(2, [3, 6, 5, 8, 12, 4, 11, 10, 9, 1, 7, 2]))
    return pairs, fakes


def read_outcome(read, fp):
    """What read(fp) gives on a copy of fp that keeps no diagram: the
    diagram's fields and hash, whether it shares the pair's table and
    is kept on it, or the type and text of what read raised."""
    copy = unvalidated(fp.ctx.g, fp.perm.images)
    try:
        d = read(copy)
    except Exception as exc:
        return type(exc), str(exc)
    return (d.m, d.beta_seq, d.signs, hash(d),
            d._succ is copy.perm.padded, copy._diagram is d)


def test_diagram_of_matches_the_checked_read(g3_solutions, g4_solutions):
    # the read that built its diagram through PairDiagram's checks, on
    # the pairs and fakes of the reconstruct oracle above
    pairs, fakes = reference_inputs(g3_solutions, g4_solutions)
    assert len(pairs) == 2600
    errors = set()
    for fp in pairs + fakes:
        got = read_outcome(diagram_of, fp)
        assert got == read_outcome(reference_diagram_of, fp)
        if got[0] is ValueError:
            errors.add(got[1])
        else:
            assert got[-2:] == (True, True)
    # every pair reads, and the fakes meet both refusals: a beta arc
    # left unread, and a diagram that does not walk back to the pair
    assert all(read_outcome(diagram_of, fp)[0] == fp.ctx.i_min for fp in pairs)
    assert errors == {"beta_seq must visit each point exactly once",
                      "corner structure is not a transverse 4-valent pair"}


def test_twisting_closure_sizes():
    sizes = [len(twisting_closure(GenusContext(g))) for g in range(1, 6)]
    assert sizes == [8, 72, 200, 392, 648]
    assert identity(20) in twisting_closure(GenusContext(3))


def product_set_closure(ctx):
    """Reference: the group generated by every product
    mu^l kappa^k delta^j rev^i, not only by the four generators."""
    cp = canonical_perms(ctx)
    rev = alpha_reversal(ctx)
    order = 2 * ctx.g - 1
    products = set()
    for l in (0, 1):
        for k in range(order):
            for j in range(order):
                for i in (0, 1):
                    t = cp.kappa.power(k).compose(cp.delta.power(j))
                    if i:
                        t = t.compose(rev)
                    if l:
                        t = cp.mu.compose(t)
                    products.add(t)
    return tuple(closure(products))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_twisting_closure_matches_the_product_set_closure(g):
    ctx = GenusContext(g)
    assert twisting_closure(ctx) == product_set_closure(ctx)


def test_every_relabelling_commutes_with_iota_and_tau():
    # the library checks the four generators only; every element of the
    # group they generate must then keep iota, tau and the parity
    # classes, at every size the filling pairs and the patterns use
    for i in range(1, 10):
        iota, tau = arc_tables(i)
        group = relabeling_group(i)
        assert len(group) == 8 * i * i
        for t in group:
            img = t.padded
            assert all(img[iota[x]] == iota[img[x]] for x in range(4 * i + 1))
            assert all(img[tau[x]] == tau[img[x]] for x in range(4 * i + 1))
            assert t.is_parity_respecting()


def test_twisting_generators_are_checked():
    for g in range(1, 7):
        ctx = GenusContext(g)
        cp = canonical_perms(ctx)
        _check_twisting_generators(
            ctx, (cp.kappa, cp.delta, alpha_reversal(ctx), cp.mu))
    ctx = GenusContext(3)
    with pytest.raises(ReconstructionError, match="tau"):
        _check_twisting_generators(ctx, (canonical_perms(ctx).eta,))


def test_twisting_conjugation_preserves_solutions(g3_solutions):
    # exhaustively: every twisting element maps the solution set into itself
    ctx = GenusContext(3)
    solset = {fp.perm for fp in g3_solutions}
    for t in twisting_closure(ctx):
        for fp in g3_solutions:
            assert fp.perm.conjugate_by(t) in solset


def test_index_preserving_flip_breaks_the_equation():
    # the direction flip must renumber arcs along the new direction;
    # pairing each arc with its own inverse does not commute with the
    # arc-advance and so leaves the solution set (for g >= 2)
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    assert cp.eta.compose(cp.tau) != cp.tau.compose(cp.eta)
    rev = alpha_reversal(ctx)
    assert rev.compose(cp.tau) == cp.tau.compose(rev)
    assert rev.compose(cp.iota) == cp.iota.compose(rev)
    assert beta_reversal(ctx).compose(cp.tau) == cp.tau.compose(beta_reversal(ctx))


@pytest.mark.parametrize("g", range(1, 7))
def test_relabeling_generators_match_the_genus_formulas(g):
    # reference: the generators written out with the genus-g symbol
    # ranges 1..4g-2 (forward) and 4g-1..8g-4 (inverse)
    n = 8 * g - 4
    reversed_arc = lambda k: (2 * g - k) % (2 * g - 1) + 1
    kappa = from_cycles([range(1, 4 * g - 2, 2), range(4 * g - 1, n, 2)], n)
    delta = from_cycles([range(2, 4 * g - 1, 2), range(4 * g, n + 1, 2)], n)
    alpha = from_cycles([(2 * k - 1, 4 * g - 3 + 2 * reversed_arc(k))
                         for k in range(1, 2 * g)], n)
    beta = from_cycles([(2 * k, 4 * g - 2 + 2 * reversed_arc(k))
                        for k in range(1, 2 * g)], n)
    mu = from_cycles([(j, j + 1) for j in range(1, n, 2)], n)
    ctx = GenusContext(g)
    cp = canonical_perms(ctx)
    assert relabeling_generators(2 * g - 1) == (kappa, delta, alpha, mu)
    assert (cp.kappa, cp.delta, cp.mu) == (kappa, delta, mu)
    assert alpha_reversal(ctx) == alpha
    assert beta_reversal(ctx) == beta


def test_alpha_reversal_matches_eta_at_g1():
    ctx = GenusContext(1)
    assert alpha_reversal(ctx) == canonical_perms(ctx).eta


def test_twisting_closure_is_a_group():
    ctx = GenusContext(2)
    W = twisting_closure(ctx)
    Wset = set(W)
    rng = random.Random(23)
    for _ in range(50):
        a, b = rng.choice(W), rng.choice(W)
        assert a.compose(b) in Wset


def test_canonical_class_rep_g1():
    ctx = GenusContext(1)
    r1 = canonical_class_rep(ctx, Permutation([2, 3, 4, 1]))
    r2 = canonical_class_rep(ctx, Permutation([4, 1, 2, 3]))
    assert r1 == r2 == Permutation([2, 3, 4, 1])


def test_canonical_class_rep_idempotent(g3_class_reps):
    ctx = GenusContext(3)
    for rep in g3_class_reps:
        assert canonical_class_rep(ctx, rep.perm) == rep.perm


def test_class_invariant_under_twisting(g3_class_reps):
    ctx = GenusContext(3)
    rng = random.Random(31)
    T = twisting_closure(ctx)
    for rep in g3_class_reps:
        for _ in range(10):
            t = rng.choice(T)
            conj = rep.perm.conjugate_by(t)
            assert canonical_class_rep(ctx, conj) == rep.perm


def test_canonical_class_rep_rejects_non_solutions():
    with pytest.raises(ValueError):
        canonical_class_rep(GenusContext(1), Permutation([3, 4, 1, 2]))


# The one-walk construction the library uses for tables it built,
# against the checked path FillingPermutation(ctx, Permutation(table)).
def from_table(ctx, images):
    return FillingPermutation(ctx, Permutation._unchecked((0, *images)))


def test_unchecked_table_rejects_tables_that_are_not_permutations(g3_solutions):
    ctx = GenusContext(3)
    n = ctx.n
    good = list(g3_solutions[0].perm.images)
    to_1 = good.index(1)  # s(to_1 + 1) = 1
    repeat = good.copy()
    repeat[to_1] = good[0]  # a loop through s(1) that misses 1
    zero = good.copy()
    zero[0] = 0
    above = good.copy()
    above[0] = n + 1
    far_above = good.copy()
    far_above[to_1] = 10**6
    two_cycle = [2, 1] + [3] * (n - 2)  # back at 1 after two steps
    for images in (repeat, zero, above, far_above, two_cycle):
        with pytest.raises(ValueError):
            FillingPermutation(ctx, Permutation(images))
        for table in (images, tuple(images), bytes(i % 256 for i in images)):
            # none of them is a bijection, so none is an n-cycle
            with pytest.raises(ValueError, match="not an n-cycle"):
                from_table(ctx, table)
    assert from_table(ctx, bytes(good)) == g3_solutions[0]


def checked_path(ctx, images):
    try:
        return FillingPermutation(ctx, Permutation(images))
    except ValueError:
        return None


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_unchecked_table_agrees_with_the_checked_path(
        g1_solutions, g3_solutions, g4_solutions, data):
    solutions = data.draw(st.sampled_from([g1_solutions, g3_solutions, g4_solutions]))
    ctx = solutions[0].ctx
    n = ctx.n
    # negative entries too: they index from the end of the table, and
    # the equation test, which reads every entry, still rejects them
    entries = st.integers(-n - 3, n + 3)
    kind = data.draw(st.sampled_from(["any", "permutation", "solution", "edited"]))
    if kind == "any":
        images = data.draw(st.lists(entries, min_size=n, max_size=n))
    elif kind == "permutation":
        images = data.draw(st.permutations(range(1, n + 1)))
    else:
        images = list(data.draw(st.sampled_from(solutions)).perm.images)
        if kind == "edited":
            for _ in range(data.draw(st.integers(1, 3))):
                images[data.draw(st.integers(0, n - 1))] = data.draw(entries)
    if min(images) >= 0 and data.draw(st.booleans()):
        images = bytes(images)  # as the search hands them over
    expected = checked_path(ctx, images)
    if expected is None:
        with pytest.raises(ValueError):
            from_table(ctx, images)
    else:
        got = from_table(ctx, images)
        assert got == expected
        assert hash(got) == hash(expected)
        assert repr(got) == repr(expected)
