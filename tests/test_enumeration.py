from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from fillperm import enumeration
from fillperm.enumeration import (
    GuardExceeded,
    GuardSettingError,
    _check_regular_on_evens,
    _class_minima,
    _conjugates,
    _count_and_classify,
    _iter_solution_images,
    _least_shard_images,
    _roots,
    _solution_images,
    base_involution,
    bounds_report,
    canonical_class_rep,
    check_guard,
    class_representatives,
    classify_solutions,
    count_classes,
    count_Lg,
    enumerate_filling,
    excluded_root_count,
    excluded_roots,
    guard_limit,
    lower_bound,
    root_count,
    square_roots,
    upper_bound,
)
from fillperm.filling import (
    GenusContext,
    ReconstructionError,
    canonical_perms,
    is_filling,
    relabeling_generators,
    twisting_closure,
)
from fillperm.perms import Permutation, closure, from_cycles


def test_base_involution_matches_displayed_pairs():
    bi1 = base_involution(GenusContext(1))
    assert bi1.perm == from_cycles([(1, 3), (2, 4)], 4)
    assert bi1.odd == ((1, 3),) and bi1.even == ((2, 4),)

    bi2 = base_involution(GenusContext(2))
    assert bi2.perm == from_cycles(
        [(1, 9), (2, 10), (3, 11), (4, 12), (5, 7), (6, 8)], 12
    )

    bi3 = base_involution(GenusContext(3))
    assert len(bi3.odd) == 5 and len(bi3.even) == 5
    # the general shape: (i, i+4g) for i <= 4g-4 plus the two end pairs
    assert bi3.odd == ((1, 13), (3, 15), (5, 17), (7, 19), (9, 11))
    assert bi3.even == ((2, 14), (4, 16), (6, 18), (8, 20), (10, 12))


def test_base_involution_is_iota_tau():
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        cp = canonical_perms(ctx)
        assert base_involution(ctx).perm == cp.iota.compose(cp.tau)


@pytest.mark.parametrize("g,count", [(1, 2), (2, 48), (3, 3840)])
def test_square_root_count(g, count):
    assert root_count(g) == count
    roots = list(square_roots(GenusContext(g)))
    assert len(roots) == count
    assert len(set(roots)) == count


def test_square_roots_square_to_the_involution():
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        invol = base_involution(ctx).perm
        for c in square_roots(ctx):
            assert c.compose(c) == invol


def test_square_roots_g1_explicit():
    roots = list(square_roots(GenusContext(1)))
    assert roots == [
        from_cycles([(1, 2, 3, 4)], 4),
        from_cycles([(1, 4, 3, 2)], 4),
    ]


def test_pairings_are_perfect_odd_even_matchings():
    # every root is a product of 4-cycles (a,c,b,d), each interleaving
    # one odd transposition (a,b) with one even transposition (c,d)
    ctx = GenusContext(2)
    base = base_involution(ctx)
    for root in square_roots(ctx):
        cycles = root.cycles()
        assert all(len(cyc) == 4 for cyc in cycles)
        assert all((cyc[0] - cyc[1]) % 2 for cyc in cycles)
        pairs = [tuple(sorted(cyc[i::2])) for cyc in cycles for i in (0, 1)]
        assert sorted(p for p in pairs if p[0] % 2) == list(base.odd)
        assert sorted(p for p in pairs if p[0] % 2 == 0) == list(base.even)


def test_enumerate_g1(g1_solutions):
    perms = [fp.perm for fp in g1_solutions]
    assert sorted(perms) == [Permutation([2, 3, 4, 1]), Permutation([4, 1, 2, 3])]


def test_enumerate_g2_empty():
    assert enumerate_filling(GenusContext(2)) == []


def test_enumerate_g3_all_valid(g3_solutions):
    ctx = GenusContext(3)
    assert len(g3_solutions) > 0
    for fp in g3_solutions[:100]:
        assert is_filling(ctx, fp.perm) == (True, None)


def test_enumeration_closed_under_twisting(g3_solutions):
    solset = {fp.perm for fp in g3_solutions}
    for t in twisting_closure(GenusContext(3)):
        assert {p.conjugate_by(t) for p in solset} == solset


def test_enumeration_deterministic_across_jobs():
    ctx = GenusContext(3)
    one = [fp.perm for fp in enumerate_filling(ctx, jobs=1)]
    two = [fp.perm for fp in enumerate_filling(ctx, jobs=2)]
    assert one == two


def unpruned_solution_images(ctx):
    """The solutions found by filtering the whole root stream: walk the
    cycle of sigma = iota o C through 1 and keep the full-length ones."""
    iota = (0,) + canonical_perms(ctx).iota.images
    n = ctx.n
    out = []
    for C in _roots(ctx):
        steps = 1
        x = iota[C[1]]
        while x != 1:
            steps += 1
            x = iota[C[x]]
        if steps == n:
            out.append(bytes(iota[C[j]] for j in range(1, n + 1)))
    return out


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_pruned_search_matches_the_root_stream(g):
    ctx = GenusContext(g)
    pruned = list(_iter_solution_images(ctx))
    assert len(pruned) == len(set(pruned)) == [2, 0, 600, 65856][g - 1]
    assert set(pruned) == set(unpruned_solution_images(ctx))


@pytest.mark.parametrize("g", [3, 4])
def test_solution_images_independent_of_jobs(g):
    ctx = GenusContext(g)
    one = _solution_images(ctx, jobs=1)
    assert _solution_images(ctx, jobs=2) == one
    assert _solution_images(ctx, jobs=3) == one


def test_workers_never_exceed_shards(pool_sizes):
    ctx = GenusContext(3)
    images = _solution_images(ctx, jobs=5000)
    assert pool_sizes == [2 * ctx.i_min]
    assert images == list(_iter_solution_images(ctx))
    _solution_images(ctx, jobs=4)
    _solution_images(GenusContext(1), jobs=5000)
    assert pool_sizes == [10, 4, 2]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_first_level_shards_are_equal(g):
    # one shard per value of s(1): 4g-2 even symbols, 2(2g-1) choices
    ctx = GenusContext(g)
    shards = [list(_iter_solution_images(ctx, (k,))) for k in range(4 * g - 2)]
    assert len({len(shard) for shard in shards}) == 1
    total = list(_iter_solution_images(ctx))
    assert len(shards[0]) * (4 * g - 2) == len(total)
    assert [img for shard in shards for img in shard] == total
    assert sorted({shard[0][0] for shard in shards if shard}) == (
        list(range(2, ctx.n + 1, 2)) if total else [])
    assert _least_shard_images(ctx) == [img for img in total if img[0] == 2]


def full_sweep_class_minima(ctx, images):
    """The class sweep as it was before the first-byte filter: every
    conjugate t o s o t^-1 of every representative s is built, from
    padded image tables of t and t^-1, and discarded."""
    tables = [((0, *t.images), (0, *t.inverse().images))
              for t in twisting_closure(ctx)]
    symbols = range(1, ctx.n + 1)
    alive = set(images)
    reps = []
    for img in sorted(alive):
        if img in alive:
            reps.append(img)
            sigma = (0, *img)
            for timg, tinv in tables:
                alive.discard(bytes(timg[sigma[tinv[x]]] for x in symbols))
    return reps


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_one_shard_representatives_equal_the_full_sweep(g):
    ctx = GenusContext(g)
    total = list(_iter_solution_images(ctx))
    reps = full_sweep_class_minima(ctx, total)
    assert _count_and_classify(ctx) == (len(total), reps)
    assert _class_minima(ctx, total) == reps
    assert [r.perm for r in class_representatives(ctx)] == [
        Permutation(list(img)) for img in reps]
    assert count_classes(ctx) == len(reps) == [1, 0, 5, 168][g - 1]
    assert all(canonical_class_rep(ctx, Permutation(list(img))).images == tuple(img)
               for img in reps)


def test_conjugates_filtered_by_first_byte():
    ctx = GenusContext(3)
    for img in _least_shard_images(ctx)[:20]:
        every = list(_conjugates(ctx, img))
        assert sorted(_conjugates(ctx, img, {2})) == sorted(
            c for c in every if c[0] == 2)
        assert sorted(_conjugates(ctx, img, {2, 4})) == sorted(
            c for c in every if c[0] in (2, 4))


def test_classify_solutions_matches_the_full_sweep(g3_solutions, g3_class_reps):
    ctx = GenusContext(3)
    images = [bytes(fp.perm.images) for fp in g3_solutions]
    expected = [Permutation(list(img)) for img in full_sweep_class_minima(ctx, images)]
    assert [r.perm for r in classify_solutions(ctx, g3_solutions)] == expected
    assert [r.perm for r in g3_class_reps] == expected


def test_regular_action_check():
    for g in range(1, 7):
        ctx = GenusContext(g)
        _check_regular_on_evens(ctx, twisting_closure(ctx))
    # the elements of <kappa, delta> that fix 1 are the powers of delta,
    # which keep the forward even symbols 2..4g-2 apart from the inverse
    # ones 4g..8g-4: not transitive on the evens, so not regular
    ctx = GenusContext(3)
    kappa, delta, _, _ = relabeling_generators(ctx.i_min)
    with pytest.raises(ReconstructionError, match="regularly"):
        _check_regular_on_evens(ctx, closure([kappa, delta]))


def test_counting_checks_the_regular_action(monkeypatch):
    # counting from one shard refuses a closure that is not regular on the
    # evens (<kappa, delta>, as above) before it searches
    ctx = GenusContext(3)
    kappa, delta, _, _ = relabeling_generators(ctx.i_min)
    monkeypatch.setattr(enumeration, "twisting_closure",
                        lambda ctx: tuple(closure([kappa, delta])))
    caches = (enumeration._least_shard, enumeration._closure_tables)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(ReconstructionError, match="regularly"):
            count_classes(ctx)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_least_shard_splits_by_second_level(pool_sizes):
    # the second level interleaves one of the 2g-2 even transpositions
    # that the first level left, in either orientation; genus 1 has one
    # level, so one task and no pool
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        assert _least_shard_images(ctx, jobs=5000) == _least_shard_images(ctx)
    assert pool_sizes == [4, 8, 12]


def test_genus_5_class_count():
    ctx = GenusContext(5)
    n5 = count_classes(ctx)
    assert n5 == 25_908
    assert lower_bound(5) <= n5 <= upper_bound(5)


def test_count_classes_small():
    assert count_classes(GenusContext(1)) == 1
    assert count_classes(GenusContext(2)) == 0


def test_count_classes_matches_per_solution_reps(g3_solutions, g3_class_reps):
    ctx = GenusContext(3)
    reps = {canonical_class_rep(ctx, fp.perm) for fp in g3_solutions}
    assert reps == {r.perm for r in g3_class_reps}
    assert count_classes(ctx) == len(reps)


def test_guard():
    with pytest.raises(GuardExceeded):
        check_guard(6)
    check_guard(6, force=True)
    check_guard(5)


def test_no_override_lifts_the_byte_array_limit(monkeypatch):
    check_guard(32, force=True)
    with pytest.raises(GuardExceeded, match="above 32"):
        check_guard(33, force=True)
    monkeypatch.setenv("FILLPERM_GUARD", "40")
    with pytest.raises(GuardExceeded, match="above 32"):
        check_guard(33)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("FILLPERM_GUARD", "3")
    with pytest.raises(GuardExceeded):
        check_guard(4)


def test_guard_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("FILLPERM_GUARD", "abc")
    with pytest.raises(GuardSettingError, match="FILLPERM_GUARD .*'abc'"):
        guard_limit()


def brute_force_Lg(g):
    length = (g - 1) // 2
    caps = [4 * i - 3 for i in range(1, length + 1)]
    count = 0
    for seq in combinations(range(1, caps[-1] + 1), length):
        if all(seq[i] <= caps[i] for i in range(length)):
            count += 1
    return count


@pytest.mark.parametrize("g", [3, 5, 7, 9, 11])
def test_count_Lg_against_brute_force(g):
    assert count_Lg(g) == brute_force_Lg(g)


def test_count_Lg_known_values():
    assert count_Lg(3) == 1
    assert count_Lg(5) == 4
    assert count_Lg(7) == 22


def test_count_Lg_rejects_even_or_small():
    with pytest.raises(ValueError):
        count_Lg(4)
    with pytest.raises(ValueError):
        count_Lg(1)


def test_bounds():
    assert upper_bound(3) == 672
    assert upper_bound(4) == 2**6 * 11 * 120 == 84480
    assert lower_bound(3) == Fraction(1, 100)
    assert lower_bound(5) == Fraction(4, 4 * 81)
    with pytest.raises(ValueError, match="bounds not defined"):
        upper_bound(2)
    with pytest.raises(ValueError, match="even-genus"):
        lower_bound(4)


def test_bounds_report_with_exact():
    rep = bounds_report(3, exact=True)
    assert rep.lower == Fraction(1, 100)
    assert rep.upper == 672
    assert rep.root_count == 3840
    assert rep.exact_N is not None
    import math

    assert math.ceil(rep.lower) <= rep.exact_N <= rep.upper


def constructed_exclusion_family(ctx):
    """The exclusion family built transposition by transposition.

    (1,4g+1) is interleaved with an even transposition in either
    orientation, giving C(1) = k; the transposition of iota(k) is
    interleaved with (4g-3,4g-1) so that C(iota(k)) = 4g-1; the rest
    are matched freely.
    """
    g = ctx.g
    base = base_involution(ctx)
    iota = canonical_perms(ctx).iota
    first, anchor = (1, 4 * g + 1), (4 * g - 3, 4 * g - 1)
    free_odd = [t for t in base.odd if t not in (first, anchor)]
    family = set()
    for ev in base.even:
        for k, j in (ev, ev[::-1]):
            kp = iota(k)
            ev2 = next(t for t in base.even if kp in t)
            fixed = [(1, k, first[1], j), (kp, anchor[1], sum(ev2) - kp, anchor[0])]
            free_even = [t for t in base.even if t not in (ev, ev2)]
            for match in permutations(free_even):
                for flips in product((False, True), repeat=len(free_odd)):
                    free = [(a, d, b, c) if flip else (a, c, b, d)
                            for (a, b), (c, d), flip in zip(free_odd, match, flips)]
                    family.add(from_cycles(fixed + free, ctx.n))
    return family


def test_excluded_roots_g3(g3_solutions):
    ctx = GenusContext(3)
    cp = canonical_perms(ctx)
    exc = list(excluded_roots(ctx))
    family = constructed_exclusion_family(ctx)
    assert len(exc) == len(set(exc)) == len(family) == excluded_root_count(3) == 480
    assert set(exc) == family
    rootset = set(square_roots(ctx))
    solset = {fp.perm for fp in g3_solutions}
    for c in exc:
        sigma = cp.iota.compose(c)
        assert sigma.compose(sigma)(1) == 1
        assert not sigma.is_n_cycle()
        assert c in rootset
        assert sigma not in solset


def test_excluded_count_identity():
    # total admissible roots minus the exclusion family
    g = 3
    assert root_count(g) - excluded_root_count(g) == 3360
    # and the closed form for the remainder
    from math import factorial

    assert 3360 == 2 ** (2 * g - 2) * (4 * g - 5) * factorial(2 * g - 1) // (2 * g - 2)
