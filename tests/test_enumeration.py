import contextlib
import hashlib
import io
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from fillperm import enumeration, filling
from fillperm.cli import main
from fillperm.enumeration import (
    _SPLIT_DEPTH,
    MAX_ENUMERATED_GENUS,
    GuardExceeded,
    _admitted_conjugates,
    _check_regular_on_evens,
    _count_and_classify,
    _iter_solution_images,
    _least_shard,
    _orderly,
    _relabeller,
    _roots,
    _symbol_choices,
    base_involution,
    bounds_report,
    canonical_class_rep,
    check_guard,
    class_representatives,
    classify_solutions,
    count_classes,
    count_Lg,
    enumerate_filling,
    excluded_roots,
    lower_bound,
    root_count,
    square_roots,
    upper_bound,
)
from fillperm.filling import (
    FillingPermutation,
    GenusContext,
    ReconstructionError,
    canonical_perms,
    is_filling,
    relabeling_generators,
    relabeling_group,
    twisting_closure,
)
from fillperm.perms import Permutation, closure, from_cycles
from fillperm.zpiece import LSequence, build_from_sequence, derive_template
from conftest import is_n_cycle


# The closed-form size of `excluded_roots`, a test oracle.
def excluded_root_count(g: int) -> int:
    """Size of the exclusion family: 2^(2g-2) * (2g-1) * (2g-3)!."""
    if g < 3:
        raise ValueError("exclusion family needs g >= 3")
    return 2 ** (2 * g - 2) * (2 * g - 1) * factorial(2 * g - 3)


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


@pytest.mark.parametrize("g, count", [(1, 2), (3, 600), (4, 65856)])
def test_every_listed_pair_is_a_checked_solution(g, count, request):
    # the shard's conjugates are listed without a walk: walk each one
    # here and rebuild the list through the checked constructors
    ctx = GenusContext(g)
    listed = request.getfixturevalue(f"g{g}_solutions")
    assert len(listed) == count
    assert all(is_filling(ctx, fp.perm) == (True, None) for fp in listed)
    checked = [FillingPermutation(ctx, Permutation(fp.perm.images)) for fp in listed]
    assert checked == listed
    assert [hash(fp) for fp in checked] == [hash(fp) for fp in listed]
    # a read pair keeps its diagram, and other tests read the session's
    # listed pairs, so a fresh listing shows what the listing itself holds
    assert all(vars(fp).keys() == {"ctx", "perm"} for fp in enumerate_filling(ctx))


@pytest.mark.parametrize("g, shard", [(3, 60), (4, 4704)])
def test_warm_listing_walks_only_the_shard(g, shard, request, monkeypatch):
    ctx = GenusContext(g)
    first = request.getfixturevalue(f"g{g}_solutions")
    enumerate_filling(ctx)  # the search tables and twisting check are cached
    walked = []
    walk = filling.is_filling

    def counted(ctx, p):
        walked.append(p.images)
        return walk(ctx, p)

    monkeypatch.setattr(filling, "is_filling", counted)
    listed = enumerate_filling(ctx)
    assert listed == first and len(listed) == 2 * ctx.i_min * shard
    assert walked == [fp.perm.images for fp in listed[:shard]]


def test_listing_trusts_no_conjugate_before_the_twisting_check(monkeypatch):
    # the twisting check runs on every call, also once the shard's
    # regularity check is cached, and before the first trusted build
    ctx = GenusContext(3)
    trusted = []
    build = enumeration._trusted_conjugate

    def counted(ctx, images):
        trusted.append(images)
        return build(ctx, images)

    def refuse(ctx):
        raise ReconstructionError("twisting generator does not commute with tau")

    monkeypatch.setattr(enumeration, "_trusted_conjugate", counted)
    assert len(enumerate_filling(ctx)) == 600 and len(trusted) == 540
    trusted.clear()
    monkeypatch.setattr(enumeration, "twisting_closure", refuse)
    with pytest.raises(ReconstructionError, match="commute"):
        enumerate_filling(ctx)
    assert trusted == []


def test_warm_listing_runs_no_per_symbol_check(monkeypatch):
    # no listed pair runs the per-symbol checks of Permutation
    ctx = GenusContext(3)
    first = enumerate_filling(ctx)  # builds the cached twisting tables
    checks = []
    init = Permutation.__init__

    def counted(self, images):
        checks.append(images)
        init(self, images)

    monkeypatch.setattr(Permutation, "__init__", counted)
    assert enumerate_filling(ctx) == first
    assert len(first) == 600 and checks == []


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_listing_conjugates_the_least_shard(g, monkeypatch):
    ctx = GenusContext(g)
    prefixes = []
    search = _iter_solution_images

    def recording_search(ctx, prefix=()):
        prefixes.append(prefix)
        return search(ctx, prefix)

    monkeypatch.setattr(enumeration, "_iter_solution_images", recording_search)
    listed = [bytes(fp.perm.images) for fp in enumerate_filling(ctx)]
    assert prefixes == [(_least_shard(ctx),)]
    assert len(listed) == len(set(listed)) == [2, 0, 600, 65856][g - 1]
    assert set(listed) == set(_iter_solution_images(ctx))
    firsts = [img[0] for img in listed]
    assert firsts == sorted(firsts)
    groups = [[img for img in listed if img[0] == e] for e in range(2, ctx.n + 1, 2)]
    assert len({len(group) for group in groups}) == 1
    assert groups[0] == sorted(img for img in _iter_solution_images(ctx) if img[0] == 2)


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
    # each worker process returns its prefixes' count and representatives
    ctx = GenusContext(g)
    one = _count_and_classify(ctx, jobs=1)
    assert one[0] == [600, 65856][g - 3]
    assert _count_and_classify(ctx, jobs=2) == one
    assert _count_and_classify(ctx, jobs=3) == one


def test_workers_never_exceed_shards(pool_sizes, monkeypatch):
    # one task per prefix of the orderly search that survives its first
    # three levels: 7 at genus 3, and genus 1 has one level, so one task
    # and no pool; the pool's genus is lowered so that genus 3 starts one
    monkeypatch.setattr(enumeration, "_POOL_GENUS", 1)
    ctx = GenusContext(3)
    assert _count_and_classify(ctx, jobs=5000) == _count_and_classify(ctx)
    assert pool_sizes == [7]
    _count_and_classify(ctx, jobs=4)
    assert _count_and_classify(GenusContext(1), jobs=5000) == (
        2, 1, [(bytes([2, 3, 4, 1]), 4)])
    assert pool_sizes == [7, 4]


def test_no_pool_below_the_pool_genus(pool_sizes):
    # a count below genus 5 finishes before a pool of two could start
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        one = _count_and_classify(ctx)
        for jobs in (2, 8, 5000):
            assert _count_and_classify(ctx, jobs=jobs) == one
            assert _count_and_classify(ctx, jobs=jobs, keep=False) == (*one[:2], [])
    assert pool_sizes == []


def test_genus_5_pool_lists_the_single_process_classes(g5_listing):
    # the one count in this suite that forks real workers
    count, classes, reps = _count_and_classify(GenusContext(5), jobs=2)
    data = g5_listing[1]
    assert (count, classes) == (data["filling_count"], data["class_count"])
    assert [img for img, _ in reps] == [bytes(entry["images"]) for entry in data["results"]]


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
    shard = list(_iter_solution_images(ctx, (_least_shard(ctx),)))
    assert shard == [img for img in total if img[0] == 2]


# The streaming least-member test: an oracle of the orderly search, of
# its leaves in the shard and, with anchor 2 and targets (3, 2m + 1), of
# the pattern search's, and of `classify_solutions`.
def _least_members(i, images, anchor=1, targets=(2,)):
    """The number of images and, in stream order, those that no admitted
    conjugate (`_admitting`) undercuts.

    Each image sends anchor into targets, and the other such members of
    its class under `relabeling_group(i)` are its admitted conjugates.
    So a stream that holds each of them once keeps one image per class,
    its least there: the canonical representative in the enumeration's
    shard where s(1) = 2, the least leaf in the pattern search.  Only
    the kept images are held."""
    rows = enumeration._admitting(i, anchor, targets)
    count, kept = 0, []
    for count, img in enumerate(images, 1):
        if _is_least(rows, img):
            kept.append(img)
    return count, kept


def _is_least(rows, img):
    """Whether no admitted conjugate of img is smaller.  A conjugate is
    built only when its first two bytes tie with img's."""
    first, second = img[0], img[1]
    own = enumeration._translation(img)
    for row, b in zip(rows, img):
        for inv, table, _, tinv in row[b]:
            lead = table[img[tinv[1] - 1]]
            if lead < first:
                return False
            if lead == first:
                lead = table[img[tinv[2] - 1]]
                if lead < second:
                    return False
                if lead == second and inv.translate(own).translate(table) < img:
                    return False
    return True


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
    count, classes, kept = _count_and_classify(ctx)
    assert (count, classes) == (len(total), len(reps))
    assert [img for img, _ in kept] == reps
    shard = [img for img in total if img[0] == 2]
    count, kept = _least_members(ctx.i_min, shard)
    assert count == len(shard) and sorted(kept) == reps
    assert [r.perm for r in class_representatives(ctx)] == [
        Permutation(list(img)) for img in reps]
    assert count_classes(ctx) == len(reps) == [1, 0, 5, 168][g - 1]
    assert all(canonical_class_rep(ctx, Permutation(list(img))).images == tuple(img)
               for img in reps)


def every_conjugate(ctx, img):
    """t o s o t^-1 for every t of the twisting closure, in group order,
    where img holds the images of s."""
    sigma = (0, *img)
    return [bytes(t(sigma[tinv(x)]) for x in range(1, ctx.n + 1))
            for t, tinv in ((t, t.inverse()) for t in twisting_closure(ctx))]


def test_classification_holds_no_shard():
    # the class test runs on the search stream and keeps only the 168
    # representatives; a sweep over the 4,704 solutions of the shard,
    # held as a list and a set, peaked at about 0.5 MB here
    ctx = GenusContext(4)
    _count_and_classify(ctx)  # builds the cached search and group tables
    tracemalloc.start()
    try:
        count, classes, reps = _count_and_classify(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count, classes, len(reps)) == (65856, 168, 168)
    assert peak < 2**16


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_orbit_sizes_add_up_to_the_solutions(g):
    # each class has |G| / |Stab| members, and the shard where s(1) = 2
    # is one 2i-th of all solutions
    ctx = GenusContext(g)
    shard = list(_iter_solution_images(ctx, (_least_shard(ctx),)))
    count, classes, reps = _count_and_classify(ctx)
    order = len(twisting_closure(ctx))
    assert classes == len(reps)
    assert sum(order // fixed for _, fixed in reps) == count
    assert count == 2 * ctx.i_min * len(shard) == [2, 0, 600, 65856][g - 1]


def orderly_leaves(monkeypatch) -> list[bytes]:
    """The image arrays of the leaves that the orderly search yields to
    `_classify`, through the module global it reads, as they come."""
    leaves = []
    orderly = enumeration._orderly

    def counted(choices, first, cycles, prefix, stop):
        for node in orderly(choices, first, cycles, prefix, stop):
            if 4 * stop >= len(choices) - 1:
                leaves.append(bytes(node[1][1:-1]))
            yield node

    monkeypatch.setattr(enumeration, "_orderly", counted)
    return leaves


def test_orderly_search_prunes_before_the_leaves(monkeypatch):
    # the undercut prune drops a prefix once an admitted conjugate is
    # smaller on the bytes decided, so few of the shard's 4,704 genus-4
    # solutions reach a leaf
    ctx = GenusContext(4)
    shard = sum(1 for _ in _iter_solution_images(ctx, (_least_shard(ctx),)))
    leaves = orderly_leaves(monkeypatch)
    count, classes, _ = _count_and_classify(ctx)
    assert (shard, count, classes) == (4704, 65856, 168)
    assert len(leaves) <= 2 * classes


def test_counting_keeps_no_representatives(pool_sizes, monkeypatch):
    # count_classes, bounds --exact and enumerate --count-only ask each
    # task for counts only, in a pool too; listing asks for the
    # representatives
    monkeypatch.setattr(enumeration, "_POOL_GENUS", 1)
    asked = []
    classify = enumeration._classify

    def recording(args):
        asked.append(args[2])
        return classify(args)

    monkeypatch.setattr(enumeration, "_classify", recording)
    ctx = GenusContext(3)
    assert _count_and_classify(ctx, keep=False) == (600, 5, [])
    assert count_classes(ctx, jobs=2) == 5
    assert bounds_report(3, exact=True).exact_N == 5
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", "--genus", "3", "--count-only"]) == 0
    assert asked == [False] * 28 and pool_sizes == [2]
    class_representatives(ctx)
    assert asked[28:] == [True] * 7


def test_relabeller_inverts_like_the_sort():
    # bytes.maketrans over t's padded image bytes, the form in which
    # closure composes the group, gives the inverse that a keyed sort of
    # the symbols by their images does, and t's own table is those
    # bytes padded with zeros
    for i in range(1, 9):
        for t in relabeling_group(i):
            n = t.n
            by_image = sorted(range(1, n + 1), key=t.padded.__getitem__)
            inv, images, table = _relabeller(t)
            assert inv == (0, *by_image, n + 1)
            assert images == bytes(by_image)
            assert table == bytes(t.padded) + bytes(255 - n)


def test_one_admitting_index_per_size():
    # listing reads the elements fixing 1 off the sorted group, and the
    # class test and the orbit sizes share one index
    enumeration._admitting.cache_clear()
    enumerate_filling(GenusContext(3))
    assert enumeration._admitting.cache_info().misses == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", "--genus", "4", "--classes"]) == 0
    rep = class_representatives(GenusContext(4))[7].perm
    assert canonical_class_rep(GenusContext(4), rep) == rep
    info = enumeration._admitting.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_conjugates_filtered_by_first_byte(g3_solutions):
    # the index finds the conjugates with first byte 2, each once, from
    # every solution: those of the shard and those of the other values
    ctx = GenusContext(3)
    for fp in g3_solutions[::7]:
        img = bytes(fp.perm.images)
        every = every_conjugate(ctx, img)
        admitted = sorted(_admitted_conjugates(ctx.i_min, img))
        # the identity comes first and is left out of the index
        wanted = sorted(c for c in every[1:] if c[0] == 2)
        assert admitted == wanted and len(admitted) == 4 * ctx.i_min - (img[0] == 2)


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
    # counting and listing from one shard refuse a closure that is not
    # regular on the evens (<kappa, delta>, as above) before they search
    ctx = GenusContext(3)
    kappa, delta, _, _ = relabeling_generators(ctx.i_min)
    monkeypatch.setattr(enumeration, "twisting_closure",
                        lambda ctx: tuple(closure([kappa, delta])))
    caches = (enumeration._least_shard, enumeration._admitting)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(ReconstructionError, match="regularly"):
            count_classes(ctx)
        with pytest.raises(ReconstructionError, match="regularly"):
            enumerate_filling(ctx)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_least_shard_splits_at_a_fixed_depth(pool_sizes, monkeypatch):
    # the tasks are the prefixes of the orderly search that survive its
    # first three levels; genus 1 has one level, so one task and no pool,
    # and genus 2 none; the pool's genus is lowered to see them all
    monkeypatch.setattr(enumeration, "_POOL_GENUS", 1)
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        assert _count_and_classify(ctx, jobs=5000) == _count_and_classify(ctx)
    assert pool_sizes == [7, 24]
    ctx = GenusContext(5)
    shard = _orderly(*_symbol_choices(ctx), 1, (_least_shard(ctx),), _SPLIT_DEPTH)
    assert sum(1 for _ in shard) == 51


def test_genus_5_class_count(g5_class_reps):
    n5 = len(g5_class_reps)
    assert n5 == 25_908
    joined = b"".join(bytes(fp.perm.images) for fp in g5_class_reps)
    assert hashlib.sha1(joined).hexdigest() == "239b622791f9e4df33a4530b02ae973a4567e88a"
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


def test_enumerate_filling_refuses_genus_5_before_searching(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(enumeration, "_iter_solution_images", refuse)
    with pytest.raises(GuardExceeded) as exc:
        enumerate_filling(GenusContext(5))
    message = str(exc.value)
    assert "\n" not in message
    for part in ("genus 5 exceeds 4", "417 B", "16,609,536", "6.9 GB", "force=True"):
        assert part in message
    # above both limits, the listing's own refusal comes first
    with pytest.raises(GuardExceeded, match="genus 6 exceeds 4"):
        enumerate_filling(GenusContext(6))
    monkeypatch.setattr(enumeration, "_iter_solution_images", lambda ctx, prefix: iter(()))
    assert enumerate_filling(GenusContext(5), force=True) == []


def test_no_override_lifts_the_byte_array_limit():
    check_guard(32, force=True)
    with pytest.raises(GuardExceeded, match="above 32"):
        check_guard(33, force=True)


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
        assert not is_n_cycle(sigma)
        assert c in rootset
        assert sigma not in solset


def test_excluded_count_identity():
    # total admissible roots minus the exclusion family
    g = 3
    assert root_count(g) - excluded_root_count(g) == 3360
    # and the closed form for the remainder
    from math import factorial

    assert 3360 == 2 ** (2 * g - 2) * (4 * g - 5) * factorial(2 * g - 1) // (2 * g - 2)


def test_canonical_class_rep_refuses_genus_above_the_byte_limit(monkeypatch):
    fp = build_from_sequence(LSequence(33, tuple(range(1, 17))), derive_template())

    def no_closure(*args):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(enumeration, "twisting_closure", no_closure)
    monkeypatch.setattr(enumeration, "_admitting", no_closure)
    with pytest.raises(ValueError, match="MAX_ENUMERATED_GENUS") as info:
        canonical_class_rep(fp.ctx, fp.perm)
    assert "\n" not in str(info.value)
    assert str(MAX_ENUMERATED_GENUS) in str(info.value)


@pytest.mark.parametrize("g, orders", [(3, {1: 1, 2: 4}), (4, {1: 168})])
def test_each_leaf_is_least_and_its_ties_are_its_stabiliser(g, orders):
    # the streaming least-member test, run on every leaf of the orderly
    # search, finds it least, and the admitted conjugates equal to the
    # leaf are its tied elements, counted with the identity
    ctx = GenusContext(g)
    rows = enumeration._admitting(ctx.i_min, 1, (2,))
    reported = Counter()
    for _, table, tied in _orderly(*_symbol_choices(ctx), 1, (_least_shard(ctx),), ctx.i_min):
        img = bytes(table[1:-1])
        assert _is_least(rows, img)
        fixed = 1 + sum(conj == img for conj in _admitted_conjugates(ctx.i_min, img))
        assert fixed == 1 + len(tied)
        reported[fixed] += 1
    assert reported == orders
