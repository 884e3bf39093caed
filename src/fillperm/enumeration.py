"""Exhaustive generation of filling permutations via square roots.

Every filling permutation factors as iota o C where C squares to the
fixed-point-free involution iota o tau.  The involution splits into 2g-1
all-odd and 2g-1 all-even transpositions; the admissible square roots are
exactly the perfect matchings of odd transpositions with even ones, each
matched pair interleaved into a 4-cycle in one of two ways: 2^(2g-1) *
(2g-1)! candidates.  The solutions are the roots for which iota o C is
an n-cycle; a depth-first search builds C one odd transposition at a
time and drops every prefix on which iota o C already closes a shorter
cycle.  It is `perms.grow_cycles`, the same search that finds the
crossing diagrams of `gluing.search_patterns`.  Listing, counting and
classifying search only the roots whose first level sets s(1) = 2, one
(4g-2)-th of the search: the twisting elements that fix 1 act regularly
on the values of s(1) and carry that shard onto each of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import factorial, lgamma, log
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .filling import (
    FillingPermutation,
    GenusContext,
    ReconstructionError,
    _trusted_conjugate,
    arc_tables,
    canonical_perms,
    is_filling,
    relabeling_group,
    twisting_closure,
)
from .perms import Permutation, grow_cycles

DEFAULT_GUARD = 5
# `enumerate_filling` keeps every solution as a FillingPermutation, about
# 417 B each (tracemalloc: 26.2 MiB for the 65,856 of genus 4), so genus 5
# and its 16,609,536 solutions would take about 6.9 GB.
LISTED_GENUS = 4
# Solutions are byte strings of their n = 8g-4 images, so n < 256; no
# override lifts this.
MAX_ENUMERATED_GENUS = 32


class GuardExceeded(RuntimeError):
    """Requested genus is above the enumeration guard."""


def check_guard(g: int, force: bool = False) -> None:
    """Raise GuardExceeded unless an enumeration may run at genus g.

    Counting and classifying run up to genus `DEFAULT_GUARD`, and
    `enumerate_filling` lists up to `LISTED_GENUS`.  force lifts both
    limits, but never `MAX_ENUMERATED_GENUS`.
    """
    if force or g <= DEFAULT_GUARD:
        if g > MAX_ENUMERATED_GENUS:
            raise GuardExceeded(
                f"genus {g} is above {MAX_ENUMERATED_GENUS}, the largest "
                "whose 8g-4 symbols fit the enumeration's byte arrays"
            )
        return
    # log10 of root_count(g) = 2^(2g-1) (2g-1)!, which str() may refuse
    digits = ((2 * g - 1) * log(2) + lgamma(2 * g)) / log(10)
    raise GuardExceeded(
        f"genus {g} exceeds the enumeration guard ({DEFAULT_GUARD}); "
        f"the run would generate about 10^{digits:.1f} square roots. "
        "Pass --force (force=True from Python) to override."
    )


# ----------------------------------------------------------------------
# The base involution and its square roots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaseInvolution:
    """iota o tau together with its parity-tagged transpositions."""

    perm: Permutation
    odd: tuple[tuple[int, int], ...]
    even: tuple[tuple[int, int], ...]


def base_involution(ctx: GenusContext) -> BaseInvolution:
    """Compute iota o tau and split it into disjoint transpositions.

    The product is (1,4g+1)(2,4g+2)...(4g-4,8g-4)(4g-3,4g-1)(4g-2,4g):
    2g-1 transpositions of odd symbols and 2g-1 of even symbols.
    """
    cp = canonical_perms(ctx)
    invol = cp.iota.compose(cp.tau)
    odd: list[tuple[int, int]] = []
    even: list[tuple[int, int]] = []
    seen = set()
    for j in range(1, ctx.n + 1):
        if j in seen:
            continue
        k = invol(j)
        if k == j:
            raise AssertionError("iota o tau has a fixed point")
        seen.update((j, k))
        pair = (min(j, k), max(j, k))
        (odd if j % 2 else even).append(pair)
    odd.sort()
    even.sort()
    if len(odd) != ctx.i_min or len(even) != ctx.i_min:
        raise AssertionError("unexpected transposition split")
    return BaseInvolution(invol, tuple(odd), tuple(even))


def root_count(g: int) -> int:
    """Number of admissible square roots: 2^(2g-1) * (2g-1)!."""
    return 2 ** (2 * g - 1) * factorial(2 * g - 1)


def _roots(ctx: GenusContext) -> Iterator[list[int]]:
    """Every admissible square root C of iota o tau, as an image list.

    C[j] is the image of j (index 0 is unused).  One list is rewritten
    in place between yields, so a caller that keeps a root copies it.
    Level i matches the i-th odd transposition with even transposition
    evens[i] of the current matching and writes C[x] = iota(y) for each
    arc x -> y of `_moves(ctx)` choice 2 evens[i] + bit i, with bit i
    counted from the most significant bit.  Matchings come in
    lexicographic order, so the stream is deterministic.
    """
    moves = _moves(ctx)
    iota = arc_tables(ctx.i_min)[0]
    m = ctx.i_min
    C = [0] * (ctx.n + 1)
    for evens in permutations(range(m)):
        for bits in range(1 << m):
            for i in range(m):
                for x, y in moves[i][2 * evens[i] + ((bits >> (m - 1 - i)) & 1)][1]:
                    C[x] = iota[y]
            yield C


def square_roots(ctx: GenusContext) -> Iterator[Permutation]:
    """Stream of the admissible square roots C of iota o tau."""
    for C in _roots(ctx):
        yield Permutation(C[1:])


@lru_cache(maxsize=None)
def _moves(ctx: GenusContext) -> tuple[tuple[tuple[int, tuple], ...], ...]:
    """moves[i][k]: the choices of level i of the solution search.

    Choice k interleaves the i-th odd transposition (a,b) with even
    transposition j = k // 2 as the 4-cycle (a,c,b,d) or (a,d,b,c) (k % 2
    picks which); it is stored as j and the four arcs x -> iota(C(x)) of
    sigma = iota o C that it writes, for x in {a,b,c,d}.
    """
    base = base_involution(ctx)
    iota = arc_tables(ctx.i_min)[0]
    moves = []
    for a, b in base.odd:
        row = []
        for j, (c, d) in enumerate(base.even):
            for c, d in ((c, d), (d, c)):
                row.append((j, ((a, iota[c]), (c, iota[b]),
                                (b, iota[d]), (d, iota[a]))))
        moves.append(tuple(row))
    return tuple(moves)


def _iter_solution_images(
    ctx: GenusContext, prefix: Sequence[int] = ()
) -> Iterator[bytes]:
    """Yield image arrays (as bytes, symbols 1..n) of filling permutations
    by a depth-first search over the square roots C of iota o tau.

    The search is `perms.grow_cycles` with one cycle: level i takes one
    choice of `_moves(ctx)[i]`, which interleaves the i-th odd
    transposition with an unused even transposition and writes four arcs
    of sigma = iota o C, and a prefix on which sigma closes a cycle
    shorter than n is dropped with all of its extensions.  `prefix`
    fixes level i to choice prefix[i]; the prefixes (k,) for
    k < 2(2g-1), in order, list the same solutions as the whole search.
    """
    moves = _moves(ctx)
    rows = [row[k:k + 1] for row, k in zip(moves, prefix)] + list(moves[len(prefix):])
    for sigma in grow_cycles(ctx.n, rows, 1):
        yield bytes(sigma[1:])


def _check_regular_on_evens(ctx: GenusContext, group: Iterable[Permutation]) -> None:
    """Raise unless the elements of group that fix symbol 1 act regularly
    on the even symbols: exactly one of them sends 2 to each even symbol.

    Conjugating a solution s by such an h keeps 1 fixed and sends s(1)
    to h(s(1)).  So every value of s(1), the even symbol that the
    search's first level chooses, is taken by the same number of
    solutions of each class, and the lexicographically least member of
    a class has s(1) = 2.
    """
    if sorted(h(2) for h in group if h(1) == 1) != list(range(2, ctx.n + 1, 2)):
        raise ReconstructionError(
            "the twisting elements that fix 1 do not act regularly on "
            "the even symbols"
        )


@lru_cache(maxsize=None)
def _least_shard(ctx: GenusContext) -> int:
    """The first-level choice of the search that sets s(1) = 2, once the
    twisting closure is checked to act regularly on the values of s(1)."""
    _check_regular_on_evens(ctx, twisting_closure(ctx))
    return next(k for k, (_, arcs) in enumerate(_moves(ctx)[0]) if (1, 2) in arcs)


# ----------------------------------------------------------------------
# The class test
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _admitting(i: int, anchor: int = 1, targets: tuple[int, ...] = (2,)) -> tuple:
    """The elements t of `relabeling_group(i)` but the identity (its first,
    as the group is sorted), indexed by the conjugates t o s o t^-1 they
    admit, those that send anchor into targets: rows[a - 1][b] lists the
    t with t^-1(anchor) = a and t^-1(target) = b for a target, so s
    admits exactly those at rows[a - 1][s(a)].  Each t is listed as the
    indices of t^-1(1) and t^-1(2), a getter of the entries at t^-1(1),
    ..., t^-1(n), and the translation table of t: the conjugate's image
    array is bytes(getter(img)).translate(table)."""
    n = 4 * i
    cells: dict[tuple[int, int], list] = {}
    for t in relabeling_group(i)[1:]:
        inv = (0, *sorted(range(1, n + 1), key=t.padded.__getitem__))
        entry = (inv[1] - 1, inv[2] - 1, itemgetter(*(x - 1 for x in inv[1:])),
                 bytes(t.padded).ljust(256, b"\0"))
        for target in set(targets):  # 2m + 1 = 3 at m = 1
            cells.setdefault((inv[anchor], inv[target]), []).append(entry)
    return tuple(tuple(tuple(cells.get((a, b), ())) for b in range(n + 1))
                 for a in range(1, n + 1))


def _least_members(i: int, images: Iterable[bytes], anchor: int = 1,
                   targets: tuple[int, ...] = (2,)) -> tuple[int, list[bytes]]:
    """The number of images and, in stream order, those that no admitted
    conjugate (`_admitting`) undercuts.

    Each image sends anchor into targets, and the other such members of
    its class under `relabeling_group(i)` are its admitted conjugates.
    So a stream that holds each of them once keeps one image per class,
    its least there: the canonical representative in the enumeration's
    shard where s(1) = 2, the least leaf in the pattern search.  Only
    the kept images are held."""
    rows = _admitting(i, anchor, targets)
    count, kept = 0, []
    for count, img in enumerate(images, 1):
        if _is_least(rows, img):
            kept.append(img)
    return count, kept


def _is_least(rows, img: bytes) -> bool:
    """True unless an admitted conjugate of img is smaller; a conjugate
    is built only when its first two bytes tie with img's."""
    first, second = img[0], img[1]
    for row, b in zip(rows, img):
        for j1, j2, getter, table in row[b]:
            lead = table[img[j1]]
            if lead < first:
                return False
            if lead == first:
                lead = table[img[j2]]
                if lead < second or lead == second and (
                        bytes(getter(img)).translate(table) < img):
                    return False
    return True


def _admitted_conjugates(i: int, img: bytes) -> Iterator[bytes]:
    """The conjugates of the permutation with image array img that have
    first byte 2, by every element but the identity."""
    for row, b in zip(_admitting(i), img):
        for _, _, getter, table in row[b]:
            yield bytes(getter(img)).translate(table)


# ----------------------------------------------------------------------
# Public enumeration API
# ----------------------------------------------------------------------


def enumerate_filling(
    ctx: GenusContext, *, force: bool = False
) -> list[FillingPermutation]:
    """All filling permutations at the given genus, grouped by s(1) in
    increasing order, each group in search order.

    The shard with s(1) = 2 is searched and conjugated by each twisting
    element t with t(1) = 1, in increasing order of t(2), which gives the
    solutions with s(1) = t(2).  Each pair of the shard is validated by
    the `is_filling` walk of FillingPermutation; its conjugates are not,
    because `twisting_closure` checks that its generators map solutions
    to solutions (`_trusted_conjugate`).  The list holds every solution,
    so above genus `LISTED_GENUS` it is refused unless force is set."""
    if ctx.g > LISTED_GENUS and not force:
        raise GuardExceeded(
            f"genus {ctx.g} exceeds {LISTED_GENUS}, the largest genus "
            "enumerate_filling lists: it holds every solution at about "
            "417 B each, and genus 5 alone has 16,609,536 (about 6.9 GB). "
            "count_classes and class_representatives hold only the class "
            "representatives; pass force=True to override."
        )
    check_guard(ctx.g, force)
    shard = list(_iter_solution_images(ctx, (_least_shard(ctx),)))
    twisting_closure(ctx)  # raises unless conjugates of solutions are solutions
    out = [FillingPermutation(ctx, Permutation._unchecked(img)) for img in shard]
    # the t with t(1) = 1 but the identity: one per t(2) > 2 (`_least_shard`)
    fixing_1 = sorted(chain(*_admitting(ctx.i_min)[0]), key=lambda entry: entry[3][2])
    for _, _, getter, table in fixing_1:
        out.extend(_trusted_conjugate(ctx, bytes(getter(img)).translate(table))
                   for img in shard)
    return out


def canonical_class_rep(ctx: GenusContext, p: Permutation) -> Permutation:
    """Lexicographically least conjugate under the twisting closure.

    The input is validated; its conjugates are not, because
    `twisting_closure` checks that its generators map solutions to
    solutions.  Only those with first byte 2 are built, as the least
    has it (`_check_regular_on_evens`).  Conjugates are compared as byte
    strings, like the enumeration's image arrays, so above genus
    `MAX_ENUMERATED_GENUS`, where the degree 8g-4 passes 255,
    ValueError is raised first.
    """
    if ctx.g > MAX_ENUMERATED_GENUS:
        raise ValueError(
            f"genus {ctx.g} is above {MAX_ENUMERATED_GENUS} "
            "(MAX_ENUMERATED_GENUS), the largest whose 8g-4 symbols fit "
            "the byte strings canonical_class_rep compares")
    ok, why = is_filling(ctx, p)
    if not ok:
        raise ValueError(f"not a filling permutation: {why}")
    twisting_closure(ctx)  # raises unless conjugates of solutions are solutions
    img = bytes(p.images)  # the identity's conjugate, least only if img[0] is 2
    return Permutation(min(img, *_admitted_conjugates(ctx.i_min, img)))


def _classify_prefix(args) -> tuple[int, list[bytes]]:
    """`_least_members` of the solutions under one search prefix."""
    ctx, prefix = args
    return _least_members(ctx.i_min, _iter_solution_images(ctx, prefix))


def _count_and_classify(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> tuple[int, list[bytes]]:
    """The number of filling permutations and the canonical representative
    of every twisting class, sorted, from the one shard where s(1) = 2:
    every value of s(1) is taken by equally many solutions
    (`_check_regular_on_evens`), and each class's least member has
    s(1) = 2.  Each second-level choice of the shard's search (genus 1
    has one level) keeps only what passes `_least_members`; with jobs > 1
    they run in a pool of at most one worker each.  No shard is held."""
    check_guard(ctx.g, force)
    first, moves = _least_shard(ctx), _moves(ctx)
    prefixes = [(first,)] if len(moves) == 1 else [
        (first, k) for k, (j, _) in enumerate(moves[1]) if j != moves[0][first][0]]
    tasks = [(ctx, prefix) for prefix in prefixes]
    _admitting(ctx.i_min)  # built once, before a pool forks
    workers = min(max(1, jobs), len(tasks))
    if workers == 1:
        parts = list(map(_classify_prefix, tasks))
    else:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            parts = list(pool.imap(_classify_prefix, tasks))
    reps = sorted(img for _, kept in parts for img in kept)
    return 2 * ctx.i_min * sum(count for count, _ in parts), reps


def class_representatives(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> list[FillingPermutation]:
    """Canonical representative of every twisting class, sorted."""
    _, reps = _count_and_classify(ctx, jobs=jobs, force=force)
    return [FillingPermutation(ctx, Permutation._unchecked(img)) for img in reps]


def classify_solutions(
    ctx: GenusContext, solutions: Sequence[FillingPermutation]
) -> list[FillingPermutation]:
    """Class representatives of an already-enumerated solution list: its
    members with s(1) = 2 that pass the class test, sorted."""
    images = (bytes(fp.perm.images) for fp in solutions)
    _, reps = _least_members(ctx.i_min, (img for img in images if img[0] == 2))
    return [FillingPermutation(ctx, Permutation._unchecked(img)) for img in sorted(reps)]


def count_classes(ctx: GenusContext, *, jobs: int = 1, force: bool = False) -> int:
    """N(g): the number of twisting classes of filling permutations."""
    return len(_count_and_classify(ctx, jobs=jobs, force=force)[1])


# ----------------------------------------------------------------------
# Bounds and the L-sequence count
# ----------------------------------------------------------------------


def count_Lg(g: int) -> int:
    """Number of strictly increasing sequences a_1 < ... < a_(g-1)/2
    with a_i <= 4i - 3, counted by dynamic programming."""
    if g % 2 == 0 or g < 3:
        raise ValueError("L-sequences are defined for odd g >= 3")
    length = (g - 1) // 2
    caps = [4 * i - 3 for i in range(1, length + 1)]
    # ways[v] = number of valid prefixes ending with value v
    ways = {v: 1 for v in range(1, caps[0] + 1)}
    for cap in caps[1:]:
        nxt: dict[int, int] = {}
        running = 0  # sum of ways over values < v
        for v in range(1, cap + 1):
            running += ways.get(v - 1, 0)
            nxt[v] = running
        ways = {v: c for v, c in nxt.items() if c}
    return sum(ways.values())


def upper_bound(g: int) -> int:
    """2^(2g-2) * (4g-5) * (2g-3)! for g >= 3."""
    if g < 3:
        raise ValueError("bounds not defined")
    return 2 ** (2 * g - 2) * (4 * g - 5) * factorial(2 * g - 3)


def lower_bound(g: int) -> Fraction:
    """Exact rational |L_g| / (4 (2g-1)^2) for odd g >= 3.

    The even-genus analogue hangs off a genus-4 seed rather than an
    L-sequence set and is not implemented; callers should treat even g
    as having no computed lower bound.
    """
    if g < 3:
        raise ValueError("bounds not defined")
    if g % 2 == 0:
        raise ValueError("not implemented (even-genus chain)")
    return Fraction(count_Lg(g), 4 * (2 * g - 1) ** 2)


@dataclass(frozen=True)
class BoundsReport:
    genus: int
    lower: Fraction | None
    upper: int
    root_count: int
    exact_N: int | None = None


def bounds_report(
    g: int, *, exact: bool = False, jobs: int = 1, force: bool = False
) -> BoundsReport:
    if g < 3:
        raise ValueError("bounds not defined")
    lower = lower_bound(g) if g % 2 else None
    exact_N = None
    if exact:
        exact_N = count_classes(GenusContext(g), jobs=jobs, force=force)
    return BoundsReport(g, lower, upper_bound(g), root_count(g), exact_N)


# ----------------------------------------------------------------------
# The exclusion family
# ----------------------------------------------------------------------


def excluded_roots(ctx: GenusContext) -> Iterator[Permutation]:
    """Roots guaranteed not to yield an n-cycle, in stream order.

    These are the roots C for which sigma = iota o C closes a 2-cycle at
    1: sigma(sigma(1)) = 1.  With k = C(1) that means C(iota(k)) = 4g-1,
    so (1,4g+1) is interleaved with any even transposition in either
    orientation, the transposition of iota(k) is interleaved with
    (4g-3,4g-1) in the one orientation that sends iota(k) to 4g-1, and
    the other transpositions are matched freely: 2^(2g-2)*(2g-1)*(2g-3)!
    distinct roots.
    """
    if ctx.g < 3:
        raise ValueError("exclusion family needs g >= 3")
    iota = arc_tables(ctx.i_min)[0]
    for C in _roots(ctx):
        if iota[C[iota[C[1]]]] == 1:
            yield Permutation(C[1:])
