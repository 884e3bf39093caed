"""Exhaustive generation of filling permutations via square roots.

Every filling permutation factors as iota o C where C squares to the
fixed-point-free involution iota o tau.  The involution splits into 2g-1
all-odd and 2g-1 all-even transpositions; the admissible square roots are
exactly the perfect matchings of odd transpositions with even ones, each
matched pair interleaved into a 4-cycle in one of two ways: 2^(2g-1) *
(2g-1)! candidates.  The solutions are the roots for which iota o C is
an n-cycle; a depth-first search builds C one odd transposition at a
time and drops every prefix on which iota o C already closes a shorter
cycle.  Counting and classifying search only the roots whose first
level sets s(1) = 2, one (4g-2)-th of the search: the twisting closure
spreads every class evenly over the values of s(1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lgamma, log
from operator import itemgetter
from typing import Container, Iterable, Iterator, Sequence

from .filling import (
    FillingPermutation,
    GenusContext,
    ReconstructionError,
    canonical_perms,
    equation_tables,
    is_filling,
    twisting_closure,
)
from .perms import Permutation

DEFAULT_GUARD = 5
# Solutions are byte strings of their n = 8g-4 images, so n < 256; no
# override lifts this.
MAX_ENUMERATED_GENUS = 32


class GuardExceeded(RuntimeError):
    """Requested genus is above the enumeration guard."""


class GuardSettingError(ValueError):
    """FILLPERM_GUARD is set to something other than an integer."""


def guard_limit() -> int:
    """Genus guard; override with the FILLPERM_GUARD environment variable."""
    raw = os.environ.get("FILLPERM_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError:
        raise GuardSettingError(
            f"FILLPERM_GUARD must be an integer, got {raw!r}"
        ) from None


def check_guard(g: int, force: bool = False) -> None:
    limit = guard_limit()
    if force or g <= limit:
        if g > MAX_ENUMERATED_GENUS:
            raise GuardExceeded(
                f"genus {g} is above {MAX_ENUMERATED_GENUS}, the largest "
                "whose 8g-4 symbols fit the enumeration's byte arrays"
            )
        return
    # log10 of root_count(g) = 2^(2g-1) (2g-1)!, which str() may refuse
    digits = ((2 * g - 1) * log(2) + lgamma(2 * g)) / log(10)
    raise GuardExceeded(
        f"genus {g} exceeds the enumeration guard ({limit}); "
        f"the run would generate about 10^{digits:.1f} square roots. "
        "Set FILLPERM_GUARD or pass --force (force=True from Python) "
        "to override."
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
    The i-th odd transposition (a,b) is matched with the i-th even
    transposition (c,d) of the current matching; bit i (most significant
    first) chooses the 4-cycle (a,c,b,d) or (a,d,b,c), whose square is
    (a,b)(c,d) either way.  Matchings come in lexicographic order, so
    the stream is deterministic.
    """
    base = base_involution(ctx)
    odd = base.odd
    m = ctx.i_min
    C = [0] * (ctx.n + 1)
    for evens in permutations(base.even):
        for bits in range(1 << m):
            for i in range(m):
                a, b = odd[i]
                c, d = evens[i]
                if (bits >> (m - 1 - i)) & 1:
                    c, d = d, c
                C[a] = c
                C[c] = b
                C[b] = d
                C[d] = a
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
    iota = equation_tables(ctx)[0]
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

    Level i takes one choice of `_moves(ctx)[i]`: it interleaves the i-th
    odd transposition with an unused even transposition and writes four
    arcs of sigma = iota o C.  Between levels sigma is a set of disjoint
    paths; each path end x knows the far end far[x] and the path's arc
    count.  An arc x -> y closes a cycle exactly when y is x's far end,
    and a prefix that closes a cycle shorter than n is dropped with all
    of its extensions.  `prefix` fixes level i to choice prefix[i]; the
    prefixes (k,) for k < 2(2g-1), in order, list the same solutions as
    the whole search.
    """
    n = ctx.n
    m = ctx.i_min
    moves = _moves(ctx)
    rows = [row[k:k + 1] for row, k in zip(moves, prefix)] + list(moves[len(prefix):])

    sigma = [0] * (n + 1)
    far = list(range(n + 1))
    length = [0] * (n + 1)
    used = [False] * m
    # path merges to undo, as (s, x, lx, e, y, ly): s and e regain their
    # old far ends x and y and their old lengths
    trail: list[tuple[int, int, int, int, int, int]] = []

    def retract(mark: int) -> None:
        while len(trail) > mark:
            s, x, lx, e, y, ly = trail.pop()
            far[s] = x
            far[e] = y
            length[s] = lx
            length[e] = ly

    # per level: the choices left, the even transposition taken and
    # the trail length before its arcs
    levels = [iter(())] * m
    levels[0] = iter(rows[0])
    chosen = [0] * m
    marks = [0] * m
    i = 0
    while True:
        for j, arcs in levels[i]:
            if used[j]:
                continue
            mark = len(trail)
            for x, y in arcs:
                sigma[x] = y
                s = far[x]
                lx = length[x]
                if y == s:
                    if lx + 1 < n:
                        break
                    continue
                e = far[y]
                ly = length[y]
                trail.append((s, x, lx, e, y, ly))
                far[s] = e
                far[e] = s
                length[s] = length[e] = lx + ly + 1
            else:
                if i + 1 == m:
                    yield bytes(sigma[1:])
                else:
                    used[j] = True
                    chosen[i] = j
                    marks[i] = mark
                    i += 1
                    levels[i] = iter(rows[i])
                    break
            retract(mark)
        else:
            i -= 1
            if i < 0:
                return
            used[chosen[i]] = False
            retract(marks[i])


def _worker_solutions(args) -> list[bytes]:
    g, prefix = args
    return list(_iter_solution_images(GenusContext(g), prefix))


def _search(ctx: GenusContext, prefixes: Sequence[tuple[int, ...]],
            jobs: int) -> list[bytes]:
    """The solutions under each search prefix, joined in prefix order.

    With jobs > 1 the prefixes run in a pool of at most one worker per
    prefix, so the list does not depend on jobs.
    """
    workers = min(max(1, jobs), len(prefixes))
    out: list[bytes] = []
    if workers == 1:
        for prefix in prefixes:
            out.extend(_iter_solution_images(ctx, prefix))
        return out
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        for part in pool.imap(_worker_solutions,
                              [(ctx.g, prefix) for prefix in prefixes]):
            out.extend(part)
    return out


def _solution_images(ctx: GenusContext, jobs: int = 1) -> list[bytes]:
    """All filling-permutation image arrays, in deterministic search order;
    jobs > 1 splits the search by its 2(2g-1) first-level choices."""
    return _search(ctx, [(k,) for k in range(2 * ctx.i_min)], jobs)


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


def _least_shard_images(ctx: GenusContext, jobs: int = 1) -> list[bytes]:
    """The solutions with s(1) = 2, one (4g-2)-th of all of them, in
    search order; jobs > 1 splits the search by its second-level
    choices (genus 1 has a single level)."""
    first = _least_shard(ctx)
    moves = _moves(ctx)
    if len(moves) == 1:
        prefixes = [(first,)]
    else:
        taken = moves[0][first][0]
        prefixes = [(first, k) for k, (j, _) in enumerate(moves[1]) if j != taken]
    return _search(ctx, prefixes, jobs)


def count_roots_verified(ctx: GenusContext) -> int:
    """Generate every admissible root, assert C*C = iota o tau, and count."""
    invol = (0,) + base_involution(ctx).perm.images
    symbols = range(1, ctx.n + 1)
    count = 0
    for C in _roots(ctx):
        for j in symbols:
            if C[C[j]] != invol[j]:
                raise AssertionError("square root identity violated")
        count += 1
    return count


# ----------------------------------------------------------------------
# Public enumeration API
# ----------------------------------------------------------------------


def enumerate_filling(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> list[FillingPermutation]:
    """All filling permutations at the given genus, deterministic order."""
    check_guard(ctx.g, force)
    return [
        FillingPermutation(ctx, Permutation(list(img)))
        for img in _solution_images(ctx, jobs)
    ]


@lru_cache(maxsize=None)
def _closure_tables(ctx: GenusContext) -> tuple[tuple[int, itemgetter, bytes], ...]:
    """For each t in the twisting closure: the index of t^-1(1) in an
    image array, a getter of the entries at t^-1(1), ..., t^-1(n), and
    the 256-byte translation table of t.  The image array of t o s o t^-1
    is bytes(getter(img)).translate(table), and its first byte is
    table[img[index]]."""
    out = []
    for t in twisting_closure(ctx):
        inv = t.inverse().images
        table = bytes((0, *t.images)).ljust(256, b"\0")
        out.append((inv[0] - 1, itemgetter(*(x - 1 for x in inv)), table))
    return tuple(out)


def _conjugates(
    ctx: GenusContext, img: bytes, firsts: Container[int] | None = None
) -> Iterator[bytes]:
    """Image arrays of t o s o t^-1 for every t in the twisting closure,
    where img holds the images of s.  With firsts, only the conjugates
    whose first byte t(s(t^-1(1))) is in firsts are built."""
    for index, getter, table in _closure_tables(ctx):
        if firsts is None or table[img[index]] in firsts:
            yield bytes(getter(img)).translate(table)


def canonical_class_rep(ctx: GenusContext, p: Permutation) -> Permutation:
    """Lexicographically least conjugate under the twisting closure.

    The input is validated; its conjugates are not, because
    twisting_closure checks once that its generators map solutions to
    solutions.  Conjugates are compared as byte strings, like the
    enumeration's image arrays, so the degree 8g-4 must stay below 256.
    """
    ok, why = is_filling(ctx, p)
    if not ok:
        raise ValueError(f"not a filling permutation: {why}")
    return Permutation(min(_conjugates(ctx, bytes(p.images))))


def _class_minima(ctx: GenusContext, images: Sequence[bytes]) -> list[bytes]:
    """Least member of each twisting class among images, sorted.

    images must be a union of whole classes, or all solutions with one
    value of s(1) (one first-level shard of the search).  The sweep
    takes the least remaining image as its class's representative and
    discards the class: only the conjugates whose first byte occurs in
    images are built, which in a shard is 1 in 4g-2 of them.  On whole
    classes or the shard where s(1) = 2 the representatives are the
    canonical ones of `canonical_class_rep`.
    """
    alive = set(images)
    firsts = {img[0] for img in alive}
    reps: list[bytes] = []
    for img in sorted(alive):
        if img in alive:
            reps.append(img)
            # one at a time: difference_update rebuilds the table once
            # deleted slots pile up, a second copy at peak memory
            for conj in _conjugates(ctx, img, firsts):
                alive.discard(conj)
    return reps


def _count_and_classify(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> tuple[int, list[bytes]]:
    """The number of filling permutations and the canonical representative
    of every twisting class, sorted, from the one shard where s(1) = 2:
    every value of s(1) is taken by equally many solutions
    (`_check_regular_on_evens`), and each class's least member has
    s(1) = 2.  Holds one (4g-2)-th of the solutions in memory."""
    check_guard(ctx.g, force)
    shard = _least_shard_images(ctx, jobs)
    return 2 * ctx.i_min * len(shard), _class_minima(ctx, shard)


def class_representatives(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> list[FillingPermutation]:
    """Canonical representative of every twisting class, sorted."""
    _, reps = _count_and_classify(ctx, jobs=jobs, force=force)
    return [FillingPermutation(ctx, Permutation(list(img))) for img in reps]


def classify_solutions(
    ctx: GenusContext, solutions: Sequence[FillingPermutation]
) -> list[FillingPermutation]:
    """Class representatives of an already-enumerated solution list."""
    images = [bytes(fp.perm.images) for fp in solutions]
    return [
        FillingPermutation(ctx, Permutation(list(img)))
        for img in _class_minima(ctx, images)
    ]


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


def excluded_roots(ctx: GenusContext, force: bool = False) -> Iterator[Permutation]:
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
    check_guard(ctx.g, force)
    iota = equation_tables(ctx)[0]
    for C in _roots(ctx):
        if iota[C[iota[C[1]]]] == 1:
            yield Permutation(C[1:])


def excluded_root_count(g: int) -> int:
    """Size of the exclusion family: 2^(2g-2) * (2g-1) * (2g-3)!."""
    if g < 3:
        raise ValueError("exclusion family needs g >= 3")
    return 2 ** (2 * g - 2) * (2 * g - 1) * factorial(2 * g - 3)
