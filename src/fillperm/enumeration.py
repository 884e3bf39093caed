"""Exhaustive generation of filling permutations via square roots.

Every filling permutation factors as iota o C where C squares to the
fixed-point-free involution iota o tau.  The involution splits into 2g-1
all-odd and 2g-1 all-even transpositions; the admissible square roots are
exactly the perfect matchings of odd transpositions with even ones, each
matched pair interleaved into a 4-cycle in one of two ways: 2^(2g-1) *
(2g-1)! candidates.  The solutions are the roots for which iota o C is
an n-cycle; a depth-first search builds C one matched pair at a time and
drops every prefix on which iota o C already closes a shorter cycle.
Every search keeps only the roots whose first level sets s(1) = 2, one
(4g-2)-th of the whole: the twisting elements that fix 1 act regularly
on the values of s(1) and carry that shard onto each of the others.
Listing, counting and classifying walk it by one orderly search (McKay
1998), the one that also finds the crossing diagrams of
`gluing.search_patterns`: it decides s in symbol order and drops every
prefix that a twisting conjugate already undercuts on the bytes decided,
so it meets each class once, at its least member.  Listing admits no
conjugate, so it meets every solution of the shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import factorial, lgamma, log
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
from .perms import Permutation

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
    by the orderly search (`_orderly`) over `_listing_choices`, which
    admits no conjugate, so every solution is a leaf.

    Each level interleaves the transposition of iota o tau at the least
    open symbol with an unused one of the other parity and writes four
    arcs of s = iota o C, and a prefix on which s closes a cycle shorter
    than n is dropped with all of its extensions.  `prefix` fixes level
    k to choice prefix[k]; the first level decides s(1), so the prefixes
    (k,) for k < 2(2g-1), in order, list the same solutions as the
    whole search.
    """
    choices, first = _listing_choices(ctx)
    for _, table, _ in _orderly(choices, first, 1, prefix, ctx.i_min):
        yield bytes(table[1:-1])


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


def _translation(img: bytes) -> bytes:
    """The translation table of the permutation with image array img:
    x.translate(table) maps each symbol of x to its image."""
    return (b"\0" + img).ljust(256, b"\0")


_SYMBOLS = bytes(range(256))


def _relabeller(t: Permutation) -> tuple[tuple[int, ...], bytes, bytes]:
    """The padded table of t^-1, closed by n + 1 at index n + 1, the
    images of t^-1 as bytes and the translation table of t: the image
    array of t o s o t^-1 is inv.translate(_translation(img)).translate(table).
    t^-1 is read off `bytes.maketrans` (n < 256), which leaves n + 1
    fixed."""
    n = t.n
    img = bytes(t.padded)
    inv = bytes.maketrans(img, _SYMBOLS[:n + 1])
    return tuple(inv[:n + 2]), inv[1:n + 1], img.ljust(256, b"\0")


@lru_cache(maxsize=None)
def _admitting(i: int, anchor: int, targets: tuple[int, ...]) -> tuple:
    """The elements t of `relabeling_group(i)` but the identity (its first,
    as the group is sorted), indexed by the conjugates t o s o t^-1 they
    admit, those that send anchor into targets: rows[a - 1][b] lists the
    t with t^-1(anchor) = a and t^-1(target) = b for a target, so s
    admits exactly those at rows[a - 1][s(a)].  Each t is listed as the
    images of t^-1 and the translation table of t (`_relabeller`), then
    the padded tables of t and of t^-1 that the orderly search reads.
    One pass over the group appends each t to its cells, which are
    indexed by position, not hashed, and frozen at the end.  No
    argument has a default, so each index is one cache entry, built
    once per process."""
    n = 4 * i
    rows = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    ends = set(targets)  # 2m + 1 = 3 at m = 1
    for t in relabeling_group(i)[1:]:
        inv, images, table = _relabeller(t)
        entry = (images, table, t.padded, inv)
        row = rows[inv[anchor]]
        for end in ends:
            row[inv[end]].append(entry)
    return tuple(tuple(map(tuple, row)) for row in rows[1:])


def _admitted_conjugates(i: int, img: bytes) -> Iterator[bytes]:
    """The conjugates of the permutation with image array img that have
    first byte 2, by every element but the identity."""
    own = _translation(img)
    for row, b in zip(_admitting(i, 1, (2,)), img):
        for inv, table, _, _ in row[b]:
            yield inv.translate(own).translate(table)


# ----------------------------------------------------------------------
# The orderly search
# ----------------------------------------------------------------------

# Pool tasks are the surviving prefixes of this many levels, the shard's
# included: 51 at genus 5 and 88 at genus 6.
_SPLIT_DEPTH = 3
# The least genus whose count starts a pool.  Below it the whole count
# takes about 6 ms at genus 4, less than the 20 ms of importing
# multiprocessing and forking two workers.  At genus 5 the pool does not
# pay either: on two cores `bounds --exact` took a median 0.36 s with
# --jobs 1 and 0.42 s with --jobs 2 (nine alternating fresh processes).
_POOL_GENUS = 5


def _choice_table(n: int, moves: Sequence[Sequence[tuple[int, tuple]]],
                  owners: Sequence[int], partners: Sequence[int], rows: tuple,
                  start: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """(choices, first): choices[x] lists the choices of the orderly
    search (`_orderly`) at a node whose least open symbol is x, as (k,
    p, arcs, joining), k being the choice's index in the list.

    moves[i] pairs owner i with each partner j in two orientations, as
    (j, arcs) at 2j and 2j + 1: the four arcs a -> b of s that the
    pairing writes, from owners[i], from partners[j] (of the other
    parity) and from a greater symbol of each.  At owners[i] the choices
    are moves[i] in order, at partners[j] the two orientations of
    moves[i] for each i in turn; p is the other side's symbol, and a
    choice is open exactly when p is.  The choices with p are first[p]
    and first[p] + 1 in each list of the other side.

    joining lists the elements that the choice admits, those at
    `_admitting` row a, column b (rows) for each of its arcs a -> b, as
    (t, t^-1, start): the padded tables of t and of t^-1 and the first
    position not yet known to tie."""

    def choice(k, p, arcs):
        return k, p, arcs, tuple((t, inv, start) for a, b in arcs
                                 for _, _, t, inv in rows[a - 1][b])

    choices: list[tuple] = [()] * (n + 1)
    first = [0] * (n + 1)
    for i, (row, x) in enumerate(zip(moves, owners)):
        choices[x] = tuple(choice(k, partners[j], arcs) for k, (j, arcs) in enumerate(row))
        first[x] = 2 * i
    for j, x in enumerate(partners):
        choices[x] = tuple(choice(2 * i + k, owner, row[2 * j + k][1])
                           for i, (row, owner) in enumerate(zip(moves, owners))
                           for k in (0, 1))
        first[x] = 2 * j
    return tuple(choices), tuple(first)


def _filling_choices(ctx: GenusContext, rows: tuple
                     ) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The choice table (`_choice_table`) of the filling pairs with
    admission table rows: `_moves` pairs the odd transpositions of iota
    o tau with the even ones, each named by its lesser symbol, so the
    choices at the symbols of the i-th odd transposition are the row
    `_moves(ctx)[i]`.  The tie starts at position 2: s(1) = 2 at every
    node of the shard."""
    base = base_involution(ctx)
    return _choice_table(ctx.n, _moves(ctx), [a for a, _ in base.odd],
                         [c for c, _ in base.even], rows, 2)


@lru_cache(maxsize=None)
def _symbol_choices(ctx: GenusContext) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The choice table that counts and classifies: an element joins
    when the choice writes s(t^-1(1)) = t^-1(2)."""
    return _filling_choices(ctx, _admitting(ctx.i_min, 1, (2,)))


@lru_cache(maxsize=None)
def _listing_choices(ctx: GenusContext) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The choice table that lists: every admission cell is empty, so no
    element ties and the search drops no node for its class."""
    n = ctx.n
    return _filling_choices(ctx, (((),) * (n + 1),) * n)


def _orderly(choices: Sequence[tuple], first: Sequence[int], cycles: int,
             prefix: Sequence[int], stop: int
             ) -> Iterator[tuple[list[int], list[int], list[tuple]]]:
    """Yield (path, table, tied) at every node of the orderly search over
    a choice table (`_choice_table`) of n symbols that survives at depth
    min(stop, n / 4), the leaves at n / 4: path lists its choices, table
    its s, padded at 0 and at n + 1, and tied the admitted elements
    still tied with it.  Path and table are live and change when the
    search resumes.

    Each level takes the least symbol x whose s(x) is still open and a
    choice of choices[x] whose other side is open, so every table is
    reached once.  `prefix` fixes level k to its choice prefix[k].  A
    prefix is dropped once s closes a 2-cycle, or its `cycles`-th cycle
    with arcs left.  The unclosed arcs form paths, each end of which
    knows the other as far[end]; each choice merges the paths on a copy
    of its level's far ends, whose entry 0, no symbol, counts the cycles
    closed.  A leaf has closed exactly `cycles`.  At the last level one
    owner and one partner are open, so two choices are.  With one cycle
    no copy is made there: the four arcs close one n-cycle exactly when
    the path ends they leave, each sent to the far end of the path its
    arc enters, form one 4-cycle.

    Each node also carries the elements t that s admits (`_admitting`)
    and that still tie with it, as (t, t^-1, y): the padded tables of t
    and of t^-1 (`_relabeller`) and the position y before which t o s o
    t^-1 ties with s.  t joins when a choice writes the arc that admits
    it, with y where the table says.  Position y decides once both s(y)
    and s(t^-1(y)) are written: a smaller t(s(t^-1(y))) drops the node
    with every extension, a larger one drops t.  table[n + 1] is 0, so
    the stabiliser's elements stay tied at y = n + 1.

    So every leaf is the least member of its class among the tables it
    admits, and its tied elements are its stabiliser's but the identity:
    at a leaf every admitted element has joined and been compared to the
    end."""
    n = len(choices) - 1
    last = n // 4 - 1
    stop = min(stop, last + 1)
    many = cycles > 1
    table = [0] * (n + 2)
    path: list[int] = []

    def options(depth: int, x: int) -> tuple:
        if depth < len(prefix):
            return (choices[x][prefix[depth]],)
        if depth < last:
            return choices[x]
        # the open symbol of the other side, the least open of its parity
        p = x + 1
        while table[p]:
            p += 2
        k = first[p]
        return choices[x][k:k + 2]

    # per level: its choices, the elements tied at its start, its least
    # open symbol and its far ends; per level above the current one, the
    # arcs of the choice taken
    levels: list = [None] * stop
    taken: list = [None] * stop
    levels[0] = iter(options(0, 1)), [], 1, list(range(n + 1))
    depth = 0
    while True:
        todo, tied, x, ends = levels[depth]
        for k, p, arcs, joining in todo:
            if table[p]:
                continue
            if depth < last or many:
                far = ends[:]
                for a, b in arcs:
                    table[a] = b
                    s = far[a]
                    if b == s:  # a cycle closed: with one wanted, too early
                        if not many or table[b] == a:
                            break
                        far[0] += 1
                        if far[0] == cycles and depth < last:
                            break
                        s = 0
                        continue
                    e = far[b]
                    far[s] = e
                    far[e] = s
                if b == s:  # the loop broke
                    for a, _ in arcs:
                        table[a] = 0
                    continue
            else:
                (u1, h1), (u2, h2), (u3, h3), (u4, h4) = arcs
                table[u1] = h1
                table[u2] = h2
                table[u3] = h3
                table[u4] = h4
                # the path end u1 reaches after one, two and three arcs
                s = ends[h1]
                if s == u1 or ends[table[s]] == u1 or ends[table[ends[table[s]]]] == u1:
                    table[u1] = table[u2] = table[u3] = table[u4] = 0
                    continue
            left = []
            for tie in chain(tied, joining):
                t, inv, y = tie
                v = table[y]
                w = table[inv[y]]
                if not (v and w):
                    left.append(tie)
                    continue
                w = t[w]
                while w == v:
                    y += 1
                    v = table[y]
                    w = table[inv[y]]
                    if not (v and w):
                        left.append((t, inv, y))
                        break
                    w = t[w]
                else:
                    if w < v:  # t undercuts s
                        break
            else:
                path.append(k)
                if depth + 1 < stop:
                    y = x + 1
                    while table[y]:
                        y += 1
                    taken[depth] = arcs
                    depth += 1
                    levels[depth] = iter(options(depth, y)), left, y, far
                    break
                if depth < last or not many or far[0] == cycles:
                    yield path, table, left
                path.pop()
            for a, _ in arcs:
                table[a] = 0
        else:
            depth -= 1
            if depth < 0:
                return
            path.pop()
            for a, _ in taken[depth]:
                table[a] = 0


# ----------------------------------------------------------------------
# Public enumeration API
# ----------------------------------------------------------------------


def enumerate_filling(
    ctx: GenusContext, *, force: bool = False
) -> list[FillingPermutation]:
    """All filling permutations at the given genus, grouped by s(1) in
    increasing order.  The s(1) = 2 group is sorted; each other group
    holds the conjugates of that group by one t, in the same order.

    The shard with s(1) = 2 is searched, sorted and conjugated by each
    twisting element t with t(1) = 1, in increasing order of t(2), which
    gives the solutions with s(1) = t(2).  Each pair of the shard is
    validated by the `is_filling` walk of FillingPermutation; its
    conjugates are not, because `twisting_closure` checks that its
    generators map solutions to solutions (`_trusted_conjugate`).  The
    list holds every solution, so above genus `LISTED_GENUS` it is
    refused unless force is set."""
    if ctx.g > LISTED_GENUS and not force:
        raise GuardExceeded(
            f"genus {ctx.g} exceeds {LISTED_GENUS}, the largest genus "
            "enumerate_filling lists: it holds every solution at about "
            "417 B each, and genus 5 alone has 16,609,536 (about 6.9 GB). "
            "count_classes holds no solution and class_representatives "
            "only the class representatives; pass force=True to override."
        )
    check_guard(ctx.g, force)
    shard = sorted(_iter_solution_images(ctx, (_least_shard(ctx),)))
    group = twisting_closure(ctx)  # raises unless conjugates of solutions are solutions
    out = [FillingPermutation(ctx, Permutation._unchecked((0, *img))) for img in shard]
    # the t with t(1) = 1 but the identity: the group is sorted, and one
    # element sends 2 to each of the 2i even symbols (`_least_shard`)
    owns = [_translation(img) for img in shard]
    for t in sorted(group[1:2 * ctx.i_min], key=lambda t: t(2)):
        _, inv, table = _relabeller(t)
        out.extend(_trusted_conjugate(ctx, inv.translate(own).translate(table))
                   for own in owns)
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


def _classify(args) -> tuple[int, int, list[tuple[bytes, int]]]:
    """The solutions and classes below one prefix of the orderly search,
    and each class's representative with its stabiliser order if keep.

    Each leaf is its class's least member, and its stabiliser has order
    1 + the number of elements still tied with it (`_orderly`); its class
    has |G| / |Stab| members, all of them solutions."""
    ctx, prefix, keep = args
    order = len(relabeling_group(ctx.i_min))
    count = classes = 0
    kept = []
    for _, table, tied in _orderly(*_symbol_choices(ctx), 1, prefix, ctx.i_min):
        fixed = 1 + len(tied)
        count += order // fixed
        classes += 1
        if keep:
            kept.append((bytes(table[1:-1]), fixed))
    return count, classes, kept


def _count_and_classify(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False, keep: bool = True
) -> tuple[int, int, list[tuple[bytes, int]]]:
    """The number of filling permutations, the number of twisting classes
    and, if keep, the canonical representative of every class with its
    stabiliser order, sorted.

    The orderly search (`_orderly`) of the one shard where s(1) = 2
    meets each class once, at its least member, which has s(1) = 2
    (`_check_regular_on_evens`), and every member of the shard admits
    the others.  Its surviving prefixes of `_SPLIT_DEPTH` levels are the
    tasks.  From genus `_POOL_GENUS` on, with jobs > 1, they run in a
    pool of at most one worker each; below it, or with one task, they
    run in this process whatever jobs is.
    The parts are merged in task order and the representatives sorted,
    so the result does not depend on jobs.  Without keep a task returns
    counts only, so nothing grows with the number of classes."""
    check_guard(ctx.g, force)
    # the table is built here once, before a pool forks
    shard = _orderly(*_symbol_choices(ctx), 1, (_least_shard(ctx),), _SPLIT_DEPTH)
    tasks = [(ctx, tuple(path), keep) for path, _, _ in shard]
    workers = min(max(1, jobs), len(tasks)) if ctx.g >= _POOL_GENUS else 1
    if workers <= 1:
        parts = list(map(_classify, tasks))
    else:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            parts = list(pool.imap(_classify, tasks))
    reps = sorted(rep for _, _, kept in parts for rep in kept)
    return sum(part[0] for part in parts), sum(part[1] for part in parts), reps


def class_representatives(
    ctx: GenusContext, *, jobs: int = 1, force: bool = False
) -> list[FillingPermutation]:
    """Canonical representative of every twisting class, sorted."""
    reps = _count_and_classify(ctx, jobs=jobs, force=force)[2]
    return [FillingPermutation(ctx, Permutation._unchecked((0, *img))) for img, _ in reps]


def classify_solutions(
    ctx: GenusContext, solutions: Sequence[FillingPermutation]
) -> list[FillingPermutation]:
    """Class representatives of an already-enumerated solution list: its
    members with s(1) = 2 that no admitted conjugate undercuts, as in
    `canonical_class_rep`, sorted."""
    images = (bytes(fp.perm.images) for fp in solutions)
    reps = [img for img in images
            if img[0] == 2 and min(img, *_admitted_conjugates(ctx.i_min, img)) == img]
    return [FillingPermutation(ctx, Permutation._unchecked((0, *img))) for img in sorted(reps)]


def count_classes(ctx: GenusContext, *, jobs: int = 1, force: bool = False) -> int:
    """N(g): the number of twisting classes of filling permutations."""
    return _count_and_classify(ctx, jobs=jobs, force=force, keep=False)[1]


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
