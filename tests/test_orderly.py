"""The orderly search against a reference copy of its first form.

`reference_orderly` is the orderly search as it was written first: one
generic level loop, an undo trail for the path merges, a `chain`
generator that hands each node's newly admitted elements to `_resume`,
and no special last level.  It is kept here, and only here, as an
oracle: the search in `enumeration` must yield the same nodes, in the
same order, with the same tables and the same tied elements.
"""

import random
from itertools import chain
from typing import Iterable

import pytest

from fillperm.diagram import _crossing_rows
from fillperm.enumeration import (
    _SPLIT_DEPTH,
    _admitting,
    _least_shard,
    _orderly,
    _symbol_choices,
)
from fillperm.filling import GenusContext


def reference_choices(ctx):
    """choices[x]: (p, arcs) for each choice at least open symbol x: at
    beta arc j, symbol 2j, the crossings of its row of `_crossing_rows`,
    and at alpha arc p, symbol 2p - 1, its column, read row by row."""
    rows = _crossing_rows(ctx.i_min)
    choices = [()] * (ctx.n + 1)
    for j, row in enumerate(rows):
        choices[2 * j + 2] = tuple((2 * p + 1, arcs) for p, arcs in row)
    for p in range(ctx.i_min):
        choices[2 * p + 1] = tuple(
            (2 * j + 2, row[2 * p + k][1]) for j, row in enumerate(rows) for k in (0, 1))
    return tuple(choices)


def reference_resume(table, tied: Iterable[tuple]):
    """The tied elements (t, t^-1, y) that still tie with the partial
    table, each with the position where its comparison stops, or None if
    one of them undercuts it."""
    left = []
    for t, inv, y in tied:
        while True:
            v = table[y]
            w = table[inv[y]]
            if not (v and w):
                left.append((t, inv, y))
                break
            w = t[w]
            if w != v:
                if w < v:
                    return None
                break
            y += 1
    return left


def reference_orderly(ctx, prefix, stop):
    """Yield (path, table, tied) at every surviving node of depth
    min(stop, 2g-1), as the first form of `_orderly` did."""
    n = ctx.n
    stop = min(stop, ctx.i_min)
    choices = reference_choices(ctx)
    rows = _admitting(ctx.i_min, 1, (2,))
    table = [0] * (n + 2)
    far = list(range(n + 1))
    trail = []
    path = []

    def options(depth, x):
        if depth < len(prefix):
            return iter(((prefix[depth], choices[x][prefix[depth]]),))
        return enumerate(choices[x])

    def undo(arcs, mark):
        for a, _ in arcs:
            table[a] = 0
        while len(trail) > mark:
            s, a, e, b = trail.pop()
            far[s] = a
            far[e] = b

    levels = [None] * stop
    taken = [None] * stop
    levels[0] = options(0, 1), [], 1
    depth = 0
    while True:
        todo, tied, x = levels[depth]
        for k, (p, arcs) in todo:
            if table[p]:
                continue
            mark = len(trail)
            for a, b in arcs:
                table[a] = b
                s = far[a]
                if b == s:
                    if len(trail) + 1 < n:
                        break
                    continue
                e = far[b]
                trail.append((s, a, e, b))
                far[s] = e
                far[e] = s
            else:
                # an admitted element as its translation table and t^-1
                left = reference_resume(table, chain(tied, (
                    (t[1], t[3], 2) for a, b in arcs for t in rows[a - 1][b])))
                if left is not None:
                    path.append(k)
                    if depth + 1 == stop:
                        yield path, table, left
                        path.pop()
                    else:
                        taken[depth] = arcs, mark
                        depth += 1
                        y = x + 1
                        while table[y]:
                            y += 1
                        levels[depth] = options(depth, y), left, y
                        break
            undo(arcs, mark)
        else:
            depth -= 1
            if depth < 0:
                return
            path.pop()
            undo(*taken[depth])


def shard_search(ctx, prefix, stop):
    """`_orderly` over the filling pairs' choice table, one cycle."""
    return _orderly(*_symbol_choices(ctx), 1, prefix, stop)


def nodes(search, ctx, prefix, stop):
    """The nodes a search yields, copied: the path, the table's bytes and
    the tied elements as a set of (t^-1, position), which names each
    element and where its comparison stopped."""
    return [(tuple(path), bytes(table[1:-1]), frozenset((inv, y) for _, inv, y in tied))
            for path, table, tied in search(ctx, prefix, stop)]


def assert_same_nodes(ctx, prefix, stop):
    got = nodes(shard_search, ctx, prefix, stop)
    assert got == nodes(reference_orderly, ctx, prefix, stop)
    return got


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_the_whole_shard_matches_the_reference(g):
    ctx = GenusContext(g)
    shard = (_least_shard(ctx),)
    split = assert_same_nodes(ctx, shard, _SPLIT_DEPTH)
    leaves = assert_same_nodes(ctx, shard, 2 * g - 1)
    assert (len(split), len(leaves)) == [(1, 1), (0, 0), (7, 5), (24, 168)][g - 1]
    # the leaves under each task, in task order, are the whole search's
    below = [leaf for path, _, _ in split for leaf in nodes(shard_search, ctx, path, 2 * g - 1)]
    assert below == leaves


def test_genus_5_tasks_match_the_reference():
    ctx = GenusContext(5)
    tasks = [tuple(path) for path, _, _ in shard_search(ctx, (_least_shard(ctx),), _SPLIT_DEPTH)]
    assert len(tasks) == 51
    # eight tasks, the largest of 5,421 classes among them
    leaves = sum(len(assert_same_nodes(ctx, task, ctx.i_min))
                 for task in random.Random(1).sample(tasks, 8))
    assert leaves == 8_694


def test_genus_6_prefixes_match_the_reference():
    # ten of the 725 depth-4 prefixes, 40,966 classes in all and 18,715
    # under the largest; a prefix can hold 75,676, so the seed keeps each
    # check under a second
    ctx = GenusContext(6)
    prefixes = assert_same_nodes(ctx, (_least_shard(ctx),), 4)
    assert len(prefixes) == 725
    leaves = sum(len(assert_same_nodes(ctx, path, ctx.i_min))
                 for path, _, _ in random.Random(7).sample(prefixes, 10))
    assert leaves == 40_966


def test_a_fixed_last_level_is_followed():
    # a prefix as long as the search fixes its last level too
    ctx = GenusContext(3)
    for path, _, _ in nodes(shard_search, ctx, (_least_shard(ctx),), ctx.i_min):
        assert [node[0] for node in assert_same_nodes(ctx, path, ctx.i_min)] == [path]
    # two choices are open at the last level, the two orientations of one
    # pair, so a prefix that names another there yields nothing
    closed = path[:-1] + ((path[-1] + 2) % (2 * ctx.i_min),)
    assert assert_same_nodes(ctx, closed, ctx.i_min) == []
