"""Crossing diagrams: a pair of curves as the quarter-turn corner map.

A pair of closed curves (a, b) meeting transversely in m points, with the
points labelled 1..m along a, is captured by:

  * beta_seq  -- the labels in the order b visits them (entry j is the
                 terminal point of b's arc j),
  * signs     -- the local crossing chirality at each point.

The directed arcs carry the filling symbols: 2k-1 is alpha arc k, 2k is
beta arc k and s+2m is the inverse of s.  The heads of four arcs meet at
each point, and a quarter turn around the point is the corner map of
the glued polygon (see `filling`); the sign chooses its direction.  The
face walk leaves each corner along the inverse of the arc it turns to,
so its successor is s -> iota(corner(s)).  Faces of the map are the
complementary polygons of the pair; a single face with m odd is exactly
an oriented minimally intersecting filling pair, and then the successor
is its filling permutation.

`_quarter_turns` is the one place where the quarter turn is written
out: one call writes the successor table of a whole diagram, crossing
by crossing, and `crossing_steps` reads the four steps of one crossing
off it for the crossing-by-crossing pattern search.  `diagram_of` reads
a diagram back from the first step at each crossing, the image of each
alpha arc.  A diagram builds its successor table once, on construction,
and keeps it: the round trip of `diagram_of`, `faces`, `is_filling_pair`
and `to_filling_permutation` all read that one table.  A filling
permutation keeps its diagram once it has one: the pairs that
`PairDiagram.to_filling_permutation` makes keep the diagram they were
made from, so splice and build results carry theirs, and `diagram_of`
keeps the diagram it reads off any other pair.  Each pair's diagram is
read at most once, and every later `diagram_of` hands it back.

The module is internal machinery shared by the splice construction and
the small-pattern search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .filling import FillingPermutation, genus_context
from .perms import Permutation, table_orbits


def _quarter_turns(succ, m: int, first: int, ends: Sequence[int],
                   signs: Sequence[int]) -> None:
    """Write into succ the four face-walk steps (s, successor of s) at
    each point p = ends[i], the end of beta arc j = first + i, in an
    m-crossing diagram whose point p has the sign signs[p - 1].

    The arc heads at p are alpha arc p (symbol a), beta arc j (b) and
    the inverses of alpha arc p+1 (a2 + 2m) and beta arc j+1 (b2 + 2m).
    A quarter turn visits them a, b, a2 + 2m, b2 + 2m, or a, b2 + 2m,
    a2 + 2m, b when the sign is -1, and each corner steps to the inverse
    of the next one.  The steps are written in that order.
    """
    half = 2 * m
    for j, p in enumerate(ends, first):
        a, b = 2 * p - 1, 2 * j
        a2 = a + 2 if p < m else 1
        b2 = b + 2 if j < m else 2
        if signs[p - 1] > 0:
            succ[a] = b + half
            succ[b] = a2
            succ[a2 + half] = b2
            succ[b2 + half] = a + half
        else:
            succ[a] = b2
            succ[b2 + half] = a2
            succ[a2 + half] = b + half
            succ[b] = a + half


def crossing_steps(m: int, j: int, p: int, sign: int
                   ) -> tuple[tuple[int, int], ...]:
    """The four face-walk steps (s, successor of s) at point p, the end
    of beta arc j, in an m-crossing diagram, in the order of the quarter
    turn (`_quarter_turns`)."""
    steps: dict[int, int] = {}
    _quarter_turns(steps, m, j, (p,), {p - 1: sign})
    return tuple(steps.items())


@lru_cache(maxsize=None)
def _labels(m: int) -> list[int]:
    """The point labels 1..m, as the sorted visit order of a diagram."""
    return list(range(1, m + 1))


@dataclass(frozen=True)
class PairDiagram:
    """Two curves crossing in m labelled points."""

    m: int
    beta_seq: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        # a list would construct, but leave the diagram unhashable
        if not (isinstance(self.beta_seq, tuple) and isinstance(self.signs, tuple)):
            raise ValueError("beta_seq and signs must be tuples")
        # type(), not isinstance(): bool is an int subclass
        if type(self.m) is not int or not {
                *map(type, self.beta_seq), *map(type, self.signs)} <= {int}:
            raise ValueError("m, beta_seq and signs must be ints")
        if self.m < 1:
            raise ValueError("diagram needs at least one crossing")
        # the length first: the labels are cached only at sizes made
        if len(self.beta_seq) != self.m or sorted(self.beta_seq) != _labels(self.m):
            raise ValueError("beta_seq must visit each point exactly once")
        if len(self.signs) != self.m or not set(self.signs) <= {-1, 1}:
            raise ValueError("signs must be +1/-1 per point")
        # The face-walk successor table, built once.  Not a field: it
        # takes no part in ==, hash or repr.
        object.__setattr__(self, "_succ", tuple(self._next_arc()))

    def _next_arc(self) -> list[int]:
        """The face-walk successor on directed arc symbols, padded at 0,
        which construction keeps as `_succ`."""
        nxt = [0] * (4 * self.m + 1)
        _quarter_turns(nxt, self.m, 1, self.beta_seq, self.signs)
        return nxt

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Complementary polygons as cyclic lists of directed arc symbols."""
        return table_orbits(self._succ, range(1, 4 * self.m + 1))[1]

    def face_count(self) -> int:
        return len(self.faces())

    def genus(self) -> int | None:
        """Genus of the glued surface, or None if the Euler count is odd."""
        chi = self.m - 2 * self.m + self.face_count()
        if (2 - chi) % 2:
            return None
        return (2 - chi) // 2

    def is_filling_pair(self) -> bool:
        """Single complementary disk (and hence minimal intersection).

        Only the face through symbol 1 is walked, as `is_filling` walks
        it, counting its steps: it is the only face exactly when it uses
        all 4m arc sides.
        """
        if self.m % 2 == 0:
            return False
        succ = self._succ
        steps, j = 1, succ[1]
        while j != 1:
            j = succ[j]
            steps += 1
        return steps == 4 * self.m

    # -- conversion to the polygon encoding ------------------------------

    def to_filling_permutation(self) -> FillingPermutation:
        """Cut along the pair and read off the filling permutation.

        The face-walk successor on the arc symbols is the permutation.
        Requires a single complementary face; raises ValueError otherwise.
        The result keeps this diagram for `diagram_of` and shares its table.

        The successor table goes to `FillingPermutation` unchecked, and
        its one bounded walk from symbol 1 decides everything.  The walk
        comes back to 1 after exactly 4m steps only on a bijection of the
        4m symbols whose one cycle is the face at 1 (see `is_filling`),
        so "not an n-cycle" means that face is not every arc.
        """
        if self.m % 2 == 0:
            raise ValueError("a filling pair has an odd crossing count")
        ctx = genus_context((self.m + 1) // 2)
        try:
            fp = FillingPermutation(ctx, Permutation._unchecked(self._succ))
        except ValueError as exc:
            if str(exc).endswith("not an n-cycle"):
                raise ValueError("complement is not a single disk") from None
            raise
        object.__setattr__(fp, "_diagram", self)
        return fp


def diagram_of(fp: FillingPermutation) -> PairDiagram:
    """Extract the crossing diagram of a filling permutation.

    The points are labelled along the first curve: the head of alpha arc
    k is point k.  If beta arc j ends there, the first step of its
    quarter turn (`_quarter_turns`) makes the image x = s(2k-1) of alpha
    arc k either 2j + 2m, at a +1 crossing, or 2(j mod m) + 2, the
    inverse of the corner at beta arc j+1, at a -1 crossing.  One pass over the alpha
    images reads beta_seq and signs back from x.  The one check is that
    the diagram read off this way walks back to fp, ValueError otherwise.

    A diagram read off fp is kept on it, once its round trip has passed,
    and shares fp's padded image table as its successor table, which
    the check has just found equal.  So a pair's diagram is read at
    most once: a permutation made by `PairDiagram.to_filling_permutation`
    or read before gives back its diagram without reading.
    """
    if fp._diagram is not None:
        return fp._diagram
    m = fp.ctx.i_min
    half = 2 * m
    s = fp.perm.images
    ends = [0] * (m + 1)  # ends[j]: the point where beta arc j ends
    signs = []
    for k in range(1, m + 1):
        x = s[2 * k - 2]
        if x > half:
            ends[(x - half) // 2] = k
            signs.append(1)
        else:
            ends[(x // 2 - 2) % m + 1] = k
            signs.append(-1)
    d = PairDiagram(m, tuple(ends[1:]), tuple(signs))
    succ = fp.perm.padded
    if d._succ != succ:
        raise ValueError("corner structure is not a transverse 4-valent pair")
    object.__setattr__(d, "_succ", succ)
    object.__setattr__(fp, "_diagram", d)
    return d
