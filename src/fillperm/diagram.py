"""Crossing diagrams: a pair of curves as the quarter-turn corner map.

A pair of closed curves (a, b) meeting transversely in m points, with the
points labelled 1..m along a, is captured by:

  * beta_seq  -- the labels in the order b visits them (entry j is the
                 terminal point of b's arc j),
  * signs     -- the local crossing chirality at each point.

The directed arcs carry the filling symbols: 2k-1 is alpha arc k, 2k is
beta arc k and s+2m is the inverse of s.  The heads of four arcs meet at
each point, and a quarter turn around the point is the corner map of
`filling.corner_orbits`; the sign chooses its direction.  The face walk
leaves each corner along the inverse of the arc it turns to, so its
successor is s -> iota(corner(s)).  Faces of the map are the
complementary polygons of the pair; a single face with m odd is exactly
an oriented minimally intersecting filling pair, and then the successor
is its filling permutation.

`crossing_steps` is the one place where the quarter turn is written out:
the successor table of a whole diagram and the crossing-by-crossing
pattern search both take their entries from it.  A filling permutation
made by `PairDiagram.to_filling_permutation` keeps the diagram it was
made from, and `diagram_of` hands that back instead of reading the
corner orbits again, so splice and build results carry their diagram.

The module is internal machinery shared by the splice construction and
the small-pattern search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .filling import FillingPermutation, GenusContext, corner_orbits
from .perms import Permutation, table_orbits


def crossing_steps(m: int, j: int, p: int, sign: int
                   ) -> tuple[tuple[int, int], ...]:
    """The four face-walk steps (s, successor of s) at point p, the end
    of beta arc j, in an m-crossing diagram.

    The arc heads at p are alpha arc p (symbol a), beta arc j (b) and
    the inverses of alpha arc p+1 (a2 + 2m) and beta arc j+1 (b2 + 2m).
    A quarter turn visits them a, b, a2 + 2m, b2 + 2m, or a, b2 + 2m,
    a2 + 2m, b when the sign is -1, and each corner steps to the inverse
    of the next one.
    """
    half = 2 * m
    a, b = 2 * p - 1, 2 * j
    a2, b2 = 2 * (p % m) + 1, 2 * (j % m) + 2
    if sign > 0:
        return (a, b + half), (b, a2), (a2 + half, b2), (b2 + half, a + half)
    return (a, b2), (b2 + half, a2), (a2 + half, b + half), (b, a + half)


@dataclass(frozen=True)
class PairDiagram:
    """Two curves crossing in m labelled points."""

    m: int
    beta_seq: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("diagram needs at least one crossing")
        if sorted(self.beta_seq) != list(range(1, self.m + 1)):
            raise ValueError("beta_seq must visit each point exactly once")
        if len(self.signs) != self.m or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1/-1 per point")

    def _next_arc(self) -> list[int]:
        """The face-walk successor on directed arc symbols, padded at 0."""
        m, signs = self.m, self.signs
        nxt = [0] * (4 * m + 1)
        for j, p in enumerate(self.beta_seq, 1):
            (s1, t1), (s2, t2), (s3, t3), (s4, t4) = crossing_steps(
                m, j, p, signs[p - 1])
            nxt[s1] = t1
            nxt[s2] = t2
            nxt[s3] = t3
            nxt[s4] = t4
        return nxt

    # -- faces -----------------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Complementary polygons as cyclic lists of directed arc symbols."""
        nxt = self._next_arc()
        return table_orbits(nxt, range(1, len(nxt)))[1]

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

        Only the face through symbol 1 is walked: it is the only face
        exactly when it uses all 4m arc sides.
        """
        if self.m % 2 == 0:
            return False
        face = table_orbits(self._next_arc(), (1,))[1][0]
        return len(face) == 4 * self.m

    # -- conversion to the polygon encoding ------------------------------

    def to_filling_permutation(self) -> FillingPermutation:
        """Cut along the pair and read off the filling permutation.

        The face-walk successor on the arc symbols is the permutation.
        Requires a single complementary face; raises ValueError otherwise.
        The result keeps this diagram for `diagram_of`.
        """
        if self.m % 2 == 0:
            raise ValueError("a filling pair has an odd crossing count")
        p = Permutation(self._next_arc()[1:])
        if not p.is_n_cycle():  # the face at symbol 1 is not every arc
            raise ValueError("complement is not a single disk")
        fp = FillingPermutation(GenusContext((self.m + 1) // 2), p)
        object.__setattr__(fp, "_diagram", self)
        return fp


def diagram_of(fp: FillingPermutation) -> PairDiagram:
    """Extract the crossing diagram of a filling permutation.

    The points are the corner orbits, labelled along the first curve: the
    head of alpha arc k is point k.  Beta arc j ends at the point of
    symbol 2j, and the sign at point k is +1 exactly when the corner map
    turns alpha arc k into a forward arc, iota(s(2k-1)) <= 2m.
    ValueError unless the diagram read off this way walks back to fp.

    A permutation made by `PairDiagram.to_filling_permutation` gives
    back the diagram it was made from, without reading.  Nothing is
    written back to fp, so pairs from other sources keep no diagram.
    """
    if fp._diagram is not None:
        return fp._diagram
    m = fp.ctx.i_min
    s = fp.perm.images
    cls, orbits = corner_orbits(fp, range(1, 4 * m + 1))
    label = [0] * len(orbits)
    for k in range(1, m + 1):
        label[cls[2 * k - 1]] = k
    beta_seq = tuple(label[cls[2 * j]] for j in range(1, m + 1))
    # iota(x) <= 2m exactly when x > 2m
    signs = tuple(1 if s[2 * k - 2] > 2 * m else -1 for k in range(1, m + 1))
    d = PairDiagram(m, beta_seq, signs)
    if d._next_arc()[1:] != list(s):
        raise ValueError("corner structure is not a transverse 4-valent pair")
    return d
